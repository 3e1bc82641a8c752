"""``tools/count_code_lines.py``, the code-line count CHANGES.md quotes."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
_spec = importlib.util.spec_from_file_location("count_code_lines", _PATH)
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)

_SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment

# a comment on its own line


def f(x):
    """Function docstring."""
    text = """a string that is
not a docstring"""
    return (x +
            1)


class C:
    "Class docstring."
    y = 1
'''


def test_counts_code_lines_only():
    # import; def; the two lines of ``text``; the two of ``return``;
    # class; y = 1
    assert count_code_lines.count_code_lines(_SNIPPET) == 8


def test_prints_each_module_and_the_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_SNIPPET)
    # 9 bytes in 8 characters: the accented letter is two bytes in UTF-8
    (tmp_path / "b.py").write_text('x = "\u00e9"\n', encoding="utf-8")
    count_code_lines.main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    size = len(_SNIPPET.encode())
    assert [line.split()[:2] for line in lines] == [
        ["8", str(size)], ["1", "9"], ["9", str(size + 9)],
    ]
    assert lines[-1].split()[2] == "total"


def test_prints_the_grand_total_of_several_trees(tmp_path, capsys):
    for name in ("one", "two"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "m.py").write_text("x = 1\n")
    count_code_lines.main([str(tmp_path / "one"), str(tmp_path / "two")])
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].split() == ["2", "12", "total"]
