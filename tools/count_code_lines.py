"""Count the code lines and source bytes of Python modules. A code line
holds a token that is not a comment, a blank or a docstring.

A token that spans several lines, such as a triple-quoted string that
is not a docstring, counts every line it spans. Docstrings are the
string statements that open a module, class or function body, found
with :mod:`ast`. Standard library only.

Run from the root of a checkout::

    python tools/count_code_lines.py            # every module under src/
    python tools/count_code_lines.py src tests  # each tree, then the total

It prints one line per module, a total per tree and, for more than one
tree, the grand total: code lines, then source bytes, then the name.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that are layout or comments, never code
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_spans(tree: ast.AST) -> set[tuple]:
    """(start, end) positions, as tokenize gives them, of every
    docstring expression in ``tree``."""
    spans = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            v = first.value
            spans.add(
                ((v.lineno, v.col_offset), (v.end_lineno, v.end_col_offset))
            )
    return spans


def count_code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for tok in tokens:
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and any(
            start <= tok.start and tok.end <= end for start, end in spans
        ):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    roots = [Path(p) for p in argv] or [Path("src")]
    grand_lines = grand_bytes = 0
    for root in roots:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        lines = size = 0
        for path in files:
            source = path.read_bytes()
            count = count_code_lines(source.decode("utf-8"))
            print(f"{count:6d} {len(source):8d}  {path}")
            lines += count
            size += len(source)
        print(f"{lines:6d} {size:8d}  total {root}")
        grand_lines += lines
        grand_bytes += size
    if len(roots) > 1:
        print(f"{grand_lines:6d} {grand_bytes:8d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
