"""The demos run, their imports from the package resolve, and their
calls fit.

Each ``demos/*.py`` runs in a subprocess, on this checkout's package,
and must exit 0 within a timeout. It is also parsed with ``ast``, as is
each ```` ```python ```` block of README that is not a doctest, and
every name it takes by ``from fusionval... import`` must exist in that
module. Every call of such a name may pass only keywords that are
parameters of the callable's ``inspect.signature``. A removed or
renamed export or keyword, or a demo that no longer runs, fails here
rather than in a reader's shell. README quotes ``paper_table.py``'s
output, and must quote it as the demo prints it, and each of its
``>>>`` examples must give the output it states. Every ``fusionval``
command of its ```` ```sh ```` blocks must parse, unrun.
"""

import ast
import doctest
import functools
import importlib
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fusionval.cli import build_parser

_ROOT = Path(__file__).resolve().parents[1]
_DEMOS = _ROOT / "demos"
_README = _ROOT / "README.md"


def _sources():
    """(label, parsed tree) of every demo and of each README
    ```` ```python ```` block without a ``>>>`` prompt."""
    for path in sorted(_DEMOS.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))
    readme = _README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    for i, block in enumerate(b for b in blocks if ">>>" not in b):
        yield f"README block {i}", ast.parse(block)


def _package_imports(tree):
    """The names ``tree`` takes by ``from fusionval... import``, as
    (module, imported name, local name)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.module.split(".")[0] != "fusionval":
            continue
        for alias in node.names:
            yield node.module, alias.name, alias.asname or alias.name


def test_every_demo_import_from_the_package_resolves():
    imported, missing = set(), []
    for label, tree in _sources():
        for module, name, _ in _package_imports(tree):
            imported.add(label)
            if not hasattr(importlib.import_module(module), name):
                missing.append(f"{label}: {module}.{name}")
    assert missing == []
    assert "README block 0" in imported and len(imported) > 1  # and a demo


def test_every_demo_keyword_is_a_parameter_of_its_callable():
    checked, unknown = set(), []
    for label, tree in _sources():
        params = {}
        for module, name, local in _package_imports(tree):
            target = getattr(importlib.import_module(module), name, None)
            if callable(target):
                params[local] = inspect.signature(target).parameters
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in params
            ):
                continue
            accepted = params[node.func.id]
            takes_any = any(
                p.kind is inspect.Parameter.VAR_KEYWORD
                for p in accepted.values()
            )
            # a keyword of None is a ** splat, which names no keyword
            for keyword in (kw.arg for kw in node.keywords if kw.arg):
                checked.add(label)
                if keyword not in accepted and not takes_any:
                    unknown.append(
                        f"{label}:{node.lineno}: "
                        f"{node.func.id}({keyword}=...)"
                    )
    assert unknown == []
    assert "README block 0" in checked and len(checked) > 1  # and a demo


@functools.cache
def _run(demo: str) -> subprocess.CompletedProcess:
    """``demo`` run once per session, on the package under ``src``."""
    return subprocess.run(
        [sys.executable, str(_DEMOS / demo)],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
    )


@pytest.mark.parametrize("demo", sorted(p.name for p in _DEMOS.glob("*.py")))
def test_every_demo_runs(demo):
    done = _run(demo)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


# README's input rules are doctest examples, each refusal's expected
# output its exact message; at least this many must run, so that an
# example lost to a malformed block cannot pass unnoticed
_README_EXAMPLES = 28


def test_every_readme_example_gives_its_stated_output():
    # exact messages: no ELLIPSIS or IGNORE_EXCEPTION_DETAIL
    result = doctest.testfile(
        str(_README), module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE,
    )
    assert result.failed == 0
    assert result.attempted >= _README_EXAMPLES


def test_readme_quotes_the_paper_table_as_the_demo_prints_it():
    done = _run("paper_table.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() in (_ROOT / "README.md").read_text()


# README shows this many fusionval commands; a block lost to a
# malformed fence cannot pass unnoticed
_README_COMMANDS = 6


def test_every_readme_command_parses():
    readme = _README.read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```$", readme, re.M | re.S)
    # a backslash continues a command on the next line
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [
        shlex.split(line) for line in lines if line.startswith("fusionval ")
    ]
    refused = []
    for argv in commands:
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit:  # argparse's refusal, printed on stderr
            refused.append(shlex.join(argv))
    assert refused == []
    assert len(commands) >= _README_COMMANDS
