"""The demos run, their imports from the package resolve, and their
calls fit.

Each ``demos/*.py`` runs in a subprocess, on this checkout's package,
and must exit 0 within a timeout. It is also parsed with ``ast``, and
every name it takes by ``from fusionval... import`` must exist in that
module. Every call of such a name may pass only keywords that are
parameters of the callable's ``inspect.signature``. A removed or
renamed export or keyword, or a demo that no longer runs, fails here
rather than in a reader's shell. README quotes ``paper_table.py``'s
output, and must quote it as the demo prints it.
"""

import ast
import functools
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_DEMOS = _ROOT / "demos"


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
    imported, missing = 0, []
    for path in sorted(_DEMOS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module, name, _ in _package_imports(tree):
            imported += 1
            if not hasattr(importlib.import_module(module), name):
                missing.append(f"{path.name}: {module}.{name}")
    assert missing == []
    assert imported > 0


def test_every_demo_keyword_is_a_parameter_of_its_callable():
    checked, unknown = 0, []
    for path in sorted(_DEMOS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
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
                checked += 1
                if keyword not in accepted and not takes_any:
                    unknown.append(
                        f"{path.name}:{node.lineno}: "
                        f"{node.func.id}({keyword}=...)"
                    )
    assert unknown == []
    assert checked > 0


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


def test_readme_quotes_the_paper_table_as_the_demo_prints_it():
    done = _run("paper_table.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() in (_ROOT / "README.md").read_text()
