"""Which functions of the package each user entry point enters.

Runs a fixed list of entry points at small sizes, each under a
``sys.setprofile`` hook that records call events, and prints one line
per function defined in ``src/fusionval``: its name as
``module.qualname``, then the entry points that enter it, or ``-`` if
none does. Standard library only; the package is imported from the
``src/`` beside this file, and the outputs go to a temporary directory.

Run from any directory, with no arguments::

    python tools/reach.py

It takes about 10 s on a 2-core machine.

The entry points, in order: the import of the package and its command
line module; ``run`` as markdown, CSV and JSON at ``--jobs 1``, from a
config file, and at the default jobs; ``cell``; ``theory``;
``selftest``; a load of the written ``report.json``; one refused
``cell``, ``theory`` and load each; and every ``demos/*.py``. A function
run only by a forked pool worker counts as not entered by ``run-pool``:
the hook does not follow the workers.

Functions are keyed by (file, first line, name), as a code object
states them, and named by an :mod:`ast` walk, so that a nested function
reads ``harness._first_difference.leaves``. A decorated function's
first line is its first decorator's.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "fusionval"


def functions() -> dict[tuple, str]:
    """Every function defined in the package's modules, as
    ``(real path, first line, name)`` -> ``module.qualname``, in
    source order."""
    names = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        file = os.path.realpath(path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = child.lineno
                    if child.decorator_list:
                        first = child.decorator_list[0].lineno
                    name = f"{prefix}.{child.name}"
                    names[(file, first, child.name)] = name
                    visit(child, name)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return names


def reach(entries) -> dict[str, tuple[str, ...]]:
    """Run each ``(label, callable)`` of ``entries`` in turn under a
    profile hook, and map every function of :func:`functions` to the
    labels of the entries that called it. The profile function set
    before is restored after each entry, also when one raises."""
    names = functions()
    entered = {name: [] for name in names.values()}
    previous = sys.getprofile()
    for label, entry in entries:
        calls = set()

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                calls.add(
                    (code.co_filename, code.co_firstlineno, code.co_name)
                )

        sys.setprofile(hook)
        try:
            entry()
        finally:
            sys.setprofile(previous)
        for file, line, name in calls:
            key = (os.path.realpath(file), line, name)
            if key in names:
                entered[names[key]].append(label)
    return {name: tuple(labels) for name, labels in entered.items()}


def _import() -> None:
    import fusionval.cli  # the package first, then its command line


def _cli(*argv: str, status: int = 0):
    """An entry that runs ``fusionval argv`` in this process and
    requires its exit status."""

    def run() -> None:
        from fusionval.cli import main

        got = main(list(argv))
        if got != status:
            raise RuntimeError(f"fusionval {' '.join(argv)} exited {got}")

    return run


def _load(report: Path, t=None):
    """An entry that loads ``report``; given ``t``, one that stores it as
    the first cell's t and requires the load to be refused."""

    def run() -> None:
        from fusionval.errors import ValidationError
        from fusionval.harness import report_from_dict

        d = json.loads(report.read_text())
        if t is None:
            report_from_dict(d)
            return
        d["cells"][0]["t"] = t
        try:
            report_from_dict(d)
        except ValidationError:
            return
        raise RuntimeError(f"a report with t = {t!r} loaded")

    return run


def _demo(path: Path):
    """An entry that runs ``path`` as a script with no arguments."""

    def run() -> None:
        argv = sys.argv
        sys.argv = [str(path)]
        try:
            runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = argv

    return run


def _entries(tmp: Path) -> list[tuple[str, object]]:
    """The user entry points, writing only under ``tmp``."""
    config = tmp / "study.cfg"
    config.write_text(
        "sizes = 200,300\ntrials = 2,3\njobs = 1\n"
        "shared_streams = true\nlambdas = 1,1,1,1,1\n"
    )
    grid = ("--sizes", "200,300", "--trials", "2,3")
    serial = (*grid, "--jobs", "1")
    report = tmp / "json" / "report.json"
    theory = ("theory", "--n", "7500", "--population", "10000")
    entries = [
        ("import", _import),
        ("run-md", _cli("run", *serial)),
        ("run-csv", _cli(
            "run", *serial, "--format", "csv", "--out", str(tmp / "csv")
        )),
        ("run-json", _cli(
            "run", *serial, "--format", "json", "--out", str(report.parent)
        )),
        ("run-config", _cli(
            "run", "--config", str(config), "--shared-streams", "false"
        )),
        ("run-pool", _cli("run", *grid)),
        ("cell", _cli("cell", "--n", "300", "--t", "2", "--jobs", "1")),
        ("theory", _cli(*theory, "--fold-vars", "0.0013,0.0013")),
        ("selftest", _cli("selftest")),
        ("load", _load(report)),
        ("refuse-cell", _cli(
            "cell", "--n", "3", "--t", "2", "--jobs", "1", status=2
        )),
        ("refuse-theory", _cli(
            "theory", "--n", "20", "--population", "10", status=2
        )),
        ("refuse-load", _load(report, t=True)),
    ]
    for path in sorted((_ROOT / "demos").glob("*.py")):
        entries.append((f"demos/{path.name}", _demo(path)))
    return entries


def main(argv: list[str]) -> int:
    if argv:
        print("usage: python tools/reach.py (no arguments)", file=sys.stderr)
        return 2
    # the package is imported by the first entry, from this checkout,
    # and leaves no __pycache__ in it
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(_ROOT / "src"))
    printed = io.StringIO()  # the entry points' own output, discarded
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(printed), \
            contextlib.redirect_stderr(printed):
        entered = reach(_entries(Path(tmp)))
    width = max(map(len, entered))
    for name, labels in entered.items():
        print(f"{name:<{width}}  {' '.join(labels) or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
