"""The demos' imports from the package resolve, and their calls fit.

Each ``demos/*.py`` is parsed with ``ast``, and every name it takes by
``from fusionval... import`` must exist in that module. Every call of
such a name may pass only keywords that are parameters of the callable's
``inspect.signature``. No demo is run: a removed or renamed export or
keyword fails here rather than in a reader's shell.
"""

import ast
import importlib
import inspect
from pathlib import Path

_DEMOS = Path(__file__).resolve().parents[1] / "demos"


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
