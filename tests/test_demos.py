"""The demos' imports from the package resolve.

Each ``demos/*.py`` is parsed with ``ast``, and every name it takes by
``from fusionval... import`` must exist in that module. No demo is run:
a removed or renamed export fails here rather than in a reader's shell.
"""

import ast
import importlib
from pathlib import Path

_DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_every_demo_import_from_the_package_resolves():
    imported, missing = 0, []
    for path in sorted(_DEMOS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.module.split(".")[0] != "fusionval":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported += 1
                if not hasattr(module, alias.name):
                    missing.append(f"{path.name}: {node.module}.{alias.name}")
    assert missing == []
    assert imported > 0
