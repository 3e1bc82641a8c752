"""The package's export lists: every name resolves, none repeats.

A stale entry in an ``__all__`` breaks ``from fusionval import *`` and
any tool that imports the package by its export lists.
"""

import importlib
import pkgutil
from collections import Counter

import pytest

import fusionval

_MODULES = ["fusionval"] + [
    f"fusionval.{module.name}"
    for module in pkgutil.iter_modules(fusionval.__path__)
]


@pytest.mark.parametrize("name", _MODULES)
def test_export_list_resolves_and_names_each_once(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", ())
    assert [e for e in exports if not hasattr(module, e)] == []
    assert [e for e, n in Counter(exports).items() if n > 1] == []
