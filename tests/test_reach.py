"""``tools/reach.py``, the map of which functions each user entry point
enters, run here on two tiny entry points, in this process."""

import importlib.util
import os
import sys
from pathlib import Path

from fusionval import cli, fsv
from fusionval.fsv import compound_measure
from fusionval.theory import chebyshev_tail

_PATH = Path(__file__).resolve().parents[1] / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_credits_each_function_to_the_entries_that_enter_it():
    entered = reach.reach([
        ("compound", lambda: compound_measure([1.0, 3.0], 1.0)),
        ("tail", lambda: chebyshev_tail(2.0)),
    ])
    assert entered["fsv.compound_measure"] == ("compound",)
    assert entered["errors._alpha"] == ("compound",)
    assert entered["theory.chebyshev_tail"] == ("tail",)
    assert entered["estimator.fit"] == ()
    # every function of the package is listed, entered or not
    assert set(entered) == set(reach.functions().values())


def _name_of(function) -> str:
    """The name the AST walk gives ``function``, from its code object
    as the profile hook sees it."""
    code = function.__code__
    file = os.path.realpath(code.co_filename)
    return reach.functions()[(file, code.co_firstlineno, code.co_name)]


def test_names_nested_and_decorated_functions_by_their_path():
    # cli._int_list is the parser that _list_of builds
    assert _name_of(cli._int_list) == "cli._list_of.parse"
    # a property's code starts at its decorator's line
    prop = fsv.FsvResult.compounded_measure.fget
    assert _name_of(prop) == "fsv.FsvResult.compounded_measure"


def test_restores_the_profile_function_set_before():
    def before(frame, event, arg):
        pass

    sys.setprofile(before)
    try:
        reach.reach([("tail", lambda: chebyshev_tail(2.0))])
        assert sys.getprofile() is before
    finally:
        sys.setprofile(None)
