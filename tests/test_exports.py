"""The package's export lists: every name resolves, none repeats, and
the package's own list is the union of its modules' lists.

A stale entry in an ``__all__`` breaks ``from fusionval import *`` and
any tool that imports the package by its export lists.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

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


# the package's modules, in the order their lists make up its own
_LISTED = [
    "errors", "rng", "data", "sampling", "estimator", "kfold", "fsv",
    "theory", "metrics", "harness",
]

# every name the package exported while it still wrote its list by hand,
# but emit_plotdata, removed on purpose: emit_csv now writes the FSV
# iteration losses, the one thing its per-cell files held beyond
# trials.csv
_EARLIER_EXPORTS = [
    "__version__", "ValidationError", "Purpose", "RngStream",
    "derive_stream", "standard_normal", "Dataset", "generate_dataset",
    "FRACTION_RANGE", "SampleView", "srs_sample", "holdout_values",
    "inclusion_moments", "draw_partition_fraction", "ModelParams", "fit",
    "loss", "FoldPlan", "LambdaWeights", "KfcvEstimate", "make_folds",
    "kfold_losses", "empirical_kfold_loss", "weighted_kfold_loss",
    "repeated_kfcv", "DEFAULT_ALPHA", "FsvConfig", "FsvResult",
    "SampledTrial", "sampled_kfold_trial", "compound_measure", "fsv_run",
    "VarianceBudget", "TailBound", "srs_variance_component",
    "kfcv_variance_component", "hybrid_variance", "chebyshev_tail",
    "chebyshev_threshold", "hoeffding_tail", "Method", "TrialMetrics",
    "trial_metrics", "summarize", "ExperimentConfig", "ExperimentReport",
    "CellResult", "run_experiment", "emit_markdown_table", "emit_csv",
    "emit_json",
]


def test_package_exports_the_union_of_its_module_lists():
    modules = [importlib.import_module(f"fusionval.{m}") for m in _LISTED]
    want = ["__version__"] + [e for m in modules for e in m.__all__]
    assert fusionval.__all__ == want
    for module in modules:
        for e in module.__all__:
            assert getattr(fusionval, e) is getattr(module, e)
    starred: dict = {}
    exec("from fusionval import *", starred)
    assert sorted(set(starred) - {"__builtins__"}) == sorted(want)


def test_every_earlier_export_still_resolves():
    assert len(_EARLIER_EXPORTS) == 51
    assert [e for e in _EARLIER_EXPORTS if e not in fusionval.__all__] == []
    assert [e for e in _EARLIER_EXPORTS if not hasattr(fusionval, e)] == []


def test_import_loads_no_heavy_or_command_line_module():
    # the package's set-up time is mostly this import: it must not load
    # the test-only scipy, the process pool or the command line
    banned = [
        "scipy", "concurrent.futures", "multiprocessing", "argparse",
        "fusionval.cli", "fusionval.selftest",
    ]
    script = (
        "import sys\n"
        "import fusionval\n"
        f"print([m for m in {banned!r} if m in sys.modules])\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines() == ["[]"]
