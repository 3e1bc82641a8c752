"""The package names that the benchmark in ``bench/`` relies on.

``bench/tracing.py`` wraps each function named in ``LAYER_FUNCTIONS``,
looked up with ``getattr``, and ``bench/workloads.py`` reads the rows of
``FsvResult.iteration_metrics`` by attribute, under the names that
``metric_row`` in ``bench/reference.py`` returns. A package change that
drops one of these names breaks ``bench/run.py --trace 1`` or the
benchmark's reference check. These tests load the two benchmark modules
by path, without changing them, and check the names.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from fusionval.data import generate_dataset
from fusionval.fsv import FsvConfig, fsv_run
from fusionval.metrics import METRIC_FIELDS
from fusionval.rng import derive_stream

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"_bench_{name}", BENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while it runs; and leave no
    # bytecode cache in the benchmark's directory
    sys.modules[spec.name] = module
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
        del sys.modules[spec.name]
    return module


def test_every_traced_layer_resolves():
    tracing = _load_bench_module("tracing")
    for qualified in tracing.LAYER_FUNCTIONS:
        module_name, fn_name = qualified.split(".")
        module = importlib.import_module(f"fusionval.{module_name}")
        assert callable(getattr(module, fn_name, None)), qualified


def test_fsv_rows_carry_the_fields_the_reference_check_reads():
    reference = _load_bench_module("reference")
    probe = reference.PassResult(
        mean=0.0,
        var=1.0,
        holdout_mse=1.0,
        fold_losses=(1.0,),
        train_means=(0.0,),
        train_vars=(1.0,),
    )
    read = tuple(reference.metric_row(probe, 0.0, 1.0))
    assert read == METRIC_FIELDS
    data = generate_dataset(200, 0.0, 1.0, derive_stream(3, 0, 0))
    result = fsv_run(data, FsvConfig(3), derive_stream(3, 1, 0))
    for row, values in zip(result.iteration_metrics, result.metrics):
        assert [getattr(row, name) for name in read] == values.tolist()
