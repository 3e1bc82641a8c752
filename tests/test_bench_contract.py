"""The package names and values that the benchmark in ``bench/`` relies on.

``bench/tracing.py`` wraps each function named in ``LAYER_FUNCTIONS``,
looked up with ``getattr``, and ``bench/workloads.py`` reads the rows of
``FsvResult.iteration_metrics`` by attribute, under the names that
``metric_row`` in ``bench/reference.py`` returns. A package change that
drops one of these names breaks ``bench/run.py --trace 1`` or the
benchmark's reference check. The benchmark also recomputes some study
trials and ``fsv_run`` calls with ``bench/reference.py``, apart from the
package's kernels, and fails a run whose values differ from them; the
last two tests run those same comparisons on a few trials and calls.
These tests load the benchmark modules by path, without changing them.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

from fusionval import harness
from fusionval.data import generate_dataset
from fusionval.fsv import FsvConfig, fsv_run
from fusionval.metrics import METRIC_FIELDS
from fusionval.rng import Purpose, derive_stream

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


def _assert_agrees(compare, what):
    check = compare.check(what)
    assert check.ok, check.detail


def test_study_trials_agree_with_the_benchmark_reference():
    reference = _load_bench_module("reference")
    config = harness.ExperimentConfig(
        sizes=(2000, 10_000), trials=(3,), repetitions=3
    )
    saved = config.to_dict()
    compare = reference.Comparison(
        abs(config.mu) + 10 * math.sqrt(config.sigma2)
    )
    for n, t in harness._grid(config):
        for trial in range(t):
            table, raw_loss = harness._run_trial(config, n, t, trial)
            want = reference.reference_grid_trial(saved, n, t, trial)
            where = f"(n={n}, t={t}, trial={trial})"
            for method, row in zip(("SRS", "KFCV", "FSV"), table.tolist()):
                for metric, got in zip(METRIC_FIELDS, row):
                    compare.add(
                        f"{where} {method}.{metric}", got, want[method][metric]
                    )
            compare.add(
                f"{where} fsv_iteration_loss", raw_loss,
                want["fsv_iteration_loss"],
            )
    assert compare.count == 6 * (3 * 6 + 1)
    _assert_agrees(compare, "6 trials")


def test_fsv_runs_agree_with_the_benchmark_reference():
    # the fsv-replicates workload's dataset and check, on two calls
    reference = _load_bench_module("reference")
    n, mu, sigma2, k, alpha = 2000, 1e9, 1.0, 5, 0.95
    data = generate_dataset(
        n, mu, sigma2, derive_stream(1, 0, Purpose.FSV_DATA)
    )
    config = FsvConfig(iterations=10, alpha=alpha, k=k)
    compare = reference.Comparison(abs(mu) + 10 * math.sqrt(sigma2))
    for key in (1, 2):
        stream = derive_stream(1, key, Purpose.FSV_SAMPLE)
        result = fsv_run(data, config, stream)
        g = stream.clone().generator
        losses = []
        for it, row in enumerate(result.iteration_metrics):
            p = reference.reference_pass(
                data.values, k, config.fraction_range, g, g, g
            )
            losses.append(math.fsum(p.fold_losses) / k)
            where = f"stream {key} iteration {it}"
            compare.add(
                f"{where} loss", float(result.iteration_losses[it]), losses[-1]
            )
            for field, v in reference.metric_row(p, mu, sigma2).items():
                compare.add(f"{where} {field}", getattr(row, field), alpha * v)
        compare.add(
            f"stream {key} compounded", result.compounded_measure,
            alpha * math.fsum(losses) / len(losses),
        )
    assert compare.count == 2 * (10 * 7 + 1)
    _assert_agrees(compare, "2 fsv_run calls")
