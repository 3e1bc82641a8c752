import concurrent.futures
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionval import harness
from fusionval.errors import _SUM_LIMIT, ValidationError
from fusionval.harness import (
    DEFAULT_SIZES,
    DEFAULT_TRIALS,
    CellResult,
    ExperimentConfig,
    ExperimentReport,
    emit_csv,
    emit_json,
    emit_markdown_table,
    report_from_dict,
    report_to_dict,
    run_experiment,
)
from fusionval.data import generate_dataset
from fusionval.fsv import FsvConfig, compound_measure, sampled_kfold_trial
from fusionval.metrics import METRIC_FIELDS, metric_table, summarize
from fusionval.rng import Purpose, derive_stream

_SMALL = ExperimentConfig(sizes=(100,), trials=(2, 3), k=2, repetitions=2)


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(_SMALL, jobs=1)


_run_trial = harness._run_trial


def _fail_trial_one(config, n, t_total, trial):
    if trial == 1:
        raise ValueError("injected failure")
    return _run_trial(config, n, t_total, trial)


_FLOAT_MAX = float(np.finfo(np.float64).max)


def _beyond(edge):
    """The next float past ``edge``, away from zero."""
    return float(np.nextafter(edge, np.copysign(np.inf, edge)))


def _payload_without_timing(report):
    d = report_to_dict(report)
    d.pop("wall_time_s")
    return d


class TestExperimentConfig:
    def test_defaults_match_reference_protocol(self):
        config = ExperimentConfig()
        assert config.sizes == DEFAULT_SIZES == (10_000, 50_000, 100_000)
        assert config.trials == DEFAULT_TRIALS == (10, 50, 100)
        assert config.k == 5
        assert config.repetitions == 10
        assert config.alpha == 0.95
        assert config.seed == 42
        assert config.fraction_range == (0.60, 0.90)
        assert not config.shared_streams

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=1),
            dict(alpha=0.0),
            dict(alpha=1.2),
            dict(trials=(0,)),
            dict(sizes=()),
            dict(sizes=(5,)),
            dict(lambdas=(1.0, 1.0)),
            dict(seed=-1),
            dict(fraction_range=(0.9, 0.6)),
            dict(sigma2=0.0),
            dict(repetitions=0),
            # round(0.6 * 5) = 3 points in 2 folds trains on 1 point
            dict(sizes=(5,), k=2),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu=float("nan")),
            dict(mu=float("inf")),
            dict(sigma2=float("inf")),
            dict(sigma2=float("nan")),
            dict(alpha=float("nan")),
            dict(k=2, lambdas=(1.0, float("nan"))),
            dict(k=2, lambdas=(float("inf"), 1.0)),
            dict(k=2, lambdas=(2.5, -0.5)),
            dict(k=2, lambdas=(1.0, 1.5)),
            dict(sizes="abc"),
            dict(k="5"),
            dict(seed=None),
            dict(k=5.5),
            dict(fraction_range=[0.6]),
            dict(trials=[1.7]),
            dict(shared_streams="no"),
            dict(alpha="0.9"),
            # n * sigma2 above float max / 4096: a dataset's centred sum
            # of squares could overflow
            dict(sizes=(10_000,), trials=(2,), sigma2=1e305),
        ],
    )
    def test_rejection_names_the_field(self, kwargs):
        # the field at fault is the last one given
        field_name = list(kwargs)[-1]
        with pytest.raises(ValidationError, match=f"^{field_name} "):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "field_name, values, repeated",
        [
            ("sizes", (100, 200, 100), 100),
            ("sizes", (100, 100.0), 100),
            ("trials", (2, 3, 3), 3),
        ],
    )
    def test_rejects_repeated_grid_entries(self, field_name, values, repeated):
        message = (
            f"{field_name} must not repeat an entry, "
            f"got {repeated} more than once"
        )
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ExperimentConfig(**{field_name: values})

    def test_low_alpha_warns_as_fsv_config_does(self):
        with pytest.warns(UserWarning) as study:
            ExperimentConfig(alpha=0.5)
        with pytest.warns(UserWarning) as fsv:
            FsvConfig(1, alpha=0.5)
        assert [
            (w.category, str(w.message), w.filename) for w in study
        ] == [(w.category, str(w.message), w.filename) for w in fsv]

    def test_integral_values_become_ints(self):
        config = ExperimentConfig(sizes=[100.0], trials=(2,), k=2.0)
        assert config.sizes == (100,) and config.k == 2
        assert type(config.k) is int

    def test_weights_are_built_once(self):
        config = ExperimentConfig(k=2, lambdas=(1.5, 0.5))
        assert config.weights() is config.weights()

    def test_uniform_weights_by_default(self):
        weights = ExperimentConfig(k=4).weights()
        assert list(weights.lambdas) == [1.0, 1.0, 1.0, 1.0]

    def test_explicit_lambdas_must_match_k(self):
        config = ExperimentConfig(k=2, lambdas=(1.5, 0.5))
        assert list(config.weights().lambdas) == [1.5, 0.5]

    def test_dict_round_trip(self):
        config = ExperimentConfig(
            sizes=(100, 200), trials=(2,), k=2, lambdas=(1.5, 0.5), seed=7
        )
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_hash_is_stable_and_discriminating(self):
        a = ExperimentConfig()
        assert a.config_hash() == ExperimentConfig().config_hash()
        assert a.config_hash() != ExperimentConfig(seed=43).config_hash()
        assert len(a.config_hash()) == 16

    @pytest.mark.parametrize(
        "given, twin",
        [
            ({"mu": 0}, {"mu": 0.0}),
            ({"mu": -3, "sigma2": 2}, {"mu": -3.0, "sigma2": 2.0}),
            ({"alpha": 1}, {"alpha": 1.0}),
            (
                {"fraction_range": (Fraction(3, 5), Fraction(9, 10))},
                {"fraction_range": (0.6, 0.9)},
            ),
        ],
        ids=["mu", "mu-sigma2", "alpha", "fraction_range"],
    )
    def test_reals_are_stored_as_floats(self, given, twin):
        config = ExperimentConfig(**given)
        assert config.config_hash() == ExperimentConfig(**twin).config_hash()
        reals = (config.mu, config.sigma2, config.alpha)
        assert all(type(v) is float for v in (*reals, *config.fraction_range))

    def test_default_hash_is_pinned(self):
        assert ExperimentConfig().config_hash() == "ecbafb33efb2d578"

    @staticmethod
    def _assert_runs_finite(config, tmp_path):
        """``config``'s study at jobs=1 has every trial value, summary and
        L* finite, and its JSON holds no Infinity or NaN."""
        report = run_experiment(config, jobs=1)

        def refuse(constant):
            raise AssertionError(f"emit_json wrote {constant}")

        # RFC 8259 JSON: no Infinity or NaN anywhere in the report
        json.loads(
            emit_json(report, tmp_path / "r.json").read_text(),
            parse_constant=refuse,
        )
        for cell in report.cells:
            assert all(np.isfinite(t).all() for t in cell.trials.values())
            assert all(
                np.isfinite(aggregate).all()
                for summary in cell.summaries.values()
                for aggregate in summary.values()
            )
            lstar = compound_measure(cell.fsv_iteration_losses, config.alpha)
            assert np.isfinite(lstar)

    @pytest.mark.parametrize(
        "kwargs, field_name",
        [
            # n * sigma2 at most float max / 4096 keeps every dataset
            # the study draws summable (errors._summable)
            (dict(sizes=(10_000,), trials=(2,)), "sigma2"),
        ],
    )
    def test_the_sum_bound_holds_on_both_sides_of_its_edge(
        self, kwargs, field_name, tmp_path
    ):
        edge = _SUM_LIMIT / max(kwargs["sizes"])
        with pytest.raises(ValidationError, match=f"^{field_name} "):
            ExperimentConfig(**kwargs, **{field_name: _beyond(edge)})
        self._assert_runs_finite(
            ExperimentConfig(**kwargs, **{field_name: edge}), tmp_path
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            # every average is errors._mean's, which cannot overflow on
            # finite entries, so mu need only be finite and sigma2 is
            # bounded by max(sizes) alone, not by t or repetitions * k
            dict(sizes=(100,), trials=(2,), mu=4e306),
            dict(sizes=(100,), trials=(200,), mu=1e306),
            dict(sizes=(100,), trials=(2,), mu=_beyond(_SUM_LIMIT / 50)),
            dict(sizes=(100,), trials=(2,), mu=_beyond(-_SUM_LIMIT / 50)),
            dict(sizes=(100,), trials=(200,), mu=_beyond(_SUM_LIMIT / 200)),
            dict(
                sizes=(100,), trials=(200,), sigma2=_beyond(_SUM_LIMIT / 200)
            ),
            dict(sizes=(100,), trials=(2,), mu=_FLOAT_MAX),
            dict(sizes=(100,), trials=(2,), mu=-_FLOAT_MAX),
            dict(sizes=(100,), trials=(200,), sigma2=_SUM_LIMIT / 100),
        ],
        ids=[
            "mu-4e306", "mu-1e306-200-trials", "mu-past-50-terms",
            "minus-mu-past-50-terms", "mu-past-200-trials",
            "sigma2-past-200-trials", "mu-float-max", "minus-mu-float-max",
            "sigma2-edge-200-trials",
        ],
    )
    def test_accepted_studies_run_finite(self, kwargs, tmp_path):
        self._assert_runs_finite(ExperimentConfig(**kwargs), tmp_path)


class TestRunExperiment:
    def test_smoke_shapes(self, small_report):
        assert len(small_report.cells) == 2
        cell = small_report.cell(100, 3)
        assert set(cell.trials) == {"SRS", "KFCV", "FSV"}
        assert all(
            table.shape == (3, len(METRIC_FIELDS))
            for table in cell.trials.values()
        )
        assert cell.fsv_iteration_losses.shape == (3,)
        assert small_report.config_hash == _SMALL.config_hash()
        assert small_report.wall_time_s > 0

    def test_missing_cell_lookup_raises(self, small_report):
        with pytest.raises(ValidationError):
            small_report.cell(100, 99)

    def test_replay_is_deterministic(self, small_report):
        again = run_experiment(_SMALL, jobs=1)
        assert _payload_without_timing(again) == _payload_without_timing(
            small_report
        )

    def test_worker_count_does_not_change_results(self, small_report):
        pooled = run_experiment(_SMALL, jobs=2)
        assert _payload_without_timing(pooled) == _payload_without_timing(
            small_report
        )

    def test_default_jobs_are_the_usable_cores(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 3}, raising=False
        )
        assert harness._usable_cores() == 2
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert harness._usable_cores() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert harness._usable_cores() == 1

    def test_one_usable_core_runs_inline(self, monkeypatch, small_report):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert _payload_without_timing(
            run_experiment(_SMALL)
        ) == _payload_without_timing(small_report)

    @pytest.mark.parametrize(
        "jobs", [3, 5, 5000, 10**400], ids=["3", "5", "5000", "10**400"]
    )
    def test_the_pool_starts_no_more_workers_than_trials(
        self, monkeypatch, small_report, jobs
    ):
        # a stand-in pool that records its size and runs the tasks
        # inline, so no worker is ever started
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", InlinePool
        )
        report = run_experiment(_SMALL, jobs=jobs)
        assert sizes == [min(jobs, 5)]  # _SMALL holds 2 + 3 trials
        assert _payload_without_timing(report) == _payload_without_timing(
            small_report
        )

    def test_imports_and_serial_runs_do_not_load_the_pool(self):
        script = (
            "import sys\n"
            "import fusionval, fusionval.cli\n"
            "pool = ('multiprocessing', 'concurrent.futures.process')\n"
            "print([m for m in pool if m in sys.modules])\n"
            "fusionval.run_experiment(fusionval.ExperimentConfig("
            "sizes=(100,), trials=(2,), k=2, repetitions=2), jobs=1)\n"
            "print([m for m in pool if m in sys.modules])\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.splitlines() == ["[]", "[]"]

    def test_rejects_non_positive_jobs(self):
        with pytest.raises(ValidationError):
            run_experiment(_SMALL, jobs=0)

    @pytest.mark.parametrize(
        "jobs", [2.0, 2.5, "2", True], ids=["2.0", "2.5", "str", "bool"]
    )
    def test_jobs_follow_the_integral_rule(self, small_report, jobs):
        if jobs == 2.0:  # integral, so taken as 2
            assert _payload_without_timing(
                run_experiment(_SMALL, jobs=jobs)
            ) == _payload_without_timing(small_report)
            return
        with pytest.raises(ValidationError, match="^jobs "):
            run_experiment(_SMALL, jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_trial_names_its_cell(self, monkeypatch, jobs):
        # pool workers are forked, so they inherit the patched module
        monkeypatch.setattr(harness, "_run_trial", _fail_trial_one)
        config = ExperimentConfig(
            sizes=(100,), trials=(2,), k=2, repetitions=2
        )
        with pytest.raises(
            RuntimeError, match=r"^cell \(n=100, t=2\) trial 1: injected"
        ) as info:
            run_experiment(config, jobs=jobs)
        if jobs == 1:
            assert isinstance(info.value.__cause__, ValueError)

    def test_cells_do_not_depend_on_grid_composition(self):
        lone = run_experiment(
            ExperimentConfig(sizes=(300,), trials=(4,), k=2, repetitions=2),
            jobs=1,
        )
        grid = run_experiment(
            ExperimentConfig(
                sizes=(300, 400), trials=(4, 2), k=2, repetitions=2
            ),
            jobs=1,
        )
        lone_cell = lone.cell(300, 4)
        grid_cell = grid.cell(300, 4)
        for method, table in lone_cell.trials.items():
            assert np.array_equal(table, grid_cell.trials[method])
        # (300, 4) is the first cell of both grids, L* included
        first = [report_to_dict(r)["cells"][0] for r in (lone, grid)]
        assert first[0] == first[1]

    def test_shared_streams_scale_the_primary_rows(self):
        report = run_experiment(
            ExperimentConfig(
                sizes=(400,),
                trials=(5,),
                k=2,
                repetitions=2,
                shared_streams=True,
            ),
            jobs=1,
        )
        cell = report.cell(400, 5)
        assert np.array_equal(cell.trials["FSV"], 0.95 * cell.trials["SRS"])

    def test_trial_table_scales_the_fsv_pass_by_alpha(self):
        with pytest.warns(UserWarning, match="far below 1"):
            config = ExperimentConfig(
                sizes=(100,), trials=(2,), k=2, repetitions=2, alpha=0.5
            )
        table, raw_loss = harness._run_trial(config, 100, 2, 1)
        key = harness._trial_key(100, 2, 1)

        def stream(purpose):
            return derive_stream(config.seed, key, purpose)

        data = generate_dataset(
            100, config.mu, config.sigma2, stream(Purpose.FSV_DATA)
        )
        fsv = sampled_kfold_trial(
            data,
            2,
            stream(Purpose.FSV_SAMPLE),
            folds_stream=stream(Purpose.FSV_FOLDS),
            fraction_stream=stream(Purpose.FSV_FRACTION),
        )
        raw = metric_table(
            fsv.sample_mean, fsv.sample_var, fsv.holdout_mse,
            config.mu, config.sigma2, fsv.fold_losses[0],
        )
        assert table.shape == (3, len(METRIC_FIELDS))
        assert np.array_equal(table[2], 0.5 * raw[0])
        assert raw_loss == fsv.mean_fold_loss


def _cell_inputs(cell):
    return dict(
        n=cell.n,
        table=cell.table,
        fsv_iteration_losses=cell.fsv_iteration_losses,
    )


class TestResultConstructors:
    def test_cell_derives_t_summaries_and_compounded(self, small_report):
        cell = small_report.cell(100, 3)
        rebuilt = CellResult(**_cell_inputs(cell))
        assert rebuilt.t == 3
        assert list(rebuilt.trials) == ["SRS", "KFCV", "FSV"]
        assert rebuilt.summaries == {
            m: summarize(table) for m, table in cell.trials.items()
        }
        # L* is the report's: the cell's losses with the config's alpha
        stored = report_to_dict(small_report)["cells"][1]["fsv_compounded"]
        assert stored == compound_measure(cell.fsv_iteration_losses, 0.95)
        assert not cell.table.flags.writeable
        assert not cell.fsv_iteration_losses.flags.writeable
        for i, table in enumerate(cell.trials.values()):
            assert np.shares_memory(table, cell.table)
            assert not table.flags.writeable
            assert np.array_equal(table, cell.table[:, i])
        assert not hasattr(cell, "alpha")
        assert not hasattr(cell, "fsv_compounded")
        # derived values and alpha are not constructor arguments
        with pytest.raises(TypeError):
            CellResult(
                n=1, t=5, table=np.zeros((0, 3, 6)), trials={},
                summaries={}, fsv_iteration_losses=np.zeros(0),
            )
        with pytest.raises(TypeError):
            CellResult(**_cell_inputs(cell), alpha=0.95)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (
                lambda d: d.update(table=d["table"][:, :2]),
                r" table must be a \(trials x 3 x 6\) table of reals of "
                r"length 3, got float64 of shape \(3, 2, 6\)$",
            ),
            (
                lambda d: d.update(table=np.zeros((2, 3, 6))),
                r" table must be a \(trials x 3 x 6\) table of reals of "
                r"length 3, got float64 of shape \(2, 3, 6\)$",
            ),
            (lambda d: d.update(n=100.5), r" n must be an integer"),
            (lambda d: d.update(n=0), r" n must be >= 1, got 0$"),
            (lambda d: d.update(n=-5), r" n must be >= 1, got -5$"),
            # a table that is no array: nothing, a method's name, or the
            # method-keyed dict a cell once took
            (
                lambda d: d.update(
                    n=20, table=None, fsv_iteration_losses=[1.0]
                ),
                r" table must be a \(trials x 3 x 6\) table of reals of "
                r"length 1, got object of shape \(\)$",
            ),
            (
                lambda d: d.update(
                    n=20, table="SRS", fsv_iteration_losses=[1.0]
                ),
                r" table must be a \(trials x 3 x 6\) table of reals of "
                r"length 1, got <U3 of shape \(\)$",
            ),
            (
                lambda d: d.update(
                    n=20,
                    table={m: np.zeros((1, 6)) for m in ("SRS", "KFCV", 0)},
                    fsv_iteration_losses=[1.0],
                ),
                r" table must be a \(trials x 3 x 6\) table of reals of "
                r"length 1, got object of shape \(\)$",
            ),
        ],
        ids=[
            "missing-method", "short-table", "n", "n-zero", "n-negative",
            "none-table", "str-table", "method-map",
        ],
    )
    def test_cell_refuses_a_wrong_input(self, small_report, edit, match):
        inputs = _cell_inputs(small_report.cell(100, 3))
        edit(inputs)
        n = re.escape(repr(inputs["n"]))
        t = len(inputs["fsv_iteration_losses"])
        with pytest.raises(
            ValidationError, match=rf"^cell \(n={n}, t={t}\){match}"
        ):
            CellResult(**inputs)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(table=np.zeros((3, 3, 6), dtype=np.float32)),
            lambda d: d.update(table=d["table"].tolist()),
            lambda d: d.update(fsv_iteration_losses=[1.0, 2.0, 3.0]),
        ],
        ids=["float32", "list-table", "list-losses"],
    )
    def test_cell_stores_any_real_array_as_read_only_float64(
        self, small_report, edit
    ):
        inputs = _cell_inputs(small_report.cell(100, 3))
        edit(inputs)
        cell = CellResult(**inputs)
        given = [inputs["fsv_iteration_losses"], inputs["table"]]
        stored = [cell.fsv_iteration_losses, cell.table]
        for array, kept in zip(given, stored):
            assert kept.dtype == np.float64 and not kept.flags.writeable
            assert np.array_equal(kept, array)

    def test_cell_stores_a_float64_array_as_given(self, small_report):
        inputs = _cell_inputs(small_report.cell(100, 3))
        losses = inputs["fsv_iteration_losses"].copy()
        table = inputs["table"].copy()
        cell = CellResult(inputs["n"], table, losses)
        assert cell.fsv_iteration_losses is losses
        assert cell.table is table
        assert not losses.flags.writeable and not table.flags.writeable

    def test_cell_refuses_ragged_losses_by_name(self, small_report):
        inputs = _cell_inputs(small_report.cell(100, 3))
        inputs["fsv_iteration_losses"] = [[1.0], [1.0, 2.0]]
        with pytest.raises(
            ValidationError,
            match=r"^cell \(n=100\) fsv_iteration_losses must be a vector of "
            r"reals of length at least 1, got a ragged sequence$",
        ):
            CellResult(**inputs)

    def test_report_derives_hash_and_version(self, small_report):
        assert small_report.config_hash == _SMALL.config_hash()
        assert small_report.version == harness.REPORT_VERSION
        assert isinstance(small_report.cells, tuple)
        with pytest.raises(TypeError):
            ExperimentReport(_SMALL, small_report.cells, 0.0, config_hash="x")

    @pytest.mark.parametrize(
        "pick, match",
        [
            (
                lambda cells: cells[::-1],
                r"cells\[0\] holds \(n=100, t=3\) where "
                r"the grid has \(n=100, t=2\)",
            ),
            (
                lambda cells: cells[:1],
                r"cells\[1\] holds nothing where the grid has "
                r"\(n=100, t=3\)",
            ),
            (
                lambda cells: cells + cells[:1],
                r"cells\[2\] holds \(n=100, t=2\) where "
                r"the grid has nothing",
            ),
        ],
        ids=["reordered", "dropped", "duplicated"],
    )
    def test_report_cells_must_be_the_config_grid(
        self, small_report, pick, match
    ):
        with pytest.raises(ValidationError, match=rf"^{match}; "):
            ExperimentReport(_SMALL, pick(small_report.cells), 0.0)

    def test_report_compounds_each_cell_with_the_config_alpha(
        self, small_report
    ):
        # a cell keeps no alpha, so the same cells take another config's
        with pytest.warns(UserWarning, match="far below 1"):
            config = dataclasses.replace(_SMALL, alpha=0.5)
        report = ExperimentReport(config, small_report.cells, 0.0)
        block = emit_markdown_table(report, 100)
        stored = report_to_dict(report)["cells"]
        for cell, saved in zip(report.cells, stored, strict=True):
            lstar = compound_measure(cell.fsv_iteration_losses, 0.5)
            assert saved["fsv_compounded"] == lstar
            assert f"L* ({cell.t} trials): {lstar:.4f}\n" in block


_SIX = ExperimentConfig(sizes=(100, 120), trials=(1, 2, 3), k=2, repetitions=1)


@pytest.fixture(scope="module")
def six_cell_report():
    return run_experiment(_SIX, jobs=1)


def _grid_edits(n):
    """Edits of an n-cell report, as (the indices of the cells kept, in
    their new order; the position whose cell gets another n, or None):
    any reordering but the identity, a cell dropped, a cell repeated
    anywhere, or one cell's n changed."""
    every = list(range(n))
    position = st.integers(0, n - 1)
    return st.one_of(
        st.permutations(every).filter(lambda p: p != every).map(
            lambda p: (p, None)
        ),
        position.map(lambda i: (every[:i] + every[i + 1:], None)),
        st.tuples(position, st.integers(0, n)).map(
            lambda jp: (every[:jp[1]] + [jp[0]] + every[jp[1]:], None)
        ),
        position.map(lambda i: (every, i)),
    )


class TestGridRule:
    """The report's cells must be the config's grid, in order: any edit
    is refused at the first index it changes, by the constructor and by
    the loader alike."""

    def test_the_unedited_cells_are_accepted(self, six_cell_report):
        cells = six_cell_report.cells
        assert ExperimentReport(_SIX, cells, 0.0).cells == cells
        loaded = report_from_dict(report_to_dict(six_cell_report))
        assert report_to_dict(loaded) == report_to_dict(six_cell_report)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_an_edit_is_refused_at_its_first_index(
        self, six_cell_report, data
    ):
        cells = six_cell_report.cells
        kept, changed = data.draw(_grid_edits(len(cells)))
        edited = [cells[i] for i in kept]
        if changed is not None:
            n = cells[changed].n + 1  # no size of the grid
            edited[changed] = dataclasses.replace(cells[changed], n=n)
        first = next(
            i for i, (cell, edit) in enumerate(zip_longest(cells, edited))
            if cell is not edit
        )
        with pytest.raises(ValidationError, match=rf"^cells\[{first}\] "):
            ExperimentReport(_SIX, edited, 0.0)
        d = report_to_dict(six_cell_report)
        d["cells"] = [harness._cell_to_dict(c, _SIX.alpha) for c in edited]
        with pytest.raises(ValidationError, match=rf"^cells\[{first}\] "):
            report_from_dict(d)


class TestMarkdownTable:
    def test_block_layout(self, small_report):
        block = emit_markdown_table(small_report, 100)
        lines = block.splitlines()
        assert lines[0] == "### N = 100"
        table_rows = [l for l in lines if l.startswith("|")]
        assert len(table_rows) == 2 + 18
        assert table_rows[0].startswith(
            "| Statistical Metrics | 2 Trials Mean | Min | Max "
            "| 3 Trials Mean | Min | Max |"
        )
        assert block.count("Compounded measure L*") == 2

    def test_row_order_matches_reference_layout(self, small_report):
        rows = [
            l
            for l in emit_markdown_table(small_report, 100).splitlines()
            if l.startswith("|")
        ][2:]
        labels = [r.split("|")[1].strip() for r in rows]
        assert labels == [
            "Mean est. SRS", "Mean est. KF", "Mean est. FSV",
            "Var est. SRS", "Var est. KF", "Var est. FSV",
            "MSE SRS", "MSE KF", "MSE FSV",
            "Bias SRS", "Bias KF", "Bias FSV",
            "ROC Mean est. SRS", "ROC Mean est. KF", "ROC Mean est. FSV",
            "ROC Var est. SRS", "ROC Var est. KF", "ROC Var est. FSV",
        ]

    def test_cells_are_four_decimal(self, small_report):
        rows = [
            l
            for l in emit_markdown_table(small_report, 100).splitlines()
            if l.startswith("|")
        ][2:]
        for row in rows:
            for cell in row.split("|")[2:-1]:
                assert re.fullmatch(r"-?\d+\.\d{4}", cell.strip())

    def test_unknown_size_raises(self, small_report):
        with pytest.raises(ValidationError):
            emit_markdown_table(small_report, 12_345)

    def test_empty_cell_raises(self, small_report):
        # a cell without trials cannot be built, so it never reaches a table
        cell = small_report.cells[0]
        with pytest.raises(
            ValidationError, match=r"^cell \(n=100, t=2\) table"
        ):
            dataclasses.replace(cell, table=[])
        with pytest.raises(
            ValidationError,
            match=r"^cell \(n=100\) fsv_iteration_losses must be a vector of "
            r"reals of length at least 1, got float64 of shape \(0,\)$",
        ):
            CellResult(100, np.zeros((0, 3, 6)), np.zeros(0))


def _csv_rows(path):
    """A CSV file's header and its rows, each a list of strings."""
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return header, rows


class TestCsvEmission:
    def test_headers_and_row_counts(self, small_report, tmp_path):
        trials_path, summary_path, _ = emit_csv(small_report, tmp_path)
        trials_lines = trials_path.read_text().splitlines()
        summary_lines = summary_path.read_text().splitlines()
        assert trials_lines[0] == "N,T,method,metric,trial,value"
        assert summary_lines[0] == "N,T,method,metric,mean,min,max"
        assert len(trials_lines) == 1 + (2 + 3) * 3 * 6
        assert len(summary_lines) == 1 + 2 * 3 * 6

    def test_values_parse_back(self, small_report, tmp_path):
        trials_path, _, _ = emit_csv(small_report, tmp_path)
        first = trials_path.read_text().splitlines()[1].split(",")
        n, t, method, metric, trial, value = first
        row = small_report.cell(int(n), int(t)).trials[method][int(trial)]
        assert float(value) == pytest.approx(
            row[METRIC_FIELDS.index(metric)], rel=1e-9
        )

    def test_iteration_losses_file_holds_each_loss_once(
        self, small_report, tmp_path
    ):
        paths = emit_csv(small_report, tmp_path)
        assert [p.name for p in paths] == [
            "trials.csv", "summary.csv", "fsv_iteration_losses.csv",
        ]
        header, rows = _csv_rows(paths[2])
        assert header == ["N", "T", "trial", "value"]
        # every loss of every cell once, in grid order, at .10g
        assert rows == [
            [str(c.n), str(c.t), str(i), format(v, ".10g")]
            for c in small_report.cells
            for i, v in enumerate(c.fsv_iteration_losses.tolist())
        ]

    def test_trials_and_summary_hold_exactly_the_json_rows(
        self, small_report, tmp_path
    ):
        # the rule bench/workloads.py's csv-matches-json check enforces:
        # the two files hold the JSON report's metric rows and
        # summaries at .10g, no row more or fewer
        trials_path, summary_path, _ = emit_csv(small_report, tmp_path)
        cells = report_to_dict(small_report)["cells"]
        trials = [
            [str(c["n"]), str(c["t"]), method, metric, str(i),
             format(value, ".10g")]
            for c in cells
            for method, rows in c["trials"].items()
            for i, row in enumerate(rows)
            for metric, value in row.items()
        ]
        summaries = [
            [str(c["n"]), str(c["t"]), method, metric,
             *(format(agg[k], ".10g") for k in ("mean", "min", "max"))]
            for c in cells
            for method, stats in c["summaries"].items()
            for metric, agg in stats.items()
        ]
        assert sorted(_csv_rows(trials_path)[1]) == sorted(trials)
        assert sorted(_csv_rows(summary_path)[1]) == sorted(summaries)


class TestJsonRoundTrip:
    def test_file_round_trip(self, small_report, tmp_path):
        path = emit_json(small_report, tmp_path / "report.json")
        loaded = report_from_dict(json.loads(path.read_text()))
        assert report_to_dict(loaded) == report_to_dict(small_report)
        assert loaded.config == small_report.config
        assert loaded.config_hash == small_report.config_hash

    def test_tampered_hash_is_rejected(self, small_report):
        d = report_to_dict(small_report)
        d["config_hash"] = "0" * 16
        with pytest.raises(ValidationError, match="config_hash"):
            report_from_dict(d)

    def test_edited_config_is_rejected(self, small_report):
        d = report_to_dict(small_report)
        d["config"]["alpha"] = 0.9
        with pytest.raises(ValidationError, match="config_hash"):
            report_from_dict(d)

    def test_integer_config_hash_of_an_older_report_is_rejected(
        self, small_report
    ):
        # an earlier version hashed mu=0 as written, not as 0.0
        d = report_to_dict(small_report)
        d["config"]["mu"] = 0
        payload = json.dumps(d["config"], sort_keys=True).encode()
        d["config_hash"] = hashlib.sha256(payload).hexdigest()[:16]
        # its mu, 0, does not dump back as the 0.0 the report keeps
        with pytest.raises(
            ValidationError,
            match=r"^report\['config'\]\['mu'\]: stored 0, but the "
            r"report's inputs give 0\.0$",
        ):
            report_from_dict(d)
        # and with mu written as 0.0, its hash is not the report's
        d["config"]["mu"] = 0.0
        with pytest.raises(
            ValidationError, match=r"^report\['config_hash'\]: stored"
        ):
            report_from_dict(d)

    def test_unknown_config_key_is_named(self, small_report):
        d = report_to_dict(small_report)
        d["config"]["folds"] = 5
        with pytest.raises(ValidationError, match="unknown config keys"):
            report_from_dict(d)
        with pytest.raises(ValidationError, match="folds"):
            ExperimentConfig.from_dict(d["config"])

    def test_missing_config_key_is_named(self, small_report):
        d = report_to_dict(small_report)
        del d["config"]["k"]
        with pytest.raises(ValidationError, match="missing config keys: k"):
            report_from_dict(d)

    def test_tampered_summary_is_rejected(self, small_report):
        d = report_to_dict(small_report)
        d["cells"][1]["summaries"]["KFCV"]["bias"]["mean"] += 1e-12
        path = r"\['cells'\]\[1\]\['summaries'\]\['KFCV'\]\['bias'\]\['mean'\]"
        with pytest.raises(ValidationError, match=rf"^report{path}: stored"):
            report_from_dict(d)

    def test_tampered_fsv_compounded_is_rejected(self, small_report):
        d = report_to_dict(small_report)
        d["cells"][0]["fsv_compounded"] *= 1.5
        with pytest.raises(
            ValidationError,
            match=r"^report\['cells'\]\[0\]\['fsv_compounded'\]: stored",
        ):
            report_from_dict(d)

    def test_missing_metric_key_is_named(self, small_report):
        d = report_to_dict(small_report)
        del d["cells"][0]["trials"]["FSV"][1]["mse"]
        with pytest.raises(
            ValidationError,
            match=r"^report\['cells'\]\[0\]: .*KeyError\('mse'\)",
        ):
            report_from_dict(d)

    @pytest.mark.parametrize("field_name", ["trials", "fsv_iteration_losses"])
    def test_wrong_trial_count_is_rejected(self, small_report, field_name):
        d = report_to_dict(small_report)
        cell = d["cells"][0]
        if field_name == "trials":
            for rows in cell["trials"].values():
                rows.pop()
        else:
            cell["fsv_iteration_losses"].append(1.0)
        # t is the number of iteration losses; the table must match it
        t = len(cell["fsv_iteration_losses"])
        with pytest.raises(
            ValidationError, match=rf"^cell \(n=100, t={t}\) table must be"
        ):
            report_from_dict(d)

    @pytest.mark.parametrize(
        "field_name, path",
        [
            (
                "trials",
                r"cell \(n=100, t=3\) table must be a \(trials x 3 x 6\) ",
            ),
            ("fsv_iteration_losses", r"cell \(n=100\) fsv_iteration_losses "),
        ],
        ids=["trials", "fsv_iteration_losses"],
    )
    def test_a_value_of_one_turned_to_true_is_rejected(
        self, small_report, field_name, path
    ):
        # JSON true equals 1.0, so only the type tells the two apart
        inputs = _cell_inputs(small_report.cell(100, 3))
        table = inputs["table"].copy()
        table[1, 1, 2] = 1.0  # trial 1's KFCV mse
        inputs["table"] = table
        losses = inputs["fsv_iteration_losses"].copy()
        losses[1] = 1.0
        inputs["fsv_iteration_losses"] = losses
        cells = [small_report.cells[0], CellResult(**inputs)]
        d = report_to_dict(ExperimentReport(_SMALL, cells, 0.0))
        assert report_from_dict(d).cells[1].trials["KFCV"][1, 2] == 1.0
        cell = d["cells"][1]
        if field_name == "trials":
            cell["trials"]["KFCV"][1][METRIC_FIELDS[2]] = True
        else:
            cell["fsv_iteration_losses"][1] = True
        with pytest.raises(
            ValidationError, match=rf"^{path}.*, got a bool entry$"
        ):
            report_from_dict(d)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (
                lambda d: d["cells"][0].update(t=True),
                r"report\['cells'\]\[0\]\['t'\]: stored True, but the "
                r"report's inputs give 1$",
            ),
            (
                lambda d: d["cells"][0].update(n=100.0),
                r"report\['cells'\]\[0\]\['n'\]: stored 100\.0, but the "
                r"report's inputs give 100$",
            ),
            (
                lambda d: d["config"].update(seed=42.0),
                r"report\['config'\]\['seed'\]: stored 42\.0, but the "
                r"report's inputs give 42$",
            ),
            (
                lambda d: d["config"].update(k=2.0),
                r"report\['config'\]\['k'\]: stored 2\.0, but the "
                r"report's inputs give 2$",
            ),
        ],
        ids=["t-true", "n-float", "seed-float", "k-float"],
    )
    def test_a_value_python_finds_equal_must_dump_back_the_same(
        self, tmp_path, edit, match
    ):
        # True == 1 == 1.0 in Python, but each dumps to its own JSON text;
        # a cell of one trial, so that its t is 1
        config = dataclasses.replace(_SMALL, trials=(1,))
        report = run_experiment(config, jobs=1)
        path = emit_json(report, tmp_path / "report.json")
        d = json.loads(path.read_text())
        report_from_dict(d)
        edit(d)
        with pytest.raises(ValidationError, match=f"^{match}"):
            report_from_dict(d)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (
                lambda d: d.update(version="9.9"),
                r"report\['version'\]: stored '9\.9', but the report's "
                r"inputs give '0\.1\.0'",
            ),
            (
                lambda d: d.update(notes="x"),
                r"report\['notes'\]: stored 'x', but the report's inputs "
                "give nothing",
            ),
            (
                lambda d: d["cells"][1].update(extra=1),
                r"report\['cells'\]\[1\]\['extra'\]: stored 1,",
            ),
            (
                lambda d: d["cells"][1]["trials"].update(
                    LOO=d["cells"][1]["trials"]["SRS"]
                ),
                r"report\['cells'\]\[1\]\['trials'\]\['LOO'\]\[0\]"
                r"\['mean_est'\]: stored .*, but the report's inputs give "
                r"nothing$",
            ),
            (
                lambda d: d["cells"][1]["trials"].pop("KFCV"),
                r"report\['cells'\]\[1\]: an input is missing or mistyped: "
                r"KeyError\('KFCV'\)$",
            ),
            (
                lambda d: d["cells"][1]["trials"]["FSV"].pop(),
                r"report\['cells'\]\[1\]: an input is missing or mistyped: "
                r"ValueError\('zip\(\) argument 3 is shorter than arguments "
                r"1-2'\)$",
            ),
            (
                lambda d: d["cells"][1]["trials"]["SRS"].append(
                    d["cells"][1]["trials"]["SRS"][0]
                ),
                r"report\['cells'\]\[1\]: an input is missing or mistyped: "
                r"ValueError\('zip\(\) argument 2 is shorter than argument "
                r"1'\)$",
            ),
            (
                lambda d: d["cells"][1].pop("summaries"),
                r"report\['cells'\]\[1\]\['summaries'\]\['SRS'\]"
                r"\['mean_est'\]\['mean'\]: stored nothing,",
            ),
            (
                lambda d: d.pop("wall_time_s"),
                r"report: an input is missing or mistyped: "
                r"KeyError\('wall_time_s'\)",
            ),
            (
                lambda d: d.update(cells=None),
                r"report: an input is missing or mistyped: TypeError",
            ),
            (
                lambda d: d["cells"][1].pop("n"),
                r"report\['cells'\]\[1\]: an input is missing or mistyped: "
                r"KeyError\('n'\)",
            ),
            (
                lambda d: d["cells"][1].update(fsv_iteration_losses="abc"),
                r"cell \(n=100\) fsv_iteration_losses must be a vector of "
                r"reals of length at least 1, got <U3 of shape \(\)",
            ),
            (
                lambda d: d.update(wall_time_s="1 s"),
                r"wall_time_s must be a real number, got '1 s'",
            ),
        ],
        ids=[
            "version",
            "unknown-key",
            "unknown-cell-key",
            "fourth-method",
            "missing-method",
            "short-method",
            "long-method",
            "missing-summaries",
            "missing-wall-time",
            "null-cells",
            "missing-n",
            "mistyped-losses",
            "mistyped-wall-time",
        ],
    )
    def test_report_must_equal_what_its_inputs_derive(
        self, small_report, edit, match
    ):
        d = report_to_dict(small_report)
        edit(d)
        with pytest.raises(ValidationError, match=f"^{match}"):
            report_from_dict(d)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (
                lambda cells: cells.pop(0),
                r"cells\[0\] holds \(n=100, t=3\) where "
                r"the grid has \(n=100, t=2\)",
            ),
            (
                lambda cells: cells.insert(1, cells[0]),
                r"cells\[1\] holds \(n=100, t=2\) where "
                r"the grid has \(n=100, t=3\)",
            ),
            (
                lambda cells: cells[1].update(n=999),
                r"cells\[1\] holds \(n=999, t=3\) where "
                r"the grid has \(n=100, t=3\)",
            ),
            (
                lambda cells: cells.reverse(),
                r"cells\[0\] holds \(n=100, t=3\) where "
                r"the grid has \(n=100, t=2\)",
            ),
        ],
        ids=["dropped", "duplicated", "relabelled", "reordered"],
    )
    def test_cells_must_be_the_config_grid(self, small_report, edit, match):
        d = report_to_dict(small_report)
        edit(d["cells"])
        with pytest.raises(ValidationError, match=rf"^{match}; "):
            report_from_dict(d)

    def test_json_keys_are_sorted(self, small_report, tmp_path):
        path = emit_json(small_report, tmp_path / "report.json")
        text = path.read_text()
        assert text.endswith("\n")
        top_keys = list(json.loads(text))
        assert top_keys == sorted(top_keys)


class TestGridOrderings:
    def test_compounding_tightens_every_cell(self, grid_report):
        for cell in grid_report.cells:
            stats = cell.summaries
            assert stats["FSV"]["mse"].mean < stats["KFCV"]["mse"].mean
            assert stats["FSV"]["mse"].mean < stats["SRS"]["mse"].mean
            assert (
                stats["FSV"]["var_est"].mean < stats["KFCV"]["var_est"].mean
            )
            assert (
                stats["FSV"]["var_est"].mean < stats["SRS"]["var_est"].mean
            )

    def test_default_grid_report_digest(self, grid_report):
        # the report's bytes, as bench/workloads.report_digest takes them
        body = _payload_without_timing(grid_report)
        digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "0adb3c9b70a2b0c01982522682e1de67"
            "056815f7a44caa8e314bfc7fc5f77ab2"
        )

    def test_default_grid_summary_row_count(self, grid_report, tmp_path):
        _, summary_path, _ = emit_csv(grid_report, tmp_path)
        assert len(summary_path.read_text().splitlines()) == 1 + 162
