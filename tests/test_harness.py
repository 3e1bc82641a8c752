import concurrent.futures
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fusionval import harness
from fusionval.errors import ValidationError
from fusionval.harness import (
    DEFAULT_SIZES,
    DEFAULT_TRIALS,
    CellResult,
    ExperimentConfig,
    ExperimentReport,
    emit_csv,
    emit_json,
    emit_markdown_table,
    emit_plotdata,
    report_from_dict,
    report_to_dict,
    run_experiment,
)
from fusionval.data import generate_dataset
from fusionval.fsv import sampled_kfold_trial
from fusionval.metrics import METRIC_FIELDS, Method, metric_table
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
        assert lone_cell.fsv_compounded == grid_cell.fsv_compounded

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
        cell = small_report.cells[0]
        gutted = dataclasses.replace(
            cell, trials={**cell.trials, "SRS": []}
        )
        broken = dataclasses.replace(small_report, cells=[gutted])
        with pytest.raises(ValidationError):
            emit_markdown_table(broken, 100)


class TestCsvEmission:
    def test_headers_and_row_counts(self, small_report, tmp_path):
        trials_path, summary_path = emit_csv(small_report, tmp_path)
        trials_lines = trials_path.read_text().splitlines()
        summary_lines = summary_path.read_text().splitlines()
        assert trials_lines[0] == "N,T,method,metric,trial,value"
        assert summary_lines[0] == "N,T,method,metric,mean,min,max"
        assert len(trials_lines) == 1 + (2 + 3) * 3 * 6
        assert len(summary_lines) == 1 + 2 * 3 * 6

    def test_values_parse_back(self, small_report, tmp_path):
        trials_path, _ = emit_csv(small_report, tmp_path)
        first = trials_path.read_text().splitlines()[1].split(",")
        n, t, method, metric, trial, value = first
        row = small_report.cell(int(n), int(t)).trials[method][int(trial)]
        assert float(value) == pytest.approx(
            row[METRIC_FIELDS.index(metric)], rel=1e-9
        )

    def test_empty_report_emits_headers_only(self, tmp_path):
        empty = ExperimentReport(config=_SMALL, cells=[], config_hash="x")
        trials_path, summary_path = emit_csv(empty, tmp_path)
        assert trials_path.read_text() == "N,T,method,metric,trial,value\n"
        assert (
            summary_path.read_text() == "N,T,method,metric,mean,min,max\n"
        )


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
        with pytest.raises(
            ValidationError, match=r"^cell \(n=100, t=3\) KFCV: stored summaries"
        ):
            report_from_dict(d)

    def test_tampered_fsv_compounded_is_rejected(self, small_report):
        d = report_to_dict(small_report)
        d["cells"][0]["fsv_compounded"] *= 1.5
        with pytest.raises(
            ValidationError, match=r"^cell \(n=100, t=2\): stored fsv_compounded"
        ):
            report_from_dict(d)

    def test_missing_metric_key_is_named(self, small_report):
        d = report_to_dict(small_report)
        del d["cells"][0]["trials"]["FSV"][1]["mse"]
        with pytest.raises(
            ValidationError, match=r"^cell \(n=100, t=2\) FSV trial 1: metrics"
        ):
            report_from_dict(d)

    @pytest.mark.parametrize("field_name", ["trials", "fsv_iteration_losses"])
    def test_wrong_trial_count_is_rejected(self, small_report, field_name):
        d = report_to_dict(small_report)
        cell = d["cells"][0]
        if field_name == "trials":
            cell["trials"]["SRS"].pop()
        else:
            cell["fsv_iteration_losses"].append(1.0)
        with pytest.raises(ValidationError, match=r"^cell \(n=100, t=2\)"):
            report_from_dict(d)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda cells: cells.pop(0), r"\(n=100, t=2\) is missing"),
            (lambda cells: cells.insert(1, cells[0]), r"\(n=100, t=2\) is extra"),
            (
                lambda cells: cells[1].update(n=999),
                r"\(n=999, t=3\) is extra",
            ),
            (lambda cells: cells.reverse(), r"\(n=100, t=3\) is out of place"),
        ],
        ids=["dropped", "duplicated", "relabelled", "reordered"],
    )
    def test_cells_must_be_the_config_grid(self, small_report, edit, match):
        d = report_to_dict(small_report)
        edit(d["cells"])
        with pytest.raises(ValidationError, match=rf"^cell {match}: "):
            report_from_dict(d)

    def test_json_keys_are_sorted(self, small_report, tmp_path):
        path = emit_json(small_report, tmp_path / "report.json")
        text = path.read_text()
        assert text.endswith("\n")
        top_keys = list(json.loads(text))
        assert top_keys == sorted(top_keys)


class TestPlotData:
    def test_one_file_per_cell(self, small_report, tmp_path):
        paths = emit_plotdata(small_report, tmp_path)
        assert [p.name for p in paths] == [
            "plot_N100_T2.csv",
            "plot_N100_T3.csv",
        ]
        lines = paths[0].read_text().splitlines()
        assert lines[0] == "method,metric,trial,value"
        assert len(lines) == 1 + 2 * 3 * 6 + 2
        assert sum(1 for l in lines if ",iteration_loss," in l) == 2


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

    def test_default_grid_summary_row_count(self, grid_report, tmp_path):
        _, summary_path = emit_csv(grid_report, tmp_path)
        assert len(summary_path.read_text().splitlines()) == 1 + 162
