import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.stats import chi2

from fusionval import cli, kfold, selftest
from fusionval.cli import (
    _OPTIONS,
    _experiment_config,
    _layered_options,
    build_parser,
    main,
    parse_config_file,
)
from fusionval.errors import ValidationError
from fusionval.harness import ExperimentConfig

_FAST = [
    "--sizes", "100", "--trials", "2",
    "--k", "2", "--reps", "2", "--jobs", "1",
]


class TestRunCommand:
    def test_markdown_to_stdout(self, capsys):
        assert main(["run", *_FAST]) == 0
        out = capsys.readouterr().out
        assert "### N = 100" in out
        assert "| Mean est. SRS |" in out
        assert "Compounded measure L* (2 trials):" in out

    def test_file_formats_require_out_dir(self, capsys):
        assert main(["run", *_FAST, "--format", "csv"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_csv_files_written(self, tmp_path, capsys):
        code = main(
            ["run", *_FAST, "--format", "csv", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "trials.csv").exists()
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "fsv_iteration_losses.csv").exists()
        assert "wrote" in capsys.readouterr().err

    def test_json_file_written(self, tmp_path, capsys):
        code = main(
            ["run", *_FAST, "--format", "json", "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["config"]["sizes"] == [100]
        assert payload["config"]["trials"] == [2]

    def test_markdown_with_out_also_writes_file(self, tmp_path, capsys):
        code = main(["run", *_FAST, "--out", str(tmp_path)])
        assert code == 0
        assert "### N = 100" in (tmp_path / "report.md").read_text()

    def test_invalid_config_value_exits_two(self, capsys):
        assert main(["run", *_FAST, "--alpha", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, field_name",
        [
            ("mu = nan", "mu"),
            ("sigma2 = inf", "sigma2"),
            ("alpha = nan", "alpha"),
            ("lambdas = 1,nan", "lambdas"),
            ("lambdas = 2.5,-0.5", "lambdas"),
            ("lambdas = 1,1.5", "lambdas"),
            ("k = abc", "k"),
            ("sizes = a,b", "sizes"),
        ],
    )
    def test_bad_config_field_exits_two_naming_it(
        self, tmp_path, capsys, line, field_name
    ):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(line + "\n")
        assert main(["run", *_FAST, "--config", str(cfg)]) == 2
        # a value that does not parse is located in the file
        assert re.match(
            rf"error: ({re.escape(str(cfg))}:1: )?{field_name}\b",
            capsys.readouterr().err,
        )

    def test_repeated_size_exits_two_naming_it(self, capsys):
        argv = ["run", *_FAST, "--sizes", "100,100"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: sizes must not repeat an entry, got 100 more than once\n"
        )

    def test_non_finite_alpha_flag_exits_two(self, capsys):
        assert main(["run", *_FAST, "--alpha", "nan"]) == 2
        assert capsys.readouterr().err.startswith("error: alpha ")

    def test_low_alpha_warns_on_one_line_and_runs(self, capsys):
        # reported as errors are, not as Python's file:line warning
        assert main(["run", *_FAST, "--alpha", "0.5"]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: alpha=0.5 is far below 1; the compounded measure "
            "will be strongly shrunk\n"
        )
        assert "Compounded measure L* (2 trials):" in captured.out

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--no-such-flag"])
        assert exc.value.code == 2


class TestStudyConfig:
    def test_no_flags_give_the_default_config(self):
        args = build_parser().parse_args(["run"])
        config = _experiment_config(_layered_options(args, {}))
        assert config.config_hash() == ExperimentConfig().config_hash()

    def test_given_keys_override_the_defaults(self):
        args = build_parser().parse_args(
            ["cell", "--n", "100", "--t", "2", "--reps", "3", "--jobs", "1"]
        )
        overrides = {"sizes": (args.n,), "trials": (args.t,)}
        config = _experiment_config(_layered_options(args, overrides))
        assert config == ExperimentConfig(
            sizes=(100,), trials=(2,), repetitions=3
        )


# config key -> (a value as written in a config line or after its flag,
# what it parses to)
_SAMPLES = {
    "seed": ("7", 7),
    "alpha": ("0.9", 0.9),
    "k": ("3", 3),
    "reps": ("4", 4),
    "jobs": ("2", 2),
    "shared_streams": ("false", False),
    "out": ("results", "results"),
    "format": ("json", "json"),
    "sizes": ("100,200", (100, 200)),
    "trials": ("2,3", (2, 3)),
    "mu": ("1.5", 1.5),
    "sigma2": ("2.0", 2.0),
    "lambdas": ("0.5,1.5,1,1,1", (0.5, 1.5, 1.0, 1.0, 1.0)),
}


def _commands():
    """Each subcommand's parser, by name."""
    return next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ).choices


def _flags(command):
    return {s for a in _commands()[command]._actions for s in a.option_strings}


@pytest.fixture
def no_study(monkeypatch):
    """Fail the test if the study runs."""
    def study_must_not_run(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "run_experiment", study_must_not_run)


class TestOptionTable:
    def test_every_config_key_has_a_sample(self):
        assert set(_SAMPLES) == set(_OPTIONS)

    @pytest.mark.parametrize("key", list(_SAMPLES))
    def test_flag_and_config_line_give_the_same_config(self, tmp_path, key):
        text, value = _SAMPLES[key]
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"{key} = {text}\n")
        parser = build_parser()
        args = parser.parse_args(["run", "--config", str(cfg)])
        from_file = _layered_options(args, {})
        assert from_file == {key: value}
        flag = "--" + key.replace("_", "-")
        if flag not in _flags("run"):
            assert key in ("mu", "sigma2", "lambdas")
            return
        from_flag = _layered_options(parser.parse_args(["run", flag, text]), {})
        assert from_flag == from_file
        assert _experiment_config(from_flag) == _experiment_config(from_file)

    def test_the_flags_of_run_and_cell(self):
        common = {
            "-h", "--help", "--config", "--seed", "--alpha", "--k", "--reps",
            "--jobs", "--shared-streams", "--out", "--format",
        }
        assert _flags("run") == common | {"--sizes", "--trials"}
        assert _flags("cell") == common | {"--n", "--t"}

    def test_every_flag_of_every_command_has_help(self):
        bare = [
            (command, a.option_strings[0])
            for command, parser in _commands().items()
            for a in parser._actions
            if a.option_strings and not a.help
        ]
        assert bare == []

    def test_config_format_follows_the_flag_rule(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("format = xml\n")
        out = tmp_path / "out"
        argv = ["run", *_FAST, "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:1: format: expected one of md, csv, json, "
            "got 'xml'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "in_file, flag, want",
        [
            ("true", ["--shared-streams", "false"], False),
            ("true", ["--shared-streams", "0"], False),
            ("false", ["--shared-streams"], True),
            ("false", ["--shared-streams", "--seed", "3"], True),
        ],
        ids=["false", "0", "bare", "bare-then-a-flag"],
    )
    def test_a_flag_overrides_the_file_either_way(
        self, tmp_path, in_file, flag, want
    ):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"shared_streams = {in_file}\n")
        args = build_parser().parse_args(["run", "--config", str(cfg), *flag])
        assert _layered_options(args, {})["shared_streams"] is want

    @pytest.mark.parametrize(
        "out, reason",
        [("taken", "File exists"), ("taken/sub", "Not a directory")],
        ids=["a-file", "under-a-file"],
    )
    def test_unwritable_out_is_refused_before_the_study_runs(
        self, tmp_path, capsys, no_study, out, reason
    ):
        (tmp_path / "taken").write_text("")
        path = tmp_path / out
        argv = ["run", *_FAST, "--format", "json", "--out", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: cannot write output: {reason}\n"
        )

    @pytest.mark.parametrize(
        "fmt, name",
        [
            ("md", "report.md"),
            ("csv", "trials.csv"),
            ("json", "report.json"),
            ("csv", "fsv_iteration_losses.csv"),
        ],
    )
    def test_unwritable_report_is_refused_after_the_study_runs(
        self, tmp_path, capsys, fmt, name
    ):
        # --out is a directory, but a file the report goes to is one
        # too: the study runs, and writing its report fails by the rule
        # of an --out that cannot be created
        (tmp_path / name).mkdir()
        argv = ["run", *_FAST, "--format", fmt, "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / name}: cannot write output: Is a directory\n"
        )

    def test_missing_out_is_refused_before_the_study_runs(
        self, capsys, no_study
    ):
        assert main(["run", *_FAST, "--format", "csv"]) == 2
        assert capsys.readouterr().err == (
            "error: --format csv requires --out DIR\n"
        )

    def test_a_removed_format_is_refused_by_the_format_rule(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", *_FAST, "--format", "plot"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "error:" in line] == [
            "fusionval run: error: argument --format: expected one of "
            "md, csv, json, got 'plot'"
        ]

    def test_a_key_set_twice_is_rejected_naming_both_lines(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("seed = 1\n# a comment\nseed = 2\n")
        with pytest.raises(ValidationError) as exc:
            parse_config_file(cfg)
        assert str(exc.value) == f"{cfg}:3: seed: already set on line 1"


class TestCellCommand:
    def test_single_cell_table(self, capsys):
        code = main(
            ["cell", "--n", "100", "--t", "2",
             "--k", "2", "--reps", "2", "--jobs", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "### N = 100" in out
        assert "2 Trials Mean" in out

    def test_coordinates_are_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["cell", "--n", "100"])


class TestConfigFile:
    def _write(self, tmp_path, text):
        path = tmp_path / "study.cfg"
        path.write_text(text)
        return path

    def test_parse_types_and_comments(self, tmp_path):
        path = self._write(
            tmp_path,
            "# study setup\n"
            "seed = 7\n"
            "sizes = 100,200\n"
            "alpha = 0.9   # trailing comment\n"
            "shared_streams = true\n",
        )
        assert parse_config_file(path) == {
            "seed": 7,
            "sizes": (100, 200),
            "alpha": 0.9,
            "shared_streams": True,
        }

    def test_unknown_key_is_rejected_with_location(self, tmp_path):
        # fraction_range is a study field with no key: setting it is
        # library-only, so a key for it must be added on purpose
        for line in ("sigma = 1", "fraction_range = 0.5,0.8"):
            path = self._write(tmp_path, line + "\n")
            with pytest.raises(ValidationError, match=":1:"):
                parse_config_file(path)

    def test_bad_bool_is_rejected(self, tmp_path):
        path = self._write(tmp_path, "shared_streams = maybe\n")
        with pytest.raises(ValidationError):
            parse_config_file(path)

    def test_missing_equals_is_rejected(self, tmp_path):
        path = self._write(tmp_path, "seed 7\n")
        with pytest.raises(ValidationError):
            parse_config_file(path)

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = self._write(
            tmp_path,
            "seed = 7\nsizes = 100\ntrials = 2\nk = 2\nreps = 2\njobs = 1\n",
        )
        out_dir = tmp_path / "out"
        code = main(
            ["run", "--config", str(cfg), "--seed", "9",
             "--format", "json", "--out", str(out_dir)]
        )
        assert code == 0
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["config"]["seed"] == 9

    def test_file_fills_in_when_no_flag(self, tmp_path, capsys):
        cfg = self._write(
            tmp_path,
            "seed = 7\nsizes = 100\ntrials = 2\nk = 2\nreps = 2\njobs = 1\n",
        )
        out_dir = tmp_path / "out"
        code = main(
            ["run", "--config", str(cfg),
             "--format", "json", "--out", str(out_dir)]
        )
        assert code == 0
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["config"]["seed"] == 7

    def test_broken_config_file_exits_two(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "not_a_key = 3\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "make, reason",
        [
            (lambda d: d / "missing.cfg", "No such file or directory"),
            (lambda d: d, "Is a directory"),
            (lambda d: d / "binary.cfg", "can't decode"),
        ],
        ids=["missing", "directory", "not-text"],
    )
    def test_unreadable_config_file_exits_two(
        self, tmp_path, capsys, make, reason
    ):
        (tmp_path / "binary.cfg").write_bytes(b"seed = \xff\xfe\n")
        path = make(tmp_path)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: cannot read config file: " in err
        assert reason in err


class TestTheoryCommand:
    def test_reference_budget(self, capsys):
        code = main(
            ["theory", "--sigma2", "1", "--n", "7500",
             "--population", "10000", "--t", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3.333333e-05" in out
        assert "k_dev" in out
        assert "epsilon" in out

    def test_fold_vars_feed_the_budget(self, capsys):
        code = main(
            ["theory", "--sigma2", "1", "--n", "7500",
             "--population", "10000", "--t", "10",
             "--fold-vars", "0.0013,0.0013,0.0013,0.0013,0.0013"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1.300000e-03" in out
        assert "1.333333e-04" in out

    def test_invalid_geometry_exits_two(self, capsys):
        code = main(
            ["theory", "--sigma2", "1", "--n", "0", "--population", "10"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k-dev", "2,0"], "k_dev must be finite and > 0, got 0.0"),
            (
                ["--epsilon", "0.01,-1"],
                "epsilon must be finite and >= 0, got -1.0",
            ),
            (["--low", "1", "--high", "1"], "b must be > a"),
            # 0.09 * 1.7e308 + 1.7e308 is no float; the user gave no total
            (
                ["--sigma2", "1.7e308", "--fold-vars", "1.7e308"],
                "srs_component + kfcv_component must be finite",
            ),
        ],
        ids=["k-dev", "epsilon", "loss-interval", "budget-total"],
    )
    def test_a_bad_row_input_prints_no_table(self, capsys, flags, message):
        code = main(["theory", "--n", "10", "--population", "100", *flags])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}")


class TestSelftestCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_a_check_that_raises_fails_and_the_rest_still_run(
        self, monkeypatch, capsys
    ):
        # a broken kernel may raise numpy's ValueError, not a failed
        # condition's AssertionError: its check fails, and only it
        def broken(*args):
            raise ValueError("operands could not be broadcast")

        monkeypatch.setattr(kfold, "_fold_moments", broken)
        assert selftest.run_selftest() is False
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(selftest.CHECKS)
        for line, (name, _) in zip(lines, selftest.CHECKS):
            assert re.match(rf"\[(PASS|FAIL)\] {re.escape(name)}: ", line)
        assert (
            "[FAIL] batched pass kernel vs per-pass replay: ValueError: "
            "operands could not be broadcast"
        ) in lines

    def test_a_failed_condition_fails_its_check_and_the_command(
        self, monkeypatch, capsys
    ):
        # the kernel's fold losses doubled, as under python -O below: the
        # kernel check fails on its condition, naming no exception type
        combine = kfold._combine

        def doubled(*args, **kwargs):
            stats = combine(*args, **kwargs)
            return stats._replace(fold_losses=2 * stats.fold_losses)

        monkeypatch.setattr(kfold, "_combine", doubled)
        assert main(["selftest"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("[PASS] ") for line in lines) == 9
        failed = [line for line in lines if line.startswith("[FAIL] ")]
        assert len(failed) == 1
        assert re.fullmatch(
            r"\[FAIL\] batched pass kernel vs per-pass replay: iteration 0 "
            r"bias: .* from its exact value, over its bound .*",
            failed[0],
        )

    def test_a_broken_kernel_fails_under_python_optimize(self):
        # python -O strips assert statements, so a check stated as one
        # would pass whatever the program does
        script = (
            "import sys\n"
            "from fusionval import kfold, selftest\n"
            "print(sys.flags.optimize)\n"
            "selftest.CHECKS = (('kernel', selftest._check_pass_kernel),)\n"
            "print(selftest.run_selftest())\n"
            "combine = kfold._combine\n"
            "def doubled(*args, **kwargs):\n"
            "    stats = combine(*args, **kwargs)\n"
            "    return stats._replace(fold_losses=2 * stats.fold_losses)\n"
            "kfold._combine = doubled\n"
            "print(selftest.run_selftest())\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        optimize, passed, true, failed, false = done.stdout.splitlines()
        assert (optimize, true, false) == ("1", "True", "False")
        assert passed.startswith("[PASS] kernel: ")
        assert failed.startswith("[FAIL] kernel: iteration 0 bias: ")

    def test_uniformity_cutoff_is_the_chi2_quantile(self):
        # the 0.999 quantile of chi2 with 9 degrees of freedom, for the
        # check's 10 subsets of 2 of 5 points
        assert selftest._CHI2_999_DF9 == chi2.ppf(0.999, 9)

    def test_uniformity_check_does_not_load_scipy(self):
        # scipy is a test dependency only: the installed check must run
        # on numpy alone
        script = (
            "import sys\n"
            "from fusionval import selftest\n"
            "print(selftest._check_srs_uniformity().startswith('chi2'))\n"
            "print('scipy' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.splitlines() == ["True", "False"]
