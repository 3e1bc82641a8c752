import json
import re

import pytest

from fusionval.cli import (
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
        assert "wrote" in capsys.readouterr().err

    def test_json_file_written(self, tmp_path, capsys):
        code = main(
            ["run", *_FAST, "--format", "json", "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["config"]["sizes"] == [100]
        assert payload["config"]["trials"] == [2]

    def test_plot_files_written(self, tmp_path, capsys):
        code = main(
            ["run", *_FAST, "--format", "plot", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "plot_N100_T2.csv").exists()

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
        path = self._write(tmp_path, "sigma = 1\n")
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


class TestSelftestCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out
