"""Experiment runner: the study grid, trial execution, and report emission.

One run sweeps a grid of dataset sizes and trial counts. In the cell
(n, t) each of the t trials regenerates its dataset from a derived
stream, then runs the three methods:

* SRS: one subsample, fit, hold-out scoring.
* KFCV: repeated subsample-and-cross-validate, averaged.
* FSV: an independent subsample-and-cross-validate pass whose metrics
  are alpha-scaled; the cell's t raw iteration losses compound into L*.

Every random draw comes from a stream derived from (base seed, trial
key, purpose), so trials are order-independent and the report is
byte-identical under any worker count. The trial key hashes the cell
coordinates, which keeps cells independent of grid composition: running
one cell alone reproduces its slice of the full grid.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field, fields
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .data import generate_dataset
from .errors import ValidationError
from .fsv import compound_measure, sampled_kfold_trial
from .kfold import LambdaWeights, _subsample_range, repeated_kfcv
from .metrics import METRIC_FIELDS, Aggregate, Method, metric_table, summarize
from .rng import Purpose, derive_stream
from .sampling import FRACTION_RANGE, _fraction_window, _number, _numbers

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "ExperimentReport",
    "run_experiment",
    "emit_markdown_table",
    "emit_csv",
    "emit_json",
    "emit_plotdata",
    "report_to_dict",
    "report_from_dict",
]

REPORT_VERSION = "0.1.0"

DEFAULT_SIZES = (10_000, 50_000, 100_000)
DEFAULT_TRIALS = (10, 50, 100)

_METHOD_ORDER = (Method.SRS, Method.KFCV, Method.FSV)
_METRIC_LABELS = {
    "mean_est": "Mean est.",
    "var_est": "Var est.",
    "mse": "MSE",
    "bias": "Bias",
    "roc_me": "ROC Mean est.",
    "roc_ve": "ROC Var est.",
}
_METHOD_LABELS = {Method.SRS: "SRS", Method.KFCV: "KF", Method.FSV: "FSV"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full study configuration; the defaults are the reference protocol."""

    sizes: tuple[int, ...] = DEFAULT_SIZES
    trials: tuple[int, ...] = DEFAULT_TRIALS
    k: int = 5
    repetitions: int = 10
    alpha: float = 0.95
    lambdas: tuple[float, ...] | None = None
    seed: int = 42
    fraction_range: tuple[float, float] = FRACTION_RANGE
    mu: float = 0.0
    sigma2: float = 1.0
    shared_streams: bool = False
    _weights: LambdaWeights = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        def normalise(name, value):
            object.__setattr__(self, name, value)

        for name in ("sizes", "trials"):
            normalise(name, _numbers(name, getattr(self, name), True))
        for name in ("k", "repetitions", "seed"):
            normalise(name, _number(name, getattr(self, name), True))
        for name in ("mu", "sigma2", "alpha"):
            _number(name, getattr(self, name))
        if self.lambdas is not None:
            normalise(
                "lambdas", tuple(map(float, _numbers("lambdas", self.lambdas)))
            )
        normalise("fraction_range", _fraction_window(self.fraction_range))
        if not isinstance(self.shared_streams, bool):
            raise ValidationError(
                f"shared_streams must be a bool, got {self.shared_streams!r}"
            )
        if not self.sizes:
            raise ValidationError("sizes must be non-empty")
        if not self.trials or any(t < 1 for t in self.trials):
            raise ValidationError("trials must be non-empty, all >= 1")
        for name in ("sizes", "trials"):
            values = getattr(self, name)
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValidationError(
                        f"{name} must not repeat an entry, "
                        f"got {value} more than once"
                    )
        for n in self.sizes:  # checks k >= 2 first
            _subsample_range(
                n, self.k, None, self.fraction_range, require_holdout=True
            )
        if self.repetitions < 1:
            raise ValidationError(
                f"repetitions must be >= 1, got {self.repetitions}"
            )
        for name in ("mu", "sigma2", "alpha"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValidationError(
                f"alpha must be in (0, 1], got {self.alpha}"
            )
        if self.lambdas is None:
            weights = LambdaWeights.uniform(self.k)
        elif len(self.lambdas) != self.k:
            raise ValidationError(
                f"lambdas must have length k={self.k}, "
                f"got {len(self.lambdas)}"
            )
        else:
            weights = LambdaWeights(lambdas=np.array(self.lambdas))
        object.__setattr__(self, "_weights", weights)
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not self.sigma2 > 0:
            raise ValidationError(
                f"sigma2 must be > 0, got {self.sigma2}"
            )

    def weights(self) -> LambdaWeights:
        """The fold-loss weights, validated and built once per config."""
        return self._weights

    def to_dict(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "trials": list(self.trials),
            "k": self.k,
            "repetitions": self.repetitions,
            "alpha": self.alpha,
            "lambdas": list(self.lambdas) if self.lambdas else None,
            "seed": self.seed,
            "fraction_range": list(self.fraction_range),
            "mu": self.mu,
            "sigma2": self.sigma2,
            "shared_streams": self.shared_streams,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`; rejects keys it does not know and
        keys it needs but does not find, naming them."""
        known = {f.name for f in fields(cls) if f.init}
        unknown = sorted(map(str, set(d) - known))
        if unknown:
            raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
        missing = sorted(known - set(d) - {"lambdas"})
        if missing:
            raise ValidationError(f"missing config keys: {', '.join(missing)}")
        return cls(**{**d, "lambdas": d.get("lambdas") or None})

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _trial_key(n: int, t_total: int, trial: int) -> int:
    """48-bit trial key hashed from the cell coordinates.

    Keying on (n, t_total, trial) rather than a running counter makes
    every cell's trials reproducible in isolation and statistically
    independent across cells.
    """
    digest = hashlib.sha256(f"{n}:{t_total}:{trial}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


def _run_trial(
    config: ExperimentConfig, n: int, t_total: int, trial: int
) -> tuple[np.ndarray, float]:
    """One trial's ``(3 x 6)`` metric table, rows in ``_METHOD_ORDER``
    and the FSV row alpha-scaled, and the FSV pass's raw mean fold loss."""
    key = _trial_key(n, t_total, trial)

    def stream(purpose: Purpose):
        return derive_stream(config.seed, key, purpose)

    dataset = generate_dataset(n, config.mu, config.sigma2, stream(Purpose.DATA))
    primary = sampled_kfold_trial(
        dataset,
        config.k,
        stream(Purpose.SAMPLE),
        folds_stream=stream(Purpose.FOLDS),
        fraction_stream=stream(Purpose.FRACTION),
        fraction_range=config.fraction_range,
    )
    kf = repeated_kfcv(
        dataset,
        config.k,
        config.repetitions,
        config.weights(),
        stream(Purpose.KFCV_DRAWS),
        fraction_range=config.fraction_range,
    )
    if config.shared_streams:
        fsv_trial = primary
    else:
        fsv_dataset = generate_dataset(
            n, config.mu, config.sigma2, stream(Purpose.FSV_DATA)
        )
        fsv_trial = sampled_kfold_trial(
            fsv_dataset,
            config.k,
            stream(Purpose.FSV_SAMPLE),
            folds_stream=stream(Purpose.FSV_FOLDS),
            fraction_stream=stream(Purpose.FSV_FRACTION),
            fraction_range=config.fraction_range,
        )
    # SRS and KFCV both take their bias from the primary pass's first fold
    table = metric_table(
        (primary.sample_mean, kf.mean_estimate, fsv_trial.sample_mean),
        (primary.sample_var, kf.var_estimate, fsv_trial.sample_var),
        (primary.holdout_mse, kf.loss, fsv_trial.holdout_mse),
        config.mu,
        config.sigma2,
        (
            primary.fold_losses[0],
            primary.fold_losses[0],
            fsv_trial.fold_losses[0],
        ),
    )
    table[2] *= config.alpha
    return table, fsv_trial.mean_fold_loss


def _run_trial_task(args: tuple) -> tuple[np.ndarray, float]:
    config, n, t_total, trial = args
    try:
        return _run_trial(config, n, t_total, trial)
    except Exception as exc:
        raise RuntimeError(
            f"cell (n={n}, t={t_total}) trial {trial}: {exc}"
        ) from exc


@dataclass(frozen=True, eq=False)
class CellResult:
    """All trials of one (n, t) grid cell and what is derived from them.

    ``trials[method]`` is a ``(t x 6)`` float64 table, columns in
    ``METRIC_FIELDS`` order; ``summaries[method][metric]`` is its
    column's :class:`Aggregate`. ``fsv_iteration_losses`` holds the FSV
    passes' raw mean fold losses, which compound into ``fsv_compounded``.
    """

    n: int
    t: int
    trials: dict[str, np.ndarray]
    summaries: dict[str, dict[str, Aggregate]]
    fsv_compounded: float
    fsv_iteration_losses: np.ndarray

    @classmethod
    def from_trials(
        cls,
        n: int,
        t: int,
        trials: dict[str, np.ndarray],
        fsv_iteration_losses: np.ndarray,
        alpha: float,
    ) -> "CellResult":
        """The cell whose summaries and L* are computed from its trials."""
        return cls(
            n=n,
            t=t,
            trials=trials,
            summaries={m: summarize(table) for m, table in trials.items()},
            fsv_compounded=compound_measure(fsv_iteration_losses, alpha),
            fsv_iteration_losses=fsv_iteration_losses,
        )


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    cells: list[CellResult] = field(default_factory=list)
    config_hash: str = ""
    version: str = REPORT_VERSION
    wall_time_s: float = 0.0

    def cell(self, n: int, t: int) -> CellResult:
        for c in self.cells:
            if c.n == n and c.t == t:
                return c
        raise ValidationError(f"no cell (n={n}, t={t}) in report")


def _assemble_cell(
    config: ExperimentConfig, n: int, t: int, outcomes: list[tuple]
) -> CellResult:
    """The cell of ``outcomes``, given in trial order."""
    block = np.stack([table for table, _ in outcomes])
    return CellResult.from_trials(
        n,
        t,
        {m.value: block[:, i] for i, m in enumerate(_METHOD_ORDER)},
        np.array([raw_loss for _, raw_loss in outcomes]),
        config.alpha,
    )


def _usable_cores() -> int:
    """The cores this process may run on (its CPU affinity) where the
    platform reports them, else every core of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(
    config: ExperimentConfig, jobs: int | None = None
) -> ExperimentReport:
    """Run the full grid and assemble the report.

    ``jobs`` sizes the worker pool; 1 runs inline, None uses
    :func:`_usable_cores`. The process pool is loaded on first use, so
    a run at ``jobs == 1`` never loads it. The report is identical for
    every jobs value.
    """
    if jobs is None:
        jobs = _usable_cores()
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    started = time.perf_counter()
    tasks = [
        (config, n, t, trial)
        for n in config.sizes
        for t in config.trials
        for trial in range(t)
    ]
    if jobs == 1:
        outcomes = list(map(_run_trial_task, tasks))
    else:
        from concurrent.futures import ProcessPoolExecutor

        # A trial's cost grows with n: the largest first, in small
        # chunks, so the pool does not end on a few long chunks.
        tasks.sort(key=lambda task: task[1], reverse=True)
        chunk = max(1, len(tasks) // (jobs * 32))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_trial_task, tasks, chunksize=chunk))
    buckets: dict[tuple[int, int], list] = {
        (n, t): [None] * t for n in config.sizes for t in config.trials
    }
    for (_, n, t, trial), outcome in zip(tasks, outcomes):
        buckets[(n, t)][trial] = outcome
    cells = []
    for n in config.sizes:
        for t in config.trials:
            try:
                cells.append(_assemble_cell(config, n, t, buckets[(n, t)]))
            except Exception as exc:
                raise RuntimeError(f"cell (n={n}, t={t}): {exc}") from exc
    return ExperimentReport(
        config=config,
        cells=cells,
        config_hash=config.config_hash(),
        version=REPORT_VERSION,
        wall_time_s=time.perf_counter() - started,
    )


def emit_markdown_table(report: ExperimentReport, n: int) -> str:
    """Render one size's summary block: 18 rows, mean/min/max per T."""
    cells = [c for c in report.cells if c.n == n]
    if not cells:
        raise ValidationError(f"no cells for n={n} in report")
    for c in cells:
        if not len(c.trials[Method.SRS.value]):
            raise ValidationError(f"cell (n={n}, t={c.t}) has no trials")
    cells = sorted(cells, key=lambda c: c.t)
    header = ["Statistical Metrics"]
    align = [":--"]
    for c in cells:
        header += [f"{c.t} Trials Mean", "Min", "Max"]
        align += ["--:", "--:", "--:"]
    lines = [
        f"### N = {n:,}",
        "",
        "| " + " | ".join(header) + " |",
        "| " + " | ".join(align) + " |",
    ]
    for metric in METRIC_FIELDS:
        for method in _METHOD_ORDER:
            row = [f"{_METRIC_LABELS[metric]} {_METHOD_LABELS[method]}"]
            for c in cells:
                agg = c.summaries[method.value][metric]
                row += [
                    f"{agg.mean:.4f}",
                    f"{agg.min:.4f}",
                    f"{agg.max:.4f}",
                ]
            lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    for c in cells:
        lines.append(
            f"Compounded measure L* ({c.t} trials): "
            f"{c.fsv_compounded:.4f}"
        )
    return "\n".join(lines) + "\n"


def _cell_rows(cell: CellResult):
    """(method, metric, trial, value) of every trial value of a cell."""
    for method in _METHOD_ORDER:
        for i, row in enumerate(cell.trials[method.value].tolist()):
            for metric, value in zip(METRIC_FIELDS, row):
                yield method.value, metric, i, value


def emit_csv(report: ExperimentReport, out_dir: str | Path) -> tuple[Path, Path]:
    """Write per-trial and summary CSVs; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trials_path = out / "trials.csv"
    with trials_path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["N", "T", "method", "metric", "trial", "value"])
        for c in report.cells:
            for method, metric, i, v in _cell_rows(c):
                w.writerow([c.n, c.t, method, metric, i, format(v, ".10g")])
    summary_path = out / "summary.csv"
    with summary_path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["N", "T", "method", "metric", "mean", "min", "max"])
        for c in report.cells:
            for method in _METHOD_ORDER:
                for metric, agg in c.summaries[method.value].items():
                    w.writerow(
                        [
                            c.n,
                            c.t,
                            method.value,
                            metric,
                            format(agg.mean, ".10g"),
                            format(agg.min, ".10g"),
                            format(agg.max, ".10g"),
                        ]
                    )
    return trials_path, summary_path


def _stats_to_dict(stats: dict[str, Aggregate]) -> dict:
    return {metric: agg._asdict() for metric, agg in stats.items()}


def _cell_to_dict(c: CellResult) -> dict:
    return {
        "n": c.n,
        "t": c.t,
        "trials": {
            method: [dict(zip(METRIC_FIELDS, row)) for row in table.tolist()]
            for method, table in c.trials.items()
        },
        "summaries": {
            method: _stats_to_dict(stats)
            for method, stats in c.summaries.items()
        },
        "fsv_compounded": c.fsv_compounded,
        "fsv_iteration_losses": c.fsv_iteration_losses.tolist(),
    }


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "config": report.config.to_dict(),
        "config_hash": report.config_hash,
        "version": report.version,
        "wall_time_s": report.wall_time_s,
        "cells": [_cell_to_dict(c) for c in report.cells],
    }


def _cell_from_dict(config: ExperimentConfig, cd: dict) -> CellResult:
    """Rebuild a cell from its trials, checking every stored value that
    derives from them."""
    n, t = cd["n"], cd["t"]
    where = f"cell (n={n}, t={t})"
    methods = [m.value for m in _METHOD_ORDER]
    trials = {}
    for method in methods:
        rows = cd["trials"].get(method, [])
        if len(rows) != t:
            raise ValidationError(
                f"{where} {method}: {len(rows)} trial rows, need {t}"
            )
        for i, row in enumerate(rows):
            if row.keys() != set(METRIC_FIELDS):
                raise ValidationError(
                    f"{where} {method} trial {i}: metrics must be exactly "
                    f"{list(METRIC_FIELDS)}, got {sorted(row)}"
                )
        trials[method] = np.array(
            [[row[m] for m in METRIC_FIELDS] for row in rows],
            dtype=np.float64,
        )
    losses = np.array(cd["fsv_iteration_losses"], dtype=np.float64)
    if losses.shape != (t,):
        raise ValidationError(
            f"{where}: {losses.size} fsv_iteration_losses, need {t}"
        )
    cell = CellResult.from_trials(n, t, trials, losses, config.alpha)
    for method in methods:
        stored = cd["summaries"].get(method)
        if stored != _stats_to_dict(cell.summaries[method]):
            raise ValidationError(
                f"{where} {method}: stored summaries differ from the "
                "summaries of its trials"
            )
    if cd["fsv_compounded"] != cell.fsv_compounded:
        raise ValidationError(
            f"{where}: stored fsv_compounded {cd['fsv_compounded']!r} "
            f"differs from {cell.fsv_compounded!r}, compounded from its "
            "fsv_iteration_losses"
        )
    return cell


def _check_cell_grid(config: ExperimentConfig, cells: list[dict]) -> None:
    """The stored cells must be the config's grid, (n, t) for n in
    ``sizes`` and t in ``trials``, in run order; names the first cell
    that is missing, extra or out of place."""
    grid = [(n, t) for n in config.sizes for t in config.trials]
    stored = [(cd["n"], cd["t"]) for cd in cells]
    for i, (want, got) in enumerate(zip_longest(grid, stored)):
        if want == got:
            continue
        # the cells before i match the grid: a repeat of one is extra
        repeat = got in stored[:i]
        if want is None or got is not None and (got not in grid or repeat):
            what, cell = "extra", got
        elif got is None or want not in stored:
            what, cell = "missing", want
        else:
            what, cell = "out of place", got
        raise ValidationError(
            f"cell (n={cell[0]}, t={cell[1]}) is {what}: the cells must be "
            f"(n, t) for n in sizes {list(config.sizes)} and t in trials "
            f"{list(config.trials)}, in that order"
        )


def report_from_dict(d: dict) -> ExperimentReport:
    """Rebuild a report from :func:`report_to_dict` output.

    The stored ``config_hash`` must be the hash of the stored config, so
    a report whose config was edited after the run is rejected. The
    cells must be the config's grid in run order. Each cell must hold t
    rows of exactly the ``METRIC_FIELDS`` per method and t iteration
    losses, and its stored summaries and ``fsv_compounded`` must equal
    those recomputed from them.
    """
    config = ExperimentConfig.from_dict(d["config"])
    if config.config_hash() != d["config_hash"]:
        raise ValidationError(
            f"config_hash {d['config_hash']!r} does not match the stored "
            f"config, whose hash is {config.config_hash()!r}"
        )
    _check_cell_grid(config, d["cells"])
    return ExperimentReport(
        config=config,
        cells=[_cell_from_dict(config, cd) for cd in d["cells"]],
        config_hash=d["config_hash"],
        version=d["version"],
        wall_time_s=d["wall_time_s"],
    )


def emit_json(report: ExperimentReport, path: str | Path) -> Path:
    """Write the whole report as JSON with stable key order."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as fh:
        json.dump(report_to_dict(report), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return out


def emit_plotdata(report: ExperimentReport, out_dir: str | Path) -> list[Path]:
    """One long-format CSV per cell, for external plotting."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for c in report.cells:
        p = out / f"plot_N{c.n}_T{c.t}.csv"
        with p.open("w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["method", "metric", "trial", "value"])
            for method, metric, i, v in _cell_rows(c):
                w.writerow([method, metric, i, format(v, ".10g")])
            for i, v in enumerate(c.fsv_iteration_losses.tolist()):
                w.writerow(["FSV", "iteration_loss", i, format(v, ".10g")])
        paths.append(p)
    return paths
