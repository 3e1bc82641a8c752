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

Results store only their inputs. A :class:`CellResult` holds n, one
``(t x 3 x 6)`` table of its trials' metrics and its FSV iteration
losses; t, the per-method views and the summaries derive from them. An
:class:`ExperimentReport` holds the config, the cells and the wall time;
its config hash and version derive from them, and each cell's L* from
its losses and the config's one alpha. Each type has one constructor,
which checks its inputs. A saved report loads by one rule: the report
built from its inputs must dump back to exactly what was saved.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import reprlib
import time
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from itertools import accumulate, zip_longest
from pathlib import Path

import numpy as np

from .data import generate_dataset
from .errors import (
    _MAX_ENTRIES, _SUM_LIMIT, ValidationError, _count, _finite,
    _nonnegative, _numbers, _passes, _positive, _vector,
)
from .fsv import (
    DEFAULT_ALPHA, _check_alpha, compound_measure, sampled_kfold_trial
)
from .kfold import LambdaWeights, _subsample_range, repeated_kfcv
from .metrics import METRIC_FIELDS, Aggregate, Method, metric_table, summarize
from .rng import Purpose, derive_stream
from .sampling import FRACTION_RANGE, _fraction_window

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "ExperimentReport",
    "run_experiment",
    "emit_markdown_table",
    "emit_csv",
    "emit_json",
    "report_to_dict",
    "report_from_dict",
]

REPORT_VERSION = "0.1.0"

DEFAULT_SIZES = (10_000, 50_000, 100_000)
DEFAULT_TRIALS = (10, 50, 100)

_METHODS = tuple(m.value for m in Method)  # SRS, KFCV, FSV
_METRIC_LABELS = {
    "mean_est": "Mean est.",
    "var_est": "Var est.",
    "mse": "MSE",
    "bias": "Bias",
    "roc_me": "ROC Mean est.",
    "roc_ve": "ROC Var est.",
}
_METHOD_LABELS = {"SRS": "SRS", "KFCV": "KF", "FSV": "FSV"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full study configuration; the defaults are the reference protocol.

    ``sizes`` and ``trials`` are non-empty sequences of distinct counts
    >= 1 (5.0 is taken as 5), each at most ``errors._MAX_ENTRIES``, as
    each sizes arrays: a dataset, or a cell's tables and losses. ``k``
    (>= 2, at most ``_MAX_ENTRIES``), ``repetitions`` (>= 1, at most
    ``_MAX_ENTRIES // k``, as a KFCV trial holds repetitions x k fold
    losses) and ``seed`` (>= 0) are counts too.
    ``mu`` must be finite, ``sigma2`` finite and > 0, and ``alpha``
    follows :class:`~fusionval.FsvConfig`'s rule: in (0, 1], with a
    warning below 0.8. Every size must train k folds and leave a holdout
    at either end of ``fraction_range``, and sigma2 must be at most
    ``errors._SUM_LIMIT / max(sizes)``, so that every dataset the study
    draws passes ``Dataset``'s span rule.
    Every real is kept as a float, so a config given integers hashes
    like its float twin.
    """

    sizes: tuple[int, ...] = DEFAULT_SIZES
    trials: tuple[int, ...] = DEFAULT_TRIALS
    k: int = 5
    repetitions: int = 10
    alpha: float = DEFAULT_ALPHA
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
            values = _numbers(name, getattr(self, name), 1, _MAX_ENTRIES)
            if not values:
                raise ValidationError(f"{name} must be non-empty")
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValidationError(
                        f"{name} must not repeat an entry, "
                        f"got {value} more than once"
                    )
            normalise(name, values)
        for name, least, most in (("k", 2, _MAX_ENTRIES), ("seed", 0, None)):
            normalise(name, _count(name, getattr(self, name), least, most))
        reps = _passes("repetitions", self.repetitions, self.k)
        normalise("repetitions", reps)
        normalise("mu", _finite("mu", self.mu))
        normalise("sigma2", _positive("sigma2", self.sigma2))
        normalise("alpha", _check_alpha(self.alpha))
        if self.lambdas is not None:
            normalise("lambdas", _numbers("lambdas", self.lambdas))
        normalise("fraction_range", _fraction_window(self.fraction_range))
        if not isinstance(self.shared_streams, bool):
            raise ValidationError(
                f"shared_streams must be a bool, got {self.shared_streams!r}"
            )
        for n in self.sizes:
            _subsample_range(
                n, self.k, self.fraction_range, require_holdout=True
            )
        most = _SUM_LIMIT / max(self.sizes)
        if self.sigma2 > most:
            raise ValidationError(
                f"sigma2 must be at most {most:.6g}, so that the kernel's "
                f"sums over up to {max(self.sizes)} points stay finite, "
                f"got {self.sigma2!r}"
            )
        if self.lambdas is None:
            weights = LambdaWeights.uniform(self.k)
        else:
            lambdas = _vector("lambdas", self.lambdas, self.k, self.k)
            weights = LambdaWeights(lambdas=lambdas)
        object.__setattr__(self, "_weights", weights)

    def weights(self) -> LambdaWeights:
        """The fold-loss weights, validated and built once per config."""
        return self._weights

    def to_dict(self) -> dict:
        """The init fields in order, tuples as lists."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        return {
            k: list(v) if isinstance(v, tuple) else v for k, v in d.items()
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


def _grid(config: ExperimentConfig) -> list[tuple[int, int]]:
    """The config's cells, (n, t) for n in ``sizes`` and t in ``trials``,
    in run order."""
    return [(n, t) for n in config.sizes for t in config.trials]


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
    """One trial's ``(3 x 6)`` metric table, rows in ``_METHODS`` order
    and the FSV row alpha-scaled, and the FSV pass's raw mean fold loss."""
    key = _trial_key(n, t_total, trial)

    def stream(purpose: Purpose):
        return derive_stream(config.seed, key, purpose)

    def sampled_pass(purposes):
        """The dataset on the first of a (data, sample, folds, fraction)
        purpose quadruple's streams, and its sampled pass on the rest."""
        data, sample, folds, fraction = map(stream, purposes)
        dataset = generate_dataset(n, config.mu, config.sigma2, data)
        return dataset, sampled_kfold_trial(
            dataset, config.k, sample, folds_stream=folds,
            fraction_stream=fraction, fraction_range=config.fraction_range,
        )

    dataset, primary = sampled_pass(
        (Purpose.DATA, Purpose.SAMPLE, Purpose.FOLDS, Purpose.FRACTION)
    )
    kf = repeated_kfcv(
        dataset,
        config.repetitions,
        config.weights(),
        stream(Purpose.KFCV_DRAWS),
        fraction_range=config.fraction_range,
    )
    fsv_trial = primary if config.shared_streams else sampled_pass((
        Purpose.FSV_DATA, Purpose.FSV_SAMPLE, Purpose.FSV_FOLDS,
        Purpose.FSV_FRACTION,
    ))[1]
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
    """All trials of one (n, t) grid cell; t and the rest are derived.

    ``fsv_iteration_losses`` holds the FSV passes' t >= 1 raw mean fold
    losses and ``table`` a ``(t x 3 x 6)`` table: per trial one row per
    method in ``_METHODS`` order (SRS, KFCV, FSV, the FSV row
    alpha-scaled), columns in ``METRIC_FIELDS`` order. Each array is
    checked by ``errors._vector``'s rule, losses first: finite reals,
    kept as float64 (a float64 array as given, anything else as a copy)
    and made read-only. ``trials[method]`` is a method's read-only
    ``(t x 6)`` view of the table and ``summaries[method][metric]`` a
    column's :class:`Aggregate`, computed on first read. A cell keeps
    no alpha: its L* is ``compound_measure(fsv_iteration_losses,
    alpha)`` with its study's ``config.alpha``.
    """

    n: int
    table: np.ndarray
    fsv_iteration_losses: np.ndarray

    def __post_init__(self) -> None:
        name = f"cell (n={self.n!r}) fsv_iteration_losses"
        losses = _vector(name, self.fsv_iteration_losses)
        t, row = len(losses), (len(_METHODS), len(METRIC_FIELDS))
        where = f"cell (n={self.n!r}, t={t})"
        object.__setattr__(self, "n", _count(f"{where} n", self.n, 1))
        table = _vector(f"{where} table", self.table, t, t, columns=row)
        for array in (losses, table):
            array.setflags(write=False)
        object.__setattr__(self, "fsv_iteration_losses", losses)
        object.__setattr__(self, "table", table)

    @property
    def t(self) -> int:
        return len(self.fsv_iteration_losses)

    @property
    def trials(self) -> dict[str, np.ndarray]:
        return {m: self.table[:, i] for i, m in enumerate(_METHODS)}

    @cached_property
    def summaries(self) -> dict[str, dict[str, Aggregate]]:
        return {m: summarize(table) for m, table in self.trials.items()}


@dataclass(frozen=True)
class ExperimentReport:
    """A run's cells, which must be ``config``'s grid of (n, t) in run
    order; ``cells`` is kept as a tuple and ``wall_time_s`` (>= 0) as a
    float. Each cell's L* compounds its losses with ``config.alpha``."""

    config: ExperimentConfig
    cells: tuple[CellResult, ...]
    wall_time_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))
        wall = _nonnegative("wall_time_s", self.wall_time_s)
        object.__setattr__(self, "wall_time_s", wall)
        # a name shows n and t exactly, so equal names, equal coordinates
        name = "(n={}, t={})".format
        found = [name(c.n, c.t) for c in self.cells]
        grid = [name(n, t) for n, t in _grid(self.config)]
        for i, (want, got) in enumerate(
            zip_longest(grid, found, fillvalue="nothing")
        ):
            if want != got:
                raise ValidationError(
                    f"cells[{i}] holds {got} where the grid has {want}; the "
                    f"grid is (n, t) for n in sizes {list(self.config.sizes)}"
                    f" and t in trials {list(self.config.trials)}"
                )

    @property
    def config_hash(self) -> str:
        return self.config.config_hash()

    @property
    def version(self) -> str:
        return REPORT_VERSION

    def cell(self, n: int, t: int) -> CellResult:
        for c in self.cells:
            if c.n == n and c.t == t:
                return c
        raise ValidationError(f"no cell (n={n}, t={t}) in report")


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
    :func:`_usable_cores`; any other value must be integral (2.0 is
    taken as 2) and >= 1. The pool starts at most one worker per trial.
    The process pool is loaded on first use, so a run at ``jobs == 1``
    never loads it. The report is identical for every jobs value.
    """
    jobs = _usable_cores() if jobs is None else _count("jobs", jobs, 1)
    started = time.perf_counter()
    grid = _grid(config)
    tasks = [(config, n, t, trial) for n, t in grid for trial in range(t)]
    # the pool forks every worker at its first task: none to spare
    jobs = min(jobs, len(tasks))
    if jobs == 1:
        outcomes = list(map(_run_trial_task, tasks))
    else:
        from concurrent.futures import ProcessPoolExecutor

        # A trial's cost grows with n: the largest first, in small
        # chunks, so the pool does not end on a few long chunks. The
        # outcomes go back in task order.
        order = sorted(range(len(tasks)), key=lambda i: -tasks[i][1])
        chunk = max(1, len(tasks) // (jobs * 32))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = pool.map(
                _run_trial_task, [tasks[i] for i in order], chunksize=chunk
            )
            outcomes = [outcome for _, outcome in sorted(zip(order, done))]
    tables = np.stack([table for table, _ in outcomes])
    losses = np.array([raw_loss for _, raw_loss in outcomes])
    cells = [
        CellResult(n, tables[end - t:end], losses[end - t:end])
        for (n, t), end in zip(grid, accumulate(t for _, t in grid))
    ]
    return ExperimentReport(config, cells, time.perf_counter() - started)


def emit_markdown_table(report: ExperimentReport, n: int) -> str:
    """Render one size's summary block: 18 rows, mean/min/max per T."""
    cells = [c for c in report.cells if c.n == n]
    if not cells:
        raise ValidationError(f"n must be one of the report's sizes, got {n}")
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
        for method in _METHODS:
            row = [f"{_METRIC_LABELS[metric]} {_METHOD_LABELS[method]}"]
            for c in cells:
                row += [f"{v:.4f}" for v in c.summaries[method][metric]]
            lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    for c in cells:
        lstar = compound_measure(c.fsv_iteration_losses, report.config.alpha)
        lines.append(f"Compounded measure L* ({c.t} trials): {lstar:.4f}")
    return "\n".join(lines) + "\n"


def emit_csv(
    report: ExperimentReport, out_dir: str | Path
) -> tuple[Path, Path, Path]:
    """Write the report's long-format CSVs, values at ``.10g``, and
    return their paths: every trial value (``trials.csv``) and every
    summary (``summary.csv``), exactly the JSON report's rows, and every
    FSV iteration loss (``fsv_iteration_losses.csv``)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def write(name: str, header: str, rows) -> Path:
        path = out / name
        with path.open("w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header.split(","))
            w.writerows(rows)
        return path

    cells = report.cells
    return (
        write("trials.csv", "N,T,method,metric,trial,value", (
            [c.n, c.t, method, metric, i, f"{v:.10g}"]
            for c in cells
            for method in _METHODS
            for i, row in enumerate(c.trials[method].tolist())
            for metric, v in zip(METRIC_FIELDS, row)
        )),
        write("summary.csv", "N,T,method,metric,mean,min,max", (
            [c.n, c.t, method, metric, *(f"{v:.10g}" for v in agg)]
            for c in cells
            for method in _METHODS
            for metric, agg in c.summaries[method].items()
        )),
        write("fsv_iteration_losses.csv", "N,T,trial,value", (
            [c.n, c.t, i, f"{v:.10g}"]
            for c in cells
            for i, v in enumerate(c.fsv_iteration_losses.tolist())
        )),
    )


def _cell_to_dict(c: CellResult, alpha: float) -> dict:
    return {
        "n": c.n,
        "t": c.t,
        "trials": {
            method: [dict(zip(METRIC_FIELDS, row)) for row in table.tolist()]
            for method, table in c.trials.items()
        },
        "summaries": {
            method: {metric: agg._asdict() for metric, agg in stats.items()}
            for method, stats in c.summaries.items()
        },
        "fsv_compounded": compound_measure(c.fsv_iteration_losses, alpha),
        "fsv_iteration_losses": c.fsv_iteration_losses.tolist(),
    }


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "config": report.config.to_dict(),
        "config_hash": report.config_hash,
        "version": report.version,
        "wall_time_s": report.wall_time_s,
        "cells": [_cell_to_dict(c, report.config.alpha) for c in report.cells],
    }


def _same(want, got) -> bool:
    """Whether ``got`` equals ``want`` and dumps to the same JSON text,
    keys sorted as :func:`emit_json` writes them and a value JSON cannot
    hold shown by its repr: Python finds ``True``, ``1`` and ``1.0``
    equal, their JSON text differs. Equality is tested first, so that
    keys JSON cannot sort (``1`` beside ``'n'``) never reach the dump."""
    text = partial(json.dumps, sort_keys=True, default=repr)
    return want == got and text(want) == text(got)


def _first_difference(want: dict, got: dict) -> str:
    """The first leaf at which ``got`` differs from ``want`` by
    :func:`_same`: its path, like ``report['cells'][1]['t']``, and both
    values. Paths are taken in ``want``'s order, so a report's top-level
    keys come before its cells; an empty dict or list counts as a
    leaf."""

    def leaves(value, path):
        if not isinstance(value, (dict, list)) or not value:
            return [(path, value)]
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [leaf for k, v in items for leaf in leaves(v, f"{path}[{k!r}]")]

    want, got = dict(leaves(want, "report")), dict(leaves(got, "report"))
    path = next(
        p for p in [*want, *got]
        if not _same(want.get(p, ...), got.get(p, ...))
    )
    got, want = (
        "nothing" if v is ... else reprlib.repr(v)
        for v in (got.get(path, ...), want.get(path, ...))
    )
    return f"{path}: stored {got}, but the report's inputs give {want}"


def report_from_dict(d: dict) -> ExperimentReport:
    """Rebuild a report from :func:`report_to_dict` output.

    Only the inputs are read: the config, each cell's ``n``, trial rows
    and ``fsv_iteration_losses``, and ``wall_time_s``. A cell's rows are
    read per method in ``_METHODS`` order and zipped trial by trial, so
    a missing method, or method row lists of unequal length, is refused
    naming the cell, and a method beyond the three is refused by the
    dump-back rule below; no cell is truncated. The report is
    built from them through the constructors, which check the grid and
    each cell, and :func:`report_to_dict` of it must then equal ``d``
    and dump to the same JSON text, so a ``true`` or ``100.0`` stored
    where the report has ``1`` or ``100`` is refused. So every derived
    value (the config hash, the version, each cell's t, summaries and
    ``fsv_compounded``) must be the one its inputs give, and no key may
    be missing or extra; a report whose config was edited after the run
    fails on its ``config_hash``. The error names the first path that
    differs, or the cell whose inputs are missing or mistyped.
    """
    where = "report"
    try:
        with warnings.catch_warnings():  # a saved alpha warned at its run
            warnings.simplefilter("ignore", UserWarning)
            config = ExperimentConfig.from_dict(d["config"])
        wall_time_s = d["wall_time_s"]
        cells = []
        for i, cd in enumerate(d["cells"]):
            where = f"report['cells'][{i}]"
            methods = (cd["trials"][m] for m in _METHODS)
            table = [
                [[row[f] for f in METRIC_FIELDS] for row in rows]
                for rows in zip(*methods, strict=True)
            ]
            losses = cd["fsv_iteration_losses"]
            cells.append(CellResult(cd["n"], table, losses))
    except ValidationError:
        raise
    except (LookupError, TypeError, AttributeError, ValueError) as exc:
        raise ValidationError(
            f"{where}: an input is missing or mistyped: {exc!r}"
        ) from exc
    report = ExperimentReport(config, cells, wall_time_s)
    want = report_to_dict(report)
    if not _same(want, d):
        raise ValidationError(_first_difference(want, d))
    return report


def emit_json(report: ExperimentReport, path: str | Path) -> Path:
    """Write the whole report as JSON with stable key order."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as fh:
        json.dump(report_to_dict(report), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return out
