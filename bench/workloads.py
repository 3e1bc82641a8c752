"""The benchmark's workloads: what one measured round runs, and the
checks made on its outputs afterwards.

A round is the unit the runner times. Its operations are study trials
on the grid workloads and ``fsv_run`` calls on ``fsv-replicates``; every
round of a workload attempts the same number of them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import time
from pathlib import Path

import numpy as np

from fusionval import cli, data, fsv, harness, rng

from reference import (
    Check,
    Comparison,
    expected_inverse_train,
    grid_trial_key,
    metric_row,
    reference_grid_trial,
    reference_pass,
    stream_generator,
)

__all__ = ["GridWorkload", "FsvReplicatesWorkload", "parallel_jobs"]

# two-sided false-alarm rate of each statistical check, per run
FALSE_ALARM = 1e-6
MAX_PARALLEL_JOBS = 4


def parallel_jobs() -> int:
    """Worker count of the parallel round: the cores this process may
    use, at least 2 so the pool always runs, at most MAX_PARALLEL_JOBS."""
    return min(max(len(os.sched_getaffinity(0)), 2), MAX_PARALLEL_JOBS)


def _z_limit(df: int | None = None) -> float:
    """Critical |z| (or |t| with ``df`` degrees of freedom) at FALSE_ALARM."""
    from scipy import stats

    if df is None:
        return float(stats.norm.isf(FALSE_ALARM / 2))
    return float(stats.t.isf(FALSE_ALARM / 2, df))


def report_digest(payload: dict) -> str:
    """SHA-256 of a report dict without its ``wall_time_s``, serialised as
    ``json.dumps(d, sort_keys=True)``."""
    body = {key: v for key, v in payload.items() if key != "wall_time_s"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


class GridWorkload:
    """The default reference study through the ``fusionval run`` entry
    point at ``--jobs 1``, emitted as JSON, then reloaded and emitted as
    CSV. The traced run adds one round at ``--jobs`` = cores."""

    min_rounds = 1
    jobs = 1

    def __init__(self, name: str, seed: int, out_dir: Path) -> None:
        self.name, self.seed = name, seed
        self.pool_jobs = parallel_jobs()
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        defaults = harness.ExperimentConfig()
        self.operations = len(defaults.sizes) * sum(defaults.trials)
        self.payload: dict | None = None
        self.digests: list[tuple[int, str]] = []

    def run_round(self, index: int, jobs: int) -> int:
        """The measured call: run and emit the study. Every round repeats
        the same study, so ``index`` is unused. A failure raises, and
        fails every trial of the round."""
        self.last_jobs = jobs
        status = cli.main([
            "run", "--jobs", str(jobs), "--seed", str(self.seed),
            "--format", "json", "--out", str(self.out_dir),
        ])
        if status != 0:
            raise RuntimeError(f"fusionval run exited with {status}")
        with (self.out_dir / "report.json").open() as fh:
            report = harness.report_from_dict(json.load(fh))
        harness.emit_csv(report, self.out_dir)
        return 0

    def collect(self) -> None:
        """Read back the round's report, outside the measured interval."""
        payload = json.loads((self.out_dir / "report.json").read_text())
        self.digests.append((self.last_jobs, report_digest(payload)))
        if self.payload is None:
            self.payload = payload
            self.csv_checks = self._csv_checks()

    def floor_draws(self) -> float:
        """Seconds for the study's seeded draws alone, made with numpy."""
        config = self.payload["config"]
        k, reps = config["k"], config["repetitions"]
        low, high = config["fraction_range"]
        started = time.perf_counter()
        for n in config["sizes"]:
            for t_total in config["trials"]:
                for trial in range(t_total):
                    key = grid_trial_key(n, t_total, trial)

                    def gen(purpose):
                        return stream_generator(config["seed"], key, purpose)

                    passes = [
                        (gen("FRACTION"), gen("SAMPLE"), gen("FOLDS")),
                        (gen("FSV_FRACTION"), gen("FSV_SAMPLE"), gen("FSV_FOLDS")),
                    ]
                    draws = gen("KFCV_DRAWS")
                    passes += [(draws, draws, draws)] * reps
                    gen("DATA").standard_normal(n)
                    gen("FSV_DATA").standard_normal(n)
                    for g_frac, g_sample, g_folds in passes:
                        m = int(round(float(g_frac.uniform(low, high)) * n))
                        g_sample.choice(n, size=m, replace=False, shuffle=False).sort()
                        g_folds.permutation(m)
        return time.perf_counter() - started

    def trial_time(self, tracer) -> float:
        """Traced time of the trials themselves: the calls ``run_experiment``
        makes, less the summaries and compounding of cell assembly."""
        return tracer.child_seconds(
            "harness.run_experiment",
            exclude=("metrics.summarize", "fsv.compound_measure"),
        )

    # ---- checks -------------------------------------------------------

    def _csv_checks(self) -> Check:
        cells = self.payload["cells"]
        want_trials = [
            [str(c["n"]), str(c["t"]), method, metric, str(i), format(row[metric], ".10g")]
            for c in cells
            for method in ("SRS", "KFCV", "FSV")
            for i, row in enumerate(c["trials"][method])
            for metric in row
        ]
        want_summary = [
            [str(c["n"]), str(c["t"]), method, metric]
            + [format(agg[side], ".10g") for side in ("mean", "min", "max")]
            for c in cells
            for method in ("SRS", "KFCV", "FSV")
            for metric, agg in c["summaries"][method].items()
        ]

        def rows(name):
            with (self.out_dir / name).open(newline="") as fh:
                return list(csv.reader(fh))[1:]

        got_trials, got_summary = rows("trials.csv"), rows("summary.csv")
        ok = sorted(got_trials) == sorted(want_trials) and sorted(
            got_summary
        ) == sorted(want_summary)
        return Check(
            "csv-matches-json",
            ok,
            f"{len(got_trials)} trial rows and {len(got_summary)} summary "
            "rows equal the JSON report at 10 significant digits",
        )

    def checks(self) -> list[Check]:
        return [
            Check(
                "rounds-identical",
                len({digest for _, digest in self.digests}) == 1,
                "report sha256 by round: " + ", ".join(
                    f"jobs={jobs} {digest}" for jobs, digest in self.digests
                ),
            ),
            self.csv_checks,
            self._reference_check(),
            self._criterion_1(),
            self._roc_me_check(),
            self._iteration_loss_check(),
            self._cell_rerun_check(),
        ]

    def _cell(self, n: int, t: int) -> dict:
        return next(c for c in self.payload["cells"] if c["n"] == n and c["t"] == t)

    def _reference_check(self) -> Check:
        config = self.payload["config"]
        compare = Comparison(abs(config["mu"]) + 10 * math.sqrt(config["sigma2"]))
        picker = random.Random(self.seed)
        for n in config["sizes"]:
            for _ in range(2):
                t_total = picker.choice(config["trials"])
                trial = picker.randrange(t_total)
                cell = self._cell(n, t_total)
                ref = reference_grid_trial(config, n, t_total, trial)
                where = f"(n={n}, t={t_total}, trial={trial})"
                for method in ("SRS", "KFCV", "FSV"):
                    for metric, want in ref[method].items():
                        got = cell["trials"][method][trial][metric]
                        compare.add(f"{where} {method}.{metric}", got, want)
                compare.add(
                    f"{where} fsv_iteration_loss",
                    cell["fsv_iteration_losses"][trial],
                    ref["fsv_iteration_loss"],
                )
        return compare.check(f"{2 * len(config['sizes'])} trials")

    def _criterion_1(self) -> Check:
        summaries = self._cell(10_000, 100)["summaries"]
        mean_ests = [summaries[m]["mean_est"]["mean"] for m in ("SRS", "KFCV", "FSV")]
        var_srs = summaries["SRS"]["var_est"]["mean"]
        var_kf = summaries["KFCV"]["var_est"]["mean"]
        var_fsv = summaries["FSV"]["var_est"]["mean"]
        mse_fsv = summaries["FSV"]["mse"]["mean"]
        ok = (
            all(abs(v) <= 0.01 for v in mean_ests)
            and 0.99 <= var_srs <= 1.01
            and 0.99 <= var_kf <= 1.01
            and 0.93 <= var_fsv <= 0.97
            and 0.93 <= mse_fsv <= 0.98
        )
        return Check(
            "criterion-1-bands",
            ok,
            "(10k, 100): mean est " + "/".join(f"{v:+.4f}" for v in mean_ests)
            + f" (|.| <= 0.01), var est {var_srs:.4f}/{var_kf:.4f} in [0.99, 1.01], "
            f"FSV var {var_fsv:.4f} in [0.93, 0.97], FSV MSE {mse_fsv:.4f} in [0.93, 0.98]",
        )

    def _roc_me_check(self) -> Check:
        # One T=100 cell puts 15% at two standard errors; pooling every
        # SRS trial, each scaled by its own size's oracle, puts it at 4.3.
        config = self.payload["config"]
        ratios, per_cell = [], []
        for c in self.payload["cells"]:
            oracle = math.sqrt(2 / math.pi) * math.sqrt(config["sigma2"] / (0.75 * c["n"]))
            got = [row["roc_me"] / oracle for row in c["trials"]["SRS"]]
            ratios += got
            if c["t"] == 100:
                per_cell.append(f"N={c['n']}: {np.mean(got):.3f}")
        pooled = float(np.mean(ratios))
        return Check(
            "srs-roc-me",
            abs(pooled - 1) <= 0.15,
            f"SRS roc_me / (sqrt(2/pi)/sqrt(0.75 n)) = {pooled:.4f} over "
            f"{len(ratios)} trials, within 15% of 1 (T=100 cells alone: "
            + ", ".join(per_cell) + ")",
        )

    def _iteration_loss_check(self) -> Check:
        config = self.payload["config"]
        worst, bad = 0.0, []
        for c in self.payload["cells"]:
            losses = np.array(c["fsv_iteration_losses"])
            expected = config["sigma2"] * (
                1 + expected_inverse_train(c["n"], config["k"], tuple(config["fraction_range"]))
            )
            z = (losses.mean() - expected) / (losses.std(ddof=1) / math.sqrt(len(losses)))
            limit = _z_limit(len(losses) - 1)
            worst = max(worst, abs(z) / limit)
            if abs(z) > limit:
                bad.append(f"(n={c['n']}, t={c['t']}): z = {z:+.2f}, limit {limit:.2f}")
        return Check(
            "fsv-loss-expectation",
            not bad,
            f"mean fsv_iteration_losses within the t-limit of sigma2(1 + E[1/m_train]) "
            f"in {len(self.payload['cells'])} cells (largest |t|/limit {worst:.2f})"
            + ("; " + "; ".join(bad) if bad else ""),
        )

    def _cell_rerun_check(self) -> Check:
        n, t = 10_000, 10
        cell_dir = self.out_dir / "cell"
        status = cli.main([
            "cell", "--n", str(n), "--t", str(t), "--jobs", "1",
            "--seed", str(self.seed), "--format", "json", "--out", str(cell_dir),
        ])
        alone = json.loads((cell_dir / "report.json").read_text())["cells"]
        same = (
            status == 0
            and len(alone) == 1
            and json.dumps(alone[0], sort_keys=True)
            == json.dumps(self._cell(n, t), sort_keys=True)
        )
        return Check(
            "cell-rerun-jobs-1",
            same,
            f"cell (n={n}, t={t}) rerun alone at jobs=1 is byte-identical to its "
            "slice of the grid report",
        )


class FsvReplicatesWorkload:
    """Replicate ``fsv_run`` calls on one small dataset with a large mean."""

    # The variance-law band is 2.6 standard errors wide at 400 replicates
    # per T; 3 rounds with fresh streams take it past 4.5.
    min_rounds = 3
    jobs = 1
    pool_jobs = None
    n, mu, sigma2 = 2000, 1e9, 1.0
    replicates, iterations, alpha, k = 400, (10, 40), 0.95, 5
    # replicates per round recomputed by the reference pass
    sampled_per_group = (3, 2)

    def __init__(self, name: str, seed: int) -> None:
        self.name, self.seed = name, seed
        self.data = data.generate_dataset(
            self.n, self.mu, self.sigma2,
            rng.derive_stream(seed, 0, rng.Purpose.FSV_DATA),
        )
        self.configs = [
            fsv.FsvConfig(iterations=t, alpha=self.alpha, k=self.k)
            for t in self.iterations
        ]
        self.operations = self.replicates * len(self.configs)
        self.compounded = [[] for _ in self.configs]
        self.iteration_losses: list[np.ndarray] = []
        self.sampled: list[tuple[object, object]] = []

    def _key(self, index: int, group: int, replicate: int) -> int:
        return 1 + (index * len(self.configs) + group) * self.replicates + replicate

    def run_round(self, index: int, jobs: int) -> int:
        """The measured call: every replicate of both iteration counts,
        on replicate streams of their own for each round. Returns the
        number of ``fsv_run`` calls that raised. ``jobs`` is unused: the
        calls run in this process."""
        picker = random.Random(f"{self.seed}:{index}")
        keep = [
            set(picker.sample(range(self.replicates), count))
            for count in self.sampled_per_group
        ]
        failed = 0
        self.last_results: list[tuple[int, object]] = []
        for group, config in enumerate(self.configs):
            for r in range(self.replicates):
                stream = rng.derive_stream(
                    self.seed, self._key(index, group, r), rng.Purpose.FSV_SAMPLE
                )
                try:
                    result = fsv.fsv_run(self.data, config, stream)
                except Exception:
                    failed += 1
                    continue
                self.last_results.append((group, result))
                if r in keep[group]:
                    self.sampled.append((stream, result))
        return failed

    def collect(self) -> None:
        """Keep the round's results for the checks."""
        for group, result in self.last_results:
            self.compounded[group].append(result.compounded_measure)
            self.iteration_losses.append(np.asarray(result.iteration_losses))
        self.last_results = []

    def floor_draws(self) -> float:
        """Seconds for one round's seeded draws alone, made with numpy."""
        low, high = self.configs[0].fraction_range
        started = time.perf_counter()
        stream_generator(self.seed, 0, "FSV_DATA").standard_normal(self.n)
        for group, config in enumerate(self.configs):
            for r in range(self.replicates):
                g = stream_generator(self.seed, self._key(0, group, r), "FSV_SAMPLE")
                for _ in range(config.iterations):
                    m = int(round(float(g.uniform(low, high)) * self.n))
                    g.choice(self.n, size=m, replace=False, shuffle=False).sort()
                    g.permutation(m)
        return time.perf_counter() - started

    def checks(self) -> list[Check]:
        return [self._reference_check(), self._variance_law(), self._loss_expectation()]

    def _reference_check(self) -> Check:
        values = np.asarray(self.data.values)
        compare = Comparison(abs(self.mu) + 10 * math.sqrt(self.sigma2))
        frac = self.configs[0].fraction_range
        for stream, result in self.sampled:
            g = stream.clone().generator
            ref_losses = []
            for it, row in enumerate(result.iteration_metrics):
                p = reference_pass(values, self.k, frac, g, g, g)
                ref_losses.append(math.fsum(p.fold_losses) / self.k)
                where = f"stream {stream.stream_id} iteration {it}"
                compare.add(f"{where} loss", float(result.iteration_losses[it]), ref_losses[-1])
                for field, v in metric_row(p, self.mu, self.sigma2).items():
                    compare.add(f"{where} {field}", getattr(row, field), self.alpha * v)
            compare.add(
                f"stream {stream.stream_id} compounded",
                result.compounded_measure,
                self.alpha * math.fsum(ref_losses) / len(ref_losses),
            )
        return compare.check(f"{len(self.sampled)} replicates")

    def _variance_law(self) -> Check:
        v10, v40 = (float(np.var(c, ddof=1)) for c in self.compounded)
        ratio = v40 / v10
        return Check(
            "variance-law",
            0.175 <= ratio <= 0.325,
            f"Var(L*) ratio T=40/T=10 = {ratio:.3f} in [0.175, 0.325] over "
            f"{len(self.compounded[0])}/{len(self.compounded[1])} replicates",
        )

    def _loss_expectation(self) -> Check:
        losses = np.concatenate(self.iteration_losses)
        s2 = float(np.var(np.asarray(self.data.values) - self.mu, ddof=1))
        expected = s2 * (1 + expected_inverse_train(self.n, self.k, self.configs[0].fraction_range))
        z = (losses.mean() - expected) / (losses.std(ddof=1) / math.sqrt(len(losses)))
        limit = _z_limit()
        return Check(
            "loss-expectation",
            abs(z) <= limit,
            f"mean iteration loss {losses.mean():.6f} vs S2(1 + E[1/m_train]) = "
            f"{expected:.6f} over {len(losses)} passes: z = {z:+.2f} (|z| <= {limit:.2f})",
        )
