"""Benchmark of fusionval, run from the root of a checkout:

    python3 bench/run.py --workload grid-serial --seed 1 --seconds 20 --trace 0

Workloads are ``grid-serial`` and ``fsv-replicates`` (see
bench/README.md). The run repeats whole rounds of the workload for
at least ``--seconds`` seconds, checks every output, and prints one JSON
object as its last line: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of an extra traced round with ``--trace 1``. The
package is imported from the checkout's ``src/``, never from an
installed copy; without that source the run stops with an error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "_out"
WORKLOADS = ("grid-serial", "fsv-replicates")
SETUP_PROBES = 5


def use_checkout_source() -> None:
    package = SRC / "fusionval"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no fusionval source at {package}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import fusionval

    if Path(fusionval.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported fusionval from {fusionval.__file__}, not {package}")


def make_workload(name: str, seed: int, out_dir: Path):
    from workloads import FsvReplicatesWorkload, GridWorkload

    if name == "grid-serial":
        return GridWorkload(name, seed, out_dir)
    return FsvReplicatesWorkload(name, seed)


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its ended children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


@dataclass(frozen=True)
class Round:
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int


def timed_round(workload, index: int, jobs: int) -> Round:
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    try:
        failed = workload.run_round(index, jobs)
    except Exception:
        traceback.print_exc()
        failed = workload.operations
    wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
    if failed < workload.operations:
        workload.collect()
    return Round(wall, cpu, workload.operations, failed)


def setup_seconds(name: str, seed: int, out_dir: Path) -> float:
    """Median set-up time (import plus input preparation) of fresh
    interpreters, each timing itself."""
    samples = []
    for probe in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", name,
             "--seed", str(seed), "--out", str(out_dir / f"probe{probe}")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def trace_metrics(workload, rounds: list[Round]) -> dict:
    """Per-layer metrics from one traced round at jobs=1, plus, where the
    workload runs the harness, one untraced round on the process pool.
    Appends every round it makes to ``rounds``."""
    from tracing import Tracer

    untraced = list(rounds)
    with Tracer() as tracer:
        traced = timed_round(workload, len(rounds), workload.jobs)
    rounds.append(traced)
    # one more untraced round after the traced one, so that a slow drift
    # of the machine's speed cancels out of the overhead
    untraced.append(timed_round(workload, len(rounds), workload.jobs))
    rounds.append(untraced[-1])
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{workload.name}-seed{workload.seed}.npz")
    metrics = {}
    for fn, (calls, self_s) in tracer.summary().items():
        metrics[f"{fn}.calls"] = (calls, "count")
        metrics[f"{fn}.self_s"] = (self_s, "s")
    overhead = traced.wall_s - statistics.median(r.wall_s for r in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    pool_wall = pool_gap = 0.0
    if workload.pool_jobs:
        rounds.append(timed_round(workload, len(rounds), workload.pool_jobs))
        pool_wall = rounds[-1].wall_s
        pool_gap = pool_wall - workload.trial_time(tracer) / workload.pool_jobs
    metrics["harness.pool_wall_s"] = (pool_wall, "s")
    metrics["harness.pool_gap_s"] = (pool_gap, "s")
    metrics["floor.draws_s"] = (workload.floor_draws(), "s")
    return metrics


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        started = time.perf_counter()
        use_checkout_source()
        make_workload(args.workload, args.seed, args.out)
        print(time.perf_counter() - started)
        return 0

    use_checkout_source()
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        workload = make_workload(args.workload, args.seed, out_dir)
        rounds: list[Round] = []
        started = time.perf_counter()
        while len(rounds) < workload.min_rounds or (
            not args.trace and time.perf_counter() - started < args.seconds
        ):
            rounds.append(timed_round(workload, len(rounds), workload.jobs))
        if args.trace:
            metrics = trace_metrics(workload, rounds)
        else:
            metrics = {
                "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
                "cpu_s": (statistics.median(r.cpu_s for r in rounds), "s"),
                "peak_rss_mib": (peak_rss_mib(), "MiB"),
            }
        checks = workload.checks() if any(r.failed < r.attempted for r in rounds) else []
        if not args.trace:
            metrics["setup_s"] = (setup_seconds(args.workload, args.seed, out_dir), "s")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for check in checks:
        print(f"[{'PASS' if check.ok else 'FAIL'}] {check.name}: {check.detail}")
    correct = all(check.ok for check in checks)
    if not correct:
        failing = ", ".join(c.name for c in checks if not c.ok)
        print(f"bench: checks failed: {failing}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} jobs={workload.jobs} rounds={len(rounds)} "
        "round wall_s=" + ",".join(f"{r.wall_s:.3f}" for r in rounds)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
