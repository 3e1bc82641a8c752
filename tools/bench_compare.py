"""Compare two revisions on the repository's benchmark, in alternating
pairs of runs.

Run from anywhere in a checkout::

    python tools/bench_compare.py --base REV --head REV \\
        --workload grid-serial --workload fsv-replicates --pairs 10 --seed 1

Both revisions are exported with ``git archive`` into a temporary
directory. Each pair runs the two trees one after the other, base first
in even pairs and head first in odd ones, and each run is that tree's
own ``bench/run.py --trace 0`` at ``BENCHMARK.json``'s ``run_seconds``,
both sides of pair i on seed ``--seed`` + i. The result is written to
``BENCH_<short head>.json`` at the repository root: each pair's
end-to-end metrics, each side's median and quartiles, and for each
metric the head's relative change, the pairs it won, an exact two-sided
sign test, the metric's bound and a verdict, beside the host's usable
cores and its Python and numpy versions. No file is written if any run
exits non-zero, prints no JSON line last, or reports ``correct: false``
or a failed operation. Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def summary(values: list[float]) -> dict:
    """The median and the inclusive quartiles of two or more values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def sign_test(wins: int, losses: int) -> float:
    """The exact two-sided sign test's p-value for ``wins`` against
    ``losses``, ties left out: 1.0 with no untied pair."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def compare(base: list[float], head: list[float], better: str, bound: float):
    """One metric over paired runs of the two trees, ``better`` "lower"
    or "higher". The verdict is, in this order: "regressed" when the
    head's median is worse than the base's by more than ``bound`` (a
    fraction of the base's median); "gain" when the head wins at least
    nine tenths of the pairs and its median is better by more than the
    base's quartile spread; "unresolved" when that spread is wider than
    ``bound`` of the base's median and not every head run reads better
    than every base run; else "within bound"."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    sides = {"base": summary(base), "head": summary(head)}
    b, h = sides["base"]["median"], sides["head"]["median"]
    change = (h - b) / b
    spread = sides["base"]["q3"] - sides["base"]["q1"]
    if sign * change > bound:
        verdict = "regressed"
    elif wins >= 0.9 * len(base) and sign * (b - h) > spread:
        verdict = "gain"
    elif spread > bound * abs(b) and not all(
        sign * (x - y) > 0 for x in base for y in head
    ):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        **sides, "change": change, "wins": wins, "losses": losses,
        "ties": len(base) - wins - losses,
        "sign_test_p": sign_test(wins, losses), "bound": bound,
        "verdict": verdict,
    }


def _git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", *args], cwd=_ROOT, check=True, capture_output=True, **kwargs
    )


def export(rev: str, into: Path) -> Path:
    """The tree of ``rev`` written under ``into``."""
    into.mkdir()
    tar = _git("archive", "--format=tar", rev).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=tar, check=True)
    return into


def metrics_of(where: str, returncode: int, stdout: str) -> dict:
    """A finished run's end-to-end metrics by name, from its exit status
    and its last line of output, or SystemExit naming ``where`` if it
    failed, printed no JSON object last, was not correct or failed an
    operation."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if returncode != 0 or not isinstance(result, dict):
        sys.exit(f"bench_compare: {where} exited {returncode} with "
                 "no JSON object last")
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.exit(f"bench_compare: {where} reported correct "
                 f"{result.get('correct')}, failed {result.get('failed')}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run(tree: Path, command: list[str], workload: str, seed: int,
        seconds: int) -> dict:
    """One benchmark run in ``tree``, its output checked by
    :func:`metrics_of`; what it wrote on stderr is passed through."""
    argv = [sys.executable, *command[1:], "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(
        argv, cwd=tree, stdout=subprocess.PIPE, text=True,
        timeout=60 * seconds,
    )
    return metrics_of(
        f"{tree.name} {workload} seed {seed}", done.returncode, done.stdout
    )


def host() -> dict:
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {
        "usable_cores": cores,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    revs = {
        side: _git("rev-parse", "--verify", f"{rev}^{{commit}}",
                   text=True).stdout.strip()
        for side, rev in (("base", args.base), ("head", args.head))
    }
    short = _git("rev-parse", "--short", revs["head"], text=True).stdout
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: export(rev, Path(scratch) / side)
                 for side, rev in revs.items()}
        spec, other = (json.loads((trees[side] / "BENCHMARK.json").read_text())
                       for side in ("head", "base"))
        if spec != other:
            sys.exit("bench_compare: the two trees' BENCHMARK.json differ")
        unknown = set(args.workload) - {w["name"] for w in spec["workloads"]}
        if unknown:
            sys.exit(f"bench_compare: unknown workloads {sorted(unknown)}")
        seconds = spec["run_seconds"]
        workloads = {}
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(trees[side], spec["command"], workload,
                                     seed, seconds)
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                          f"wall_s {pair[side]['wall_s']:.3f}",
                          file=sys.stderr)
                pairs.append(pair)
            workloads[workload] = {
                "pairs": pairs,
                "metrics": {
                    m["name"]: {
                        "unit": m["unit"], "better": m["better"],
                        **compare(
                            [p["base"][m["name"]] for p in pairs],
                            [p["head"][m["name"]] for p in pairs],
                            m["better"], m["bound"],
                        ),
                    }
                    for m in spec["end_to_end"]
                },
            }
    report = {
        "base": revs["base"], "head": revs["head"], "pairs": args.pairs,
        "seed": args.seed, "run_seconds": seconds, "host": host(),
        "workloads": workloads,
    }
    out = _ROOT / f"BENCH_{short.strip()}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
