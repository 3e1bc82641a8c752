"""Command line interface.

Subcommands:

* ``run``      full study grid, summaries to stdout or files
* ``cell``     a single (n, t) grid cell
* ``theory``   variance budget and concentration bound calculators
* ``selftest`` built-in invariant suite

Configuration layers, lowest to highest precedence: built-in defaults,
``--config`` key=value file, command line flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ValidationError
from .harness import (
    ExperimentConfig,
    emit_csv,
    emit_json,
    emit_markdown_table,
    emit_plotdata,
    run_experiment,
)
from .theory import (
    chebyshev_tail,
    chebyshev_threshold,
    hoeffding_tail,
    hybrid_variance,
)

__all__ = ["main", "build_parser", "parse_config_file"]

def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false", "1", "0"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text.lower() in ("true", "1")


# config file key -> parser of its value
_CONFIG_KEYS = {
    "seed": int,
    "alpha": float,
    "k": int,
    "reps": int,
    "sizes": _int_list,
    "trials": _int_list,
    "mu": float,
    "sigma2": float,
    "lambdas": _float_list,
    "shared_streams": _bool,
    "jobs": int,
    "out": str,
    "format": str,
}
# the keys above that set how a study runs, not the study
_RUN_KEYS = ("jobs", "out", "format")


def parse_config_file(path: str | Path) -> dict:
    """Parse a key=value config file; # starts a comment. A malformed
    line or value raises ValidationError located as ``path:line:``, and
    a file that cannot be read one located as ``path:``."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(
            f"{path}: cannot read config file: {reason}"
        ) from None
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(
                f"{path}:{lineno}: expected key=value, got {raw!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValidationError(
                f"{path}:{lineno}: unknown key {key!r}"
            )
        try:
            out[key] = _CONFIG_KEYS[key](value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValidationError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="key=value config file")
    default = ExperimentConfig  # its fields' defaults are class attributes
    p.add_argument("--seed", type=int, help=f"base seed (default {default.seed})")
    p.add_argument("--alpha", type=float, help=f"compounding factor (default {default.alpha})")
    p.add_argument("--k", type=int, help=f"fold count (default {default.k})")
    p.add_argument("--reps", type=int, help=f"cross-validation repetitions (default {default.repetitions})")
    p.add_argument("--jobs", type=int, help="worker count (default: the cores this process may use)")
    p.add_argument(
        "--shared-streams",
        action="store_const",
        const=True,
        default=None,
        help="feed the subsampling method and the compounding method identical draws",
    )
    p.add_argument("--out", metavar="DIR", help="output directory")
    p.add_argument(
        "--format",
        choices=("md", "csv", "json", "plot"),
        help="output format (default md)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionval",
        description="Validation-strategy experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full study grid")
    _add_common_flags(p_run)
    p_run.add_argument(
        "--sizes", type=_int_list, help="dataset sizes, comma separated"
    )
    p_run.add_argument(
        "--trials", type=_int_list, help="trial counts, comma separated"
    )

    p_cell = sub.add_parser("cell", help="run a single grid cell")
    _add_common_flags(p_cell)
    p_cell.add_argument("--n", type=int, required=True, help="dataset size")
    p_cell.add_argument("--t", type=int, required=True, help="trial count")

    p_theory = sub.add_parser(
        "theory", help="variance budget and bound calculators"
    )
    p_theory.add_argument("--sigma2", type=float, default=1.0)
    p_theory.add_argument(
        "--n", type=int, required=True, help="subsample size"
    )
    p_theory.add_argument(
        "--population", type=int, required=True, help="dataset size N"
    )
    p_theory.add_argument(
        "--fold-vars",
        type=_float_list,
        default=(0.0,),
        help="per-fold loss variances, comma separated",
    )
    p_theory.add_argument(
        "--t", type=int, default=10, help="iteration count T"
    )
    p_theory.add_argument(
        "--k-dev",
        type=_float_list,
        default=(1.5, 2.0, 3.0),
        help="deviation multiples for the Chebyshev table",
    )
    p_theory.add_argument(
        "--epsilon",
        type=_float_list,
        default=(0.01, 0.02, 0.05),
        help="deviations for the Hoeffding table",
    )
    p_theory.add_argument(
        "--low", type=float, default=0.0, help="loss lower bound"
    )
    p_theory.add_argument(
        "--high", type=float, default=4.0, help="loss upper bound"
    )

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return parser


def _layered_options(args: argparse.Namespace, overrides: dict) -> dict:
    """Defaults, then config file, then flags, then hard overrides."""
    layered: dict = {}
    if args.config:
        layered.update(parse_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            layered[key] = flag
    layered.update(overrides)
    return layered


def _experiment_config(layered: dict) -> ExperimentConfig:
    """The config of the given study keys; ``ExperimentConfig`` fills in
    the rest with its defaults."""
    return ExperimentConfig(**{
        "repetitions" if key == "reps" else key: value
        for key, value in layered.items()
        if key not in _RUN_KEYS
    })


def _emit(report, fmt: str, out: str | None) -> int:
    if fmt == "md":
        text = "\n".join(
            emit_markdown_table(report, n) for n in report.config.sizes
        )
        print(text, end="")
        if out:
            path = Path(out) / "report.md"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            print(f"wrote {path}", file=sys.stderr)
        return 0
    if out is None:
        print(f"--format {fmt} requires --out DIR", file=sys.stderr)
        return 2
    if fmt == "csv":
        for path in emit_csv(report, out):
            print(f"wrote {path}", file=sys.stderr)
    elif fmt == "json":
        path = emit_json(report, Path(out) / "report.json")
        print(f"wrote {path}", file=sys.stderr)
    else:
        for path in emit_plotdata(report, out):
            print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    """``run``, or ``cell``: the grid narrowed to the one cell (n, t)."""
    cell = args.command == "cell"
    layered = _layered_options(
        args, {"sizes": (args.n,), "trials": (args.t,)} if cell else {}
    )
    report = run_experiment(
        _experiment_config(layered), jobs=layered.get("jobs")
    )
    return _emit(report, layered.get("format", "md"), layered.get("out"))


def _cmd_theory(args: argparse.Namespace) -> int:
    budget = hybrid_variance(
        args.sigma2, args.n, args.population, args.fold_vars, args.t
    )
    per_iteration = budget.srs_component + budget.kfcv_component
    print(f"subsampling variance component  {budget.srs_component:.6e}")
    print(f"fold-average variance component {budget.kfcv_component:.6e}")
    print(f"per-iteration total             {per_iteration:.6e}")
    print(f"total over T={args.t:<4d}              {budget.total_per_t:.6e}")
    print()
    print("k_dev  tail bound  deviation threshold")
    for k_dev in args.k_dev:
        tail = chebyshev_tail(k_dev)
        thr = chebyshev_threshold(per_iteration, args.t, k_dev)
        print(f"{k_dev:<5g}  {tail:<10.4f}  {thr:.6e}")
    print()
    print(f"epsilon  bound (raw)  bound (capped)  losses in [{args.low:g}, {args.high:g}]")
    for eps in args.epsilon:
        bound = hoeffding_tail(eps, args.t, args.low, args.high)
        print(f"{eps:<7g}  {bound.raw:<11.6f}  {bound.capped:.6f}")
    return 0


def _cmd_selftest(_: argparse.Namespace) -> int:
    from .selftest import run_selftest

    return 0 if run_selftest() else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_study,
        "cell": _cmd_study,
        "theory": _cmd_theory,
        "selftest": _cmd_selftest,
    }[args.command]
    try:
        return handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
