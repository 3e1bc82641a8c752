"""Command line interface.

Subcommands:

* ``run``      full study grid, summaries to stdout or files
* ``cell``     a single (n, t) grid cell
* ``theory``   variance budget and concentration bound calculators
* ``selftest`` built-in invariant suite

Configuration layers, lowest to highest precedence: built-in defaults,
``--config`` key=value file, command line flags. ``_OPTIONS`` states
each config key once: the parser of its value, read by both the file
and the key's flag, and the flag's help where the key has one.
``_FORMATS`` maps each output format to its emitter; its keys are the
only format values either layer accepts.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

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

def _list_of(kind: Callable, what: str) -> Callable[[str], tuple]:
    """The parser of a comma-separated list of ``kind``s."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(p) for p in text.split(",") if p.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}"
            ) from None
    return parse


_int_list = _list_of(int, "integers")
_float_list = _list_of(float, "numbers")


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false", "1", "0"):
        raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")
    return text.lower() in ("true", "1")


def _emit_markdown(report, out: str | None) -> tuple[Path, ...]:
    """Print the report's markdown tables; given ``out``, also write
    them to ``out/report.md``."""
    text = "\n".join(emit_markdown_table(report, n) for n in report.config.sizes)
    print(text, end="")
    if out is None:
        return ()
    path = Path(out) / "report.md"
    path.write_text(text)
    return (path,)


# format name -> emitter of (report, output directory), which returns
# the paths it wrote; only md prints, and only md needs no directory
_FORMATS = {
    "md": _emit_markdown,
    "csv": emit_csv,
    "json": lambda report, out: (emit_json(report, Path(out) / "report.json"),),
    "plot": emit_plotdata,
}


def _format(text: str) -> str:
    if text not in _FORMATS:
        raise argparse.ArgumentTypeError(
            f"expected one of {', '.join(_FORMATS)}, got {text!r}"
        )
    return text


_DEFAULT = ExperimentConfig  # its fields' defaults are class attributes
# config key -> (parser of its value, for a config line and the flag
# alike; the flag's help, or None for a key with no flag). The flags are
# --key, with - for _, in this order, and a bare boolean flag means true.
_OPTIONS = {
    "seed": (int, f"base seed (default {_DEFAULT.seed})"),
    "alpha": (float, f"compounding factor (default {_DEFAULT.alpha})"),
    "k": (int, f"fold count (default {_DEFAULT.k})"),
    "reps": (
        int, f"cross-validation repetitions (default {_DEFAULT.repetitions})"
    ),
    "jobs": (int, "worker count (default: the cores this process may use)"),
    "shared_streams": (
        _bool,
        "feed the subsampling method and the compounding method identical "
        "draws (default false)",
    ),
    "out": (str, "output directory"),
    "format": (_format, f"output format: {', '.join(_FORMATS)} (default md)"),
    "sizes": (_int_list, "dataset sizes, comma separated"),
    "trials": (_int_list, "trial counts, comma separated"),
    "mu": (float, None),
    "sigma2": (float, None),
    "lambdas": (_float_list, None),
}
# the keys that set how a study runs, not the study
_RUN_KEYS = ("jobs", "out", "format")


def parse_config_file(path: str | Path) -> dict:
    """Parse a key=value config file; # starts a comment. A malformed
    line or value, or a key set twice, raises ValidationError located
    as ``path:line:``, and a file that cannot be read one located as
    ``path:``."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(
            f"{path}: cannot read config file: {reason}"
        ) from None
    out: dict = {}
    set_on: dict = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(
                f"{path}:{lineno}: expected key=value, got {raw!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _OPTIONS:
            raise ValidationError(
                f"{path}:{lineno}: unknown key {key!r}"
            )
        if key in set_on:
            raise ValidationError(
                f"{path}:{lineno}: {key}: already set on line {set_on[key]}"
            )
        set_on[key] = lineno
        try:
            out[key] = _OPTIONS[key][0](value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValidationError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


def _add_study_flags(p: argparse.ArgumentParser, skip=()) -> None:
    p.add_argument("--config", metavar="FILE", help="key=value config file")
    for key, (parse, about) in _OPTIONS.items():
        if about is not None and key not in skip:
            bare = {"nargs": "?", "const": True, "metavar": "BOOL"}
            p.add_argument(
                "--" + key.replace("_", "-"), type=parse, help=about,
                **(bare if parse is _bool else {}),
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionval",
        description="Validation-strategy experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_study_flags(sub.add_parser("run", help="run the full study grid"))

    p_cell = sub.add_parser("cell", help="run a single grid cell")
    _add_study_flags(p_cell, skip=("sizes", "trials"))  # set by --n, --t
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
    for key in _OPTIONS:
        flag = getattr(args, key, None)
        if flag is not None:
            layered[key] = flag
    layered.update(overrides)
    return layered


def _experiment_config(layered: dict) -> ExperimentConfig:
    """The config of the given study keys; ``ExperimentConfig`` fills in
    the rest with its defaults. A warning it raises (alpha below 0.8)
    is printed as one ``warning: …`` line on stderr, as errors are."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = ExperimentConfig(**{
            "repetitions" if key == "reps" else key: value
            for key, value in layered.items()
            if key not in _RUN_KEYS
        })
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return config


@contextmanager
def _writing(out: str | None):
    """An OSError raised inside, in making the output directory or in
    writing the report, as the ValidationError ``path: cannot write
    output: reason``, the path being the file it names, else ``out``."""
    try:
        yield
    except OSError as exc:
        path, reason = exc.filename or out or "stdout", exc.strerror or exc
        raise ValidationError(f"{path}: cannot write output: {reason}") from None


def _cmd_study(args: argparse.Namespace) -> int:
    """``run``, or ``cell``: the grid narrowed to the one cell (n, t).
    The config and the output directory are checked before the study
    runs, and an output it cannot write is reported by the same rule
    after it."""
    cell = args.command == "cell"
    layered = _layered_options(
        args, {"sizes": (args.n,), "trials": (args.t,)} if cell else {}
    )
    config = _experiment_config(layered)
    fmt, out = layered.get("format", "md"), layered.get("out")
    if out is not None:
        with _writing(out):
            Path(out).mkdir(parents=True, exist_ok=True)
    elif fmt != "md":
        raise ValidationError(f"--format {fmt} requires --out DIR")
    report = run_experiment(config, jobs=layered.get("jobs"))
    with _writing(out):
        paths = _FORMATS[fmt](report, out)
    for path in paths:
        print(f"wrote {path}", file=sys.stderr)
    return 0


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
