"""Reference computations written apart from fusionval's kernels.

Everything here recomputes from the raw draws with numpy indexing and
``math.fsum`` (exactly rounded sums), so it shares no arithmetic with
the package: a kernel rewrite that only changes last bits still agrees
within the tolerance of :class:`Comparison`, and one that loses
precision at a large mean does not. The random draws themselves are the
package's contract: streams are addressed as
``fusionval.rng.derive_stream`` addresses them, and each pass draws
fraction, subsample and fold permutation in that order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PURPOSE",
    "Check",
    "Comparison",
    "PassResult",
    "expected_inverse_train",
    "grid_trial_key",
    "metric_row",
    "reference_pass",
    "reference_grid_trial",
    "stream_generator",
]

# purpose tags of fusionval.rng.Purpose, restated as the draw contract
PURPOSE = {
    "DATA": 0,
    "SAMPLE": 1,
    "FOLDS": 2,
    "FRACTION": 3,
    "KFCV_DRAWS": 4,
    "FSV_DATA": 5,
    "FSV_SAMPLE": 6,
    "FSV_FOLDS": 7,
    "FSV_FRACTION": 8,
}

RTOL = 1e-9


@dataclass(frozen=True)
class Check:
    """One named pass/fail result, with the figures behind it."""

    name: str
    ok: bool
    detail: str


class Comparison:
    """Program values checked against reference values.

    Each may differ by RTOL of the reference value plus 64 ulps of
    ``scale``, the data's magnitude: values such as |mean - mu| inherit
    the rounding of data near mu.
    """

    def __init__(self, scale: float) -> None:
        self.slack = 64 * math.ulp(scale)
        self.count = 0
        self.worst = 0.0
        self.mismatches: list[str] = []

    def add(self, label: str, got: float, want: float) -> None:
        self.count += 1
        used = abs(got - want) / (RTOL * abs(want) + self.slack)
        self.worst = max(self.worst, used)
        if used > 1:
            self.mismatches.append(f"{label}: {got!r} != {want!r}")

    def check(self, what: str) -> Check:
        return Check(
            "reference-pass",
            not self.mismatches,
            f"{self.count} values of {what} compared with the reference, "
            f"{len(self.mismatches)} differ; the largest difference is "
            f"{self.worst:.2g} of its tolerance"
            + "".join(f"; {m}" for m in self.mismatches[:5]),
        )


def grid_trial_key(n: int, t_total: int, trial: int) -> int:
    """The study's 48-bit trial key for cell (n, t_total), trial ``trial``."""
    digest = hashlib.sha256(f"{n}:{t_total}:{trial}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


def stream_generator(seed: int, key: int, purpose: str) -> np.random.Generator:
    """A fresh generator at the address of ``derive_stream(seed, key, purpose)``."""
    seq = np.random.SeedSequence(
        entropy=seed, spawn_key=((key << 16) | PURPOSE[purpose],)
    )
    return np.random.Generator(np.random.PCG64(seq))


def _mean_var(x: np.ndarray) -> tuple[float, float]:
    mean = math.fsum(x) / len(x)
    dev = x - mean
    return mean, math.fsum(dev * dev) / (len(x) - 1)


def _mse(x: np.ndarray, center: float) -> float:
    dev = x - center
    return math.fsum(dev * dev) / len(x)


@dataclass(frozen=True)
class PassResult:
    """One subsample-and-cross-validate pass, recomputed."""

    mean: float
    var: float
    holdout_mse: float
    fold_losses: tuple[float, ...]
    train_means: tuple[float, ...]
    train_vars: tuple[float, ...]


def reference_pass(
    values: np.ndarray,
    k: int,
    fraction_range: tuple[float, float],
    fraction_gen: np.random.Generator,
    sample_gen: np.random.Generator,
    folds_gen: np.random.Generator,
) -> PassResult:
    """Draw fraction, subsample and folds, then score every split."""
    n = len(values)
    m = int(round(float(fraction_gen.uniform(*fraction_range)) * n))
    picked = np.sort(sample_gen.choice(n, size=m, replace=False, shuffle=False))
    inside = np.zeros(n, dtype=bool)
    inside[picked] = True
    sample = values[picked]
    mean, var = _mean_var(sample)
    perm = folds_gen.permutation(m)
    base, extra = divmod(m, k)
    bounds = np.cumsum([0] + [base + (i < extra) for i in range(k)])
    losses, means, variances = [], [], []
    for i in range(k):
        in_fold = np.zeros(m, dtype=bool)
        in_fold[perm[bounds[i]:bounds[i + 1]]] = True
        train_mean, train_var = _mean_var(sample[~in_fold])
        losses.append(_mse(sample[in_fold], train_mean))
        means.append(train_mean)
        variances.append(train_var)
    return PassResult(
        mean=mean,
        var=var,
        holdout_mse=_mse(values[~inside], mean),
        fold_losses=tuple(losses),
        train_means=tuple(means),
        train_vars=tuple(variances),
    )


def metric_row(p: PassResult, mu: float, sigma2: float) -> dict:
    """The unscaled metric row of a pass, as ``metrics.trial_metrics``
    defines it (bias from the first fold's loss)."""
    return {
        "mean_est": p.mean,
        "var_est": p.var,
        "mse": p.holdout_mse,
        "bias": abs(p.fold_losses[0] - sigma2),
        "roc_me": abs(p.mean - mu),
        "roc_ve": abs(p.var - sigma2),
    }


def reference_grid_trial(config: dict, n: int, t_total: int, trial: int) -> dict:
    """Recompute one study trial: the SRS, KFCV and FSV metric rows and
    the raw FSV iteration loss, from the report's ``config`` dict."""
    seed, k = config["seed"], config["k"]
    mu, sigma2, alpha = config["mu"], config["sigma2"], config["alpha"]
    frac = tuple(config["fraction_range"])
    key = grid_trial_key(n, t_total, trial)

    def gen(purpose):
        return stream_generator(seed, key, purpose)

    values = mu + math.sqrt(sigma2) * gen("DATA").standard_normal(n)
    primary = reference_pass(
        values, k, frac, gen("FRACTION"), gen("SAMPLE"), gen("FOLDS")
    )
    fold0 = primary.fold_losses[0]
    srs = metric_row(primary, mu, sigma2)

    draws = gen("KFCV_DRAWS")
    lambdas = config["lambdas"] or [1.0] * k
    mean_acc = var_acc = loss_acc = 0.0
    for _ in range(config["repetitions"]):
        p = reference_pass(values, k, frac, draws, draws, draws)
        mean_acc += math.fsum(p.train_means)
        var_acc += math.fsum(p.train_vars)
        loss_acc += math.fsum(w * x for w, x in zip(lambdas, p.fold_losses)) / k
    scale = config["repetitions"] * k
    kf_mean, kf_var = mean_acc / scale, var_acc / scale
    kfcv = {
        "mean_est": kf_mean,
        "var_est": kf_var,
        "mse": loss_acc / config["repetitions"],
        "bias": abs(fold0 - sigma2),
        "roc_me": abs(kf_mean - mu),
        "roc_ve": abs(kf_var - sigma2),
    }

    if config["shared_streams"]:
        fsv_pass = primary
    else:
        fsv_values = mu + math.sqrt(sigma2) * gen("FSV_DATA").standard_normal(n)
        fsv_pass = reference_pass(
            fsv_values, k, frac,
            gen("FSV_FRACTION"), gen("FSV_SAMPLE"), gen("FSV_FOLDS"),
        )
    fsv = {
        name: alpha * v for name, v in metric_row(fsv_pass, mu, sigma2).items()
    }
    return {
        "SRS": srs,
        "KFCV": kfcv,
        "FSV": fsv,
        "fsv_iteration_loss": math.fsum(fsv_pass.fold_losses) / k,
    }


def expected_inverse_train(
    n: int, k: int, fraction_range: tuple[float, float]
) -> float:
    """E[1/m_train] of a mean fold loss: the average over the k folds of
    1/(m - |fold|), with m = round(f*n) and f uniform on the window."""
    low, high = fraction_range
    m = np.arange(math.floor(low * n), math.ceil(high * n) + 1)
    width = np.minimum(high, (m + 0.5) / n) - np.maximum(low, (m - 0.5) / n)
    keep = width > 0
    m, weight = m[keep], width[keep] / (high - low)
    base, extra = np.divmod(m, k)
    inverse = (extra / (m - base - 1) + (k - extra) / (m - base)) / k
    return float(np.sum(weight * inverse))
