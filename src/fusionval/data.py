"""Synthetic dataset generation.

A dataset is an immutable vector of i.i.d. Gaussian draws together with
the true distribution parameters, so downstream metrics can measure
estimation error against ground truth instead of plug-in estimates.
It stores only the values and the two true parameters; its size ``n``
is the length of the values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    _MAX_ENTRIES, _count, _finite, _positive, _summable, _vector,
)
from .rng import RngStream, standard_normal

__all__ = ["Dataset", "generate_dataset"]


@dataclass(frozen=True, eq=False)
class Dataset:
    """An i.i.d. Gaussian sample with known ground truth; ``n`` is the
    length of ``values``.

    ``values`` must be a non-empty vector of finite reals whose range,
    ``true_mean`` included, keeps the pass kernel's sums and the
    metrics' distances finite (``errors._summable``); it is held
    as float64 (a float64 array as given, anything else as a copy) and
    write-protected after construction; treat it as read-only
    everywhere. ``true_mean`` must be finite and ``true_var`` finite and
    > 0, both kept as floats.
    """

    values: np.ndarray
    true_mean: float
    true_var: float

    def __post_init__(self) -> None:
        values = _vector("values", self.values)
        for name, rule in (("true_mean", _finite), ("true_var", _positive)):
            object.__setattr__(self, name, rule(name, getattr(self, name)))
        _summable("values", values, true_mean=self.true_mean)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)


def generate_dataset(
    n: int, mu: float, sigma2: float, stream: RngStream
) -> Dataset:
    """Generate ``n`` i.i.d. draws from Normal(mu, sigma2).

    ``n`` must be integral (5.0 is taken as 5), from 1 to
    ``errors._MAX_ENTRIES``, and ``mu`` finite. sigma2 is a variance,
    not a standard deviation, and must be finite and > 0.
    """
    n = _count("n", n, 1, _MAX_ENTRIES)
    mu, sigma2 = _finite("mu", mu), _positive("sigma2", sigma2)
    values = mu + np.sqrt(sigma2) * standard_normal(stream, n)
    return Dataset(values=values, true_mean=mu, true_var=sigma2)
