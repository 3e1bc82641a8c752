"""Synthetic dataset generation.

A dataset is an immutable vector of i.i.d. Gaussian draws together with
the true distribution parameters, so downstream metrics can measure
estimation error against ground truth instead of plug-in estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .rng import RngStream, standard_normal

__all__ = ["Dataset", "generate_dataset"]


@dataclass(frozen=True, eq=False)
class Dataset:
    """An i.i.d. Gaussian sample with known ground truth.

    ``values`` is write-protected after construction; treat it as
    read-only everywhere.
    """

    values: np.ndarray
    n: int
    true_mean: float
    true_var: float
    seed: int
    stream_id: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if self.values.ndim != 1 or len(self.values) != self.n:
            raise ValidationError(
                f"values must be a length-{self.n} vector, "
                f"got shape {self.values.shape}"
            )
        self.values.setflags(write=False)


def generate_dataset(
    n: int, mu: float, sigma2: float, stream: RngStream
) -> Dataset:
    """Generate ``n`` i.i.d. draws from Normal(mu, sigma2).

    sigma2 is a variance, not a standard deviation, and must be positive.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if not sigma2 > 0:
        raise ValidationError(f"sigma2 must be > 0, got {sigma2}")
    values = mu + np.sqrt(sigma2) * standard_normal(stream, n)
    return Dataset(
        values=values,
        n=n,
        true_mean=float(mu),
        true_var=float(sigma2),
        seed=stream.seed,
        stream_id=stream.stream_id,
    )
