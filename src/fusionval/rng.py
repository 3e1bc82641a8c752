"""Deterministic, splittable random streams.

Every stochastic step in the package draws from an :class:`RngStream`
addressed by ``(seed, stream_id)``. The stream id packs a trial index and
a purpose tag so that each trial's data generation, subsampling, fold
shuffling, and fraction draws are statistically independent and can be
replayed in isolation. Two streams with the same address always produce
the same draw sequence.

Backed by numpy's PCG64 seeded through ``SeedSequence(entropy=seed,
spawn_key=(stream_id,))``: period 2**128, well above the 2**64 floor a
full study consumes, and distinct spawn keys give independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import _count

__all__ = [
    "MAX_PURPOSE",
    "Purpose",
    "RngStream",
    "derive_stream",
    "standard_normal",
]

# purpose tags occupy the low 16 bits of the stream id
_PURPOSE_BITS = 16
MAX_PURPOSE = 1 << _PURPOSE_BITS


class Purpose(IntEnum):
    """Reserved purpose tags for the experiment pipelines."""

    DATA = 0
    SAMPLE = 1
    FOLDS = 2
    FRACTION = 3
    KFCV_DRAWS = 4
    FSV_DATA = 5
    FSV_SAMPLE = 6
    FSV_FOLDS = 7
    FSV_FRACTION = 8


@dataclass
class RngStream:
    """A named random stream.

    Parameters
    ----------
    seed : int
        Base seed shared by every stream of one experiment.
    stream_id : int
        Non-negative stream address; see :func:`derive_stream`.

    Both must be integral (5.0 is taken as 5) and >= 0.
    """

    seed: int
    stream_id: int
    generator: np.random.Generator = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.seed = _count("seed", self.seed, 0)
        self.stream_id = _count("stream_id", self.stream_id, 0)
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id,)
        )
        self.generator = np.random.Generator(np.random.PCG64(seq))

    def clone(self) -> "RngStream":
        """Fresh stream at the same address, rewound to the start."""
        return RngStream(self.seed, self.stream_id)


def derive_stream(base_seed: int, trial_index: int, purpose_tag: int) -> RngStream:
    """Derive the stream for one (trial, purpose) pair.

    The address is ``trial_index * 2**16 + purpose_tag``, so purposes of
    the same trial occupy one contiguous block and no two (trial, purpose)
    pairs collide. Both must be integral, so a :class:`Purpose` member
    is a purpose tag.
    """
    trial_index = _count("trial_index", trial_index, 0)
    purpose_tag = _count("purpose_tag", purpose_tag, 0, MAX_PURPOSE - 1)
    return RngStream(base_seed, (trial_index << _PURPOSE_BITS) | purpose_tag)


def standard_normal(stream: RngStream, count: int) -> np.ndarray:
    """Draw ``count`` i.i.d. standard normal variates from ``stream``;
    ``count`` must be integral."""
    return stream.generator.standard_normal(_count("count", count, 0))
