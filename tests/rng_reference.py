"""References for ``voskit.rng.Rng``: the integer draws it made before
``integer1`` ran on Python ints, where ``integers`` took n ``uniform`` draws
as a numpy batch and floored each times the span, which ``integer1`` must
equal draw for draw; and ``spawn`` as it was before one mix served Python
ints and arrays, on numpy scalars, whose child streams ``spawn`` must
equal."""

import numpy as np

from voskit.rng import Rng

_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def integers(rng: Rng, low: int, high: int, n: int = 1) -> np.ndarray:
    """n integers uniform in [low, high] inclusive, from n draws of ``rng``."""
    if high < low:
        raise ValueError("empty integer range")
    span = high - low + 1
    return low + np.floor(rng.uniform(n) * span).astype(np.int64)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix of uint64 values; wraps modulo 2^64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def spawn(rng: Rng, key: int) -> Rng:
    """The child stream of ``rng`` for a key in [0, 2^64)."""
    with np.errstate(over="ignore"):
        child = _mix64(np.asarray(np.uint64(rng._seed) + np.uint64(key) * np.uint64(_MIX2)))
    return Rng(int(child))
