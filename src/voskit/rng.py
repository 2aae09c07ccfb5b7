"""Deterministic counter-based random number generator.

Synthetic corpora and training runs must be reproducible bit for bit from a
single integer seed, independent of platform, process or chunking of the
draw calls. The generator here is SplitMix64 driven by a counter: draw i of
stream `seed` is ``mix64(seed + (i + 1) * GOLDEN)``. Because each output
depends only on (seed, i), draws can be produced one at a time or as numpy
batches with identical results: one mix, masked to 64 bits, runs on a
uint64 array or on a Python int, so a single integer draw and a child
stream's seed need no numpy scalar.

Constants are the standard SplitMix64 ones (Steele, Lea & Flood).
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF


def _mix64(z):
    """SplitMix64's output mix of a uint64 array or of a Python int below
    2^64; each product wraps modulo 2^64."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class Rng:
    """SplitMix64 stream addressed by (seed, draw counter)."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._counter = 0

    def uint64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit draws as a uint64 array."""
        if n < 0:
            raise ValueError("draw count must be >= 0")
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _mix64(self._seed + idx * _GOLDEN)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform in [0, 1), using the top 53 bits of each draw."""
        return (self.uint64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def integer1(self, low: int, high: int) -> int:
        """One integer uniform in [low, high] inclusive: the floor of the
        next ``uniform`` draw times the span (bias is negligible for the
        small ranges used here). Computed on Python ints, to the bit what
        the numpy stream gives."""
        if high < low:
            raise ValueError("empty integer range")
        self._counter += 1
        z = _mix64((self._seed + self._counter * _GOLDEN) & _MASK)
        return low + math.floor((z >> 11) * 2.0**-53 * (high - low + 1))

    def uniform_range(self, low: float, high: float, n: int = 1) -> np.ndarray:
        return low + (high - low) * self.uniform(n)

    def shuffle(self, items) -> None:
        """In-place Fisher-Yates shuffle of an array or list; its n - 1 draws
        come in one batch, and the swaps run on a Python list that is then
        written back."""
        spans = np.arange(len(items), 1, -1)  # i + 1 for i = n - 1, ..., 1
        picks = np.floor(self.uniform(len(spans)) * spans).astype(np.int64)
        order = items.tolist() if isinstance(items, np.ndarray) else list(items)
        for i, j in zip(range(len(order) - 1, 0, -1), picks.tolist()):
            order[i], order[j] = order[j], order[i]
        items[:] = order

    def spawn(self, key: int) -> "Rng":
        """Independent child stream; deterministic in (seed, key mod 2^64)."""
        return Rng(_mix64((self._seed + key * _MIX2) & _MASK))
