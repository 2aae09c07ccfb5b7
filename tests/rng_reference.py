"""The integer draws ``voskit.rng.Rng`` made before ``integer1`` ran on
Python ints: ``integers`` took n ``uniform`` draws as a numpy batch and
floored each times the span. The reference stream ``integer1`` must equal
draw for draw."""

import numpy as np

from voskit.rng import Rng


def integers(rng: Rng, low: int, high: int, n: int = 1) -> np.ndarray:
    """n integers uniform in [low, high] inclusive, from n draws of ``rng``."""
    if high < low:
        raise ValueError("empty integer range")
    span = high - low + 1
    return low + np.floor(rng.uniform(n) * span).astype(np.int64)
