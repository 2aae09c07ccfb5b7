"""Windowed statistics on dense 2-D grids.

Grids are plain 2-D float numpy arrays (row-major, height x width); every
function also takes a stack of grids with leading axes (..., H, W) and
treats each grid of the stack as a separate call would. The module provides
local weighted means, variances and covariances under a Gaussian window,
the building blocks for structural-similarity scoring.

The Gaussian window is separable, so applying it to an H x W grid is one
linear map per axis: ``windowed_mean(g) = A_h @ g @ A_w.T`` with ``A_h``
(H x H) and ``A_w`` (W x W) built from the window's 1-D taps. Borders use
symmetric (mirror, edge-repeating) padding so statistics do not darken
toward the grid edge, where segmentation masks concentrate their detail;
the padding is folded into each axis matrix, including repeated reflection
on axes shorter than the window radius. The exact adjoint that analytic
gradients of window-based losses need is the transpose,
``A_h.T @ a @ A_w``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class GaussianWindow:
    """Normalized square Gaussian window of odd side ``size``.

    Raises ValueError unless size is a positive odd integer and sigma > 0.
    """

    size: int
    sigma: float

    def __post_init__(self):
        if self.size < 1 or self.size % 2 == 0:
            raise ValueError(f"window size must be a positive odd integer, got {self.size}")
        if not self.sigma > 0:
            raise ValueError(f"window sigma must be > 0, got {self.sigma}")

    @property
    def taps(self) -> np.ndarray:
        """Normalized 1-D taps, shape (size,); the window is their outer product."""
        x = np.arange(self.size, dtype=np.float64) - self.size // 2
        g = np.exp(-(x**2) / (2.0 * self.sigma**2))
        return g / g.sum()

    @property
    def weights(self) -> np.ndarray:
        """The 2-D window, shape (size, size)."""
        t = self.taps
        return np.outer(t, t)


def gaussian_window(size: int = 11, sigma: float = 1.5) -> GaussianWindow:
    """The normalized Gaussian window; 11x11 with sigma 1.5 by default."""
    return GaussianWindow(size=size, sigma=float(sigma))


def as_grid(a) -> np.ndarray:
    """Validate and return a float64 grid, or a stack of grids (..., H, W)."""
    g = np.asarray(a, dtype=np.float64)
    if g.ndim < 2 or g.shape[-2] < 1 or g.shape[-1] < 1:
        raise ValueError(f"expected a 2-D grid with positive dims, got shape {g.shape}")
    return g


def check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    """The grid dims (the last two axes) agree; leading stack axes broadcast."""
    if a.shape[-2:] != b.shape[-2:]:
        raise ValueError(f"grid shape mismatch: {a.shape} vs {b.shape}")


@lru_cache(maxsize=32)
def _axis_operator(n: int, w: GaussianWindow) -> np.ndarray:
    """(n, n) matrix applying the window's taps along an axis of length n.

    Row i is the windowed mean at position i written in terms of the
    unpadded samples: the taps slide over the symmetric pad of an identity,
    so every mirrored sample is credited to the cell it copies.
    """
    r = w.size // 2
    padded = np.pad(np.eye(n), ((r, r), (0, 0)), mode="symmetric")
    op = sum(t * padded[k : k + n] for k, t in enumerate(w.taps))
    op.flags.writeable = False
    return op


def windowed_mean(g: np.ndarray, w: GaussianWindow) -> np.ndarray:
    """Apply the window as a local weighted mean with symmetric padding."""
    g = as_grid(g)
    h, wd = g.shape[-2:]
    return _axis_operator(h, w) @ g @ _axis_operator(wd, w).T


def windowed_mean_adjoint(a: np.ndarray, w: GaussianWindow) -> np.ndarray:
    """Exact transpose of :func:`windowed_mean` as a linear operator:
    <windowed_mean(x), a> == <x, windowed_mean_adjoint(a)>."""
    a = as_grid(a)
    h, wd = a.shape[-2:]
    return _axis_operator(h, w).T @ a @ _axis_operator(wd, w)


def windowed_statistics(
    a: np.ndarray, b: np.ndarray, w: GaussianWindow
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Means, variances and covariance of two grids under window w, as
    ``(mu_a, mu_b, var_a, var_b, cov)`` from five window applications.

    Each variance is E[x^2] - E[x]^2, clamped at 0 to absorb cancellation
    noise on locally constant input; the covariance is E[ab] - E[a]E[b],
    reusing the two means.
    """
    a = as_grid(a)
    b = as_grid(b)
    check_same_shape(a, b)
    mu_a = windowed_mean(a, w)
    var_a = np.maximum(windowed_mean(a * a, w) - mu_a * mu_a, 0.0)
    mu_b = windowed_mean(b, w)
    var_b = np.maximum(windowed_mean(b * b, w) - mu_b * mu_b, 0.0)
    cov = windowed_mean(a * b, w) - mu_a * mu_b
    return mu_a, mu_b, var_a, var_b, cov
