"""Windowed statistics on dense 2-D grids.

Grids are plain 2-D float numpy arrays (row-major, height x width); every
function also takes a stack of grids with leading axes (..., H, W) and
treats each grid of the stack as a separate call would. The module provides
local weighted means, variances and covariances under one fixed window,
the 11x11 Gaussian with sigma 1.5 of structural-similarity scoring.

The window is separable, so applying it to an H x W grid is one
linear map per axis: ``windowed_mean(g) = A_h @ g @ A_w.T`` with ``A_h``
(H x H) and ``A_w`` (W x W) built from its 1-D taps ``WINDOW_TAPS``. Borders use
symmetric (mirror, edge-repeating) padding so statistics do not darken
toward the grid edge, where segmentation masks concentrate their detail;
the padding is folded into each axis matrix, including repeated reflection
on axes shorter than the window radius. The exact adjoint that analytic
gradients of window-based losses need is the transpose,
``A_h.T @ a @ A_w``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Normalized 1-D taps of the 11x11, sigma 1.5 Gaussian window of SSIM
# (Wang et al., IEEE TIP 2004); the window is their outer product.
WINDOW_TAPS = np.exp(-((np.arange(11, dtype=np.float64) - 11 // 2) ** 2) / (2.0 * 1.5**2))
WINDOW_TAPS /= WINDOW_TAPS.sum()
WINDOW_TAPS.flags.writeable = False


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
def _axis_operator(n: int) -> np.ndarray:
    """(n, n) matrix applying the window taps along an axis of length n.

    Row i is the windowed mean at position i written in terms of the
    unpadded samples: the taps slide over the symmetric pad of an identity,
    so every mirrored sample is credited to the cell it copies.
    """
    r = WINDOW_TAPS.size // 2
    padded = np.pad(np.eye(n), ((r, r), (0, 0)), mode="symmetric")
    op = sum(t * padded[k : k + n] for k, t in enumerate(WINDOW_TAPS))
    op.flags.writeable = False
    return op


def windowed_mean(g: np.ndarray) -> np.ndarray:
    """Apply the window as a local weighted mean with symmetric padding."""
    g = as_grid(g)
    h, wd = g.shape[-2:]
    return _axis_operator(h) @ g @ _axis_operator(wd).T


def windowed_mean_adjoint(a: np.ndarray) -> np.ndarray:
    """Exact transpose of :func:`windowed_mean` as a linear operator:
    <windowed_mean(x), a> == <x, windowed_mean_adjoint(a)>."""
    a = as_grid(a)
    h, wd = a.shape[-2:]
    return _axis_operator(h).T @ a @ _axis_operator(wd)


def windowed_statistics(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Means, variances and covariance of two grids under the window, as
    ``(mu_a, mu_b, var_a, var_b, cov)`` from five window applications.

    Each variance is E[x^2] - E[x]^2, clamped at 0 to absorb cancellation
    noise on locally constant input; the covariance is E[ab] - E[a]E[b],
    reusing the two means. Each product's buffer then holds the product of
    means that its windowed mean is reduced by.
    """
    a = as_grid(a)
    b = as_grid(b)
    check_same_shape(a, b)
    mu_a = windowed_mean(a)
    sq = a * a
    var_a = windowed_mean(sq)
    var_a -= np.multiply(mu_a, mu_a, out=sq)
    np.maximum(var_a, 0.0, out=var_a)
    mu_b = windowed_mean(b)
    sq = b * b
    var_b = windowed_mean(sq)
    var_b -= np.multiply(mu_b, mu_b, out=sq)
    np.maximum(var_b, 0.0, out=var_b)
    ab = a * b
    cov = windowed_mean(ab)
    cov -= np.multiply(mu_a, mu_b, out=ab)
    return mu_a, mu_b, var_a, var_b, cov
