import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voskit.grid import (
    gaussian_window,
    windowed_mean,
    windowed_mean_adjoint,
    windowed_statistics,
)
from voskit.rng import Rng


def brute_windowed_mean(g: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Independent reference: symmetric-pad with np.pad, then an explicit
    double loop over window offsets."""
    k = weights.shape[0]
    r = k // 2
    padded = np.pad(g, r, mode="symmetric")
    out = np.zeros_like(g, dtype=np.float64)
    for a in range(k):
        for b in range(k):
            out += weights[a, b] * padded[a : a + g.shape[0], b : b + g.shape[1]]
    return out


def random_grid(seed: int, shape=(13, 17)) -> np.ndarray:
    return Rng(seed).uniform(shape[0] * shape[1]).reshape(shape)


def test_window_invariants():
    w = gaussian_window()
    assert w.size == 11 and w.sigma == 1.5
    assert w.weights.shape == (11, 11)
    assert abs(w.weights.sum() - 1.0) < 1e-12
    assert np.all(w.weights > 0)
    # symmetric in both axes and peaked at the center
    assert np.allclose(w.weights, w.weights[::-1, :])
    assert np.allclose(w.weights, w.weights[:, ::-1])
    assert w.weights[5, 5] == w.weights.max()


@pytest.mark.parametrize("size,sigma", [(0, 1.5), (4, 1.5), (-3, 1.5), (11, 0.0), (11, -1.0)])
def test_window_rejects_bad_parameters(size, sigma):
    with pytest.raises(ValueError):
        gaussian_window(size, sigma)


def test_windowed_mean_matches_brute_force():
    w = gaussian_window()
    for seed in range(5):
        g = random_grid(seed)
        assert np.allclose(windowed_mean(g, w), brute_windowed_mean(g, w.weights), atol=1e-12)


def test_windowed_mean_small_grid_multi_reflection():
    # Grid smaller than the window radius exercises repeated reflection.
    w = gaussian_window()
    g = random_grid(3, shape=(4, 3))
    assert np.allclose(windowed_mean(g, w), brute_windowed_mean(g, w.weights), atol=1e-12)


def test_windowed_mean_of_constant_is_constant():
    w = gaussian_window()
    g = np.full((9, 12), 0.37)
    assert np.allclose(windowed_mean(g, w), 0.37, atol=1e-12)


def test_windowed_mean_is_linear():
    w = gaussian_window()
    a, b = random_grid(1), random_grid(2)
    lhs = windowed_mean(2.5 * a - 0.5 * b, w)
    rhs = 2.5 * windowed_mean(a, w) - 0.5 * windowed_mean(b, w)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_windowed_mean_translation_equivariance_in_interior():
    w = gaussian_window()
    g = random_grid(4, shape=(24, 24))
    shifted = np.roll(g, (2, 3), axis=(0, 1))
    m = windowed_mean(g, w)
    ms = windowed_mean(shifted, w)
    # compare away from borders where padding differs
    inner = (slice(8, 16), slice(8, 16))
    assert np.allclose(ms[inner], np.roll(m, (2, 3), axis=(0, 1))[inner], atol=1e-12)


def test_adjoint_identity():
    # <W g, a> == <g, W' a> makes windowed_mean_adjoint the exact transpose.
    w = gaussian_window()
    for seed in range(10):
        g = random_grid(seed)
        a = random_grid(seed + 100)
        lhs = float(np.sum(windowed_mean(g, w) * a))
        rhs = float(np.sum(g * windowed_mean_adjoint(a, w)))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_adjoint_identity_small_grid():
    w = gaussian_window()
    g = random_grid(0, shape=(4, 5))
    a = random_grid(1, shape=(4, 5))
    lhs = float(np.sum(windowed_mean(g, w) * a))
    rhs = float(np.sum(g * windowed_mean_adjoint(a, w)))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_windowed_moments_match_brute_force():
    w = gaussian_window()
    for seed in range(5):
        g = random_grid(seed)
        mean, _, var, _, _ = windowed_statistics(g, g, w)
        ref_mean = brute_windowed_mean(g, w.weights)
        # E[(x - mu)^2] computed directly, not via the difference of squares
        k, r = w.size, w.size // 2
        padded = np.pad(g, r, mode="symmetric")
        ref_var = np.zeros_like(g)
        for a in range(k):
            for b in range(k):
                window_vals = padded[a : a + g.shape[0], b : b + g.shape[1]]
                ref_var += w.weights[a, b] * (window_vals - ref_mean) ** 2
        assert np.allclose(mean, ref_mean, atol=1e-12)
        assert np.allclose(var, ref_var, atol=1e-10)
        assert np.all(var >= 0.0)


def test_windowed_covariance_matches_brute_force():
    w = gaussian_window()
    a, b = random_grid(11), random_grid(12)
    cov = windowed_statistics(a, b, w)[-1]
    ma = brute_windowed_mean(a, w.weights)
    mb = brute_windowed_mean(b, w.weights)
    k, r = w.size, w.size // 2
    pa = np.pad(a, r, mode="symmetric")
    pb = np.pad(b, r, mode="symmetric")
    ref = np.zeros_like(a)
    for i in range(k):
        for j in range(k):
            va = pa[i : i + a.shape[0], j : j + a.shape[1]]
            vb = pb[i : i + a.shape[0], j : j + a.shape[1]]
            ref += w.weights[i, j] * (va - ma) * (vb - mb)
    assert np.allclose(cov, ref, atol=1e-10)


def test_covariance_of_grid_with_itself_is_variance():
    w = gaussian_window()
    g = random_grid(21)
    _, _, var, _, cov = windowed_statistics(g, g, w)
    assert np.allclose(cov, var, atol=1e-12)


def test_shape_mismatch_rejected():
    w = gaussian_window()
    with pytest.raises(ValueError):
        windowed_statistics(np.zeros((3, 3)), np.zeros((4, 3)), w)


def test_non_2d_rejected():
    w = gaussian_window()
    with pytest.raises(ValueError):
        windowed_mean(np.zeros(5), w)


def test_stacks_match_slices_exactly():
    w = gaussian_window()
    stack = Rng(3).uniform(2 * 3 * 9 * 14).reshape(2, 3, 9, 14)
    other = random_grid(4, (9, 14))
    means = windowed_mean(stack, w)
    adjoints = windowed_mean_adjoint(stack, w)
    stats = windowed_statistics(stack, other, w)
    for index in np.ndindex(2, 3):
        assert means[index].tobytes() == windowed_mean(stack[index], w).tobytes()
        assert adjoints[index].tobytes() == windowed_mean_adjoint(stack[index], w).tobytes()
        for got, want in zip(stats, windowed_statistics(stack[index], other, w)):
            assert np.broadcast_to(got, stack.shape)[index].tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        windowed_statistics(stack, random_grid(4, (9, 13)), w)


@st.composite
def grid_pairs(draw):
    h = draw(st.integers(1, 24))
    w = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_grid(seed, (h, w)), random_grid(seed + 1, (h, w))


@settings(max_examples=60, deadline=None)
@given(grid_pairs())
def test_separable_operator_matches_loop_reference_and_adjoint(pair):
    # Shapes down to 1x1 put every axis shorter than the window radius.
    g, a = pair
    w = gaussian_window()
    assert np.allclose(windowed_mean(g, w), brute_windowed_mean(g, w.weights), rtol=0, atol=1e-12)
    lhs = float(np.sum(windowed_mean(g, w) * a))
    rhs = float(np.sum(g * windowed_mean_adjoint(a, w)))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
