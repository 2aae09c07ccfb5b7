import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voskit.grid import (
    WINDOW_TAPS,
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


WEIGHTS = np.outer(WINDOW_TAPS, WINDOW_TAPS)


def random_grid(seed: int, shape=(13, 17)) -> np.ndarray:
    return Rng(seed).uniform(shape[0] * shape[1]).reshape(shape)


def test_window_invariants():
    assert WINDOW_TAPS.shape == (11,) and not WINDOW_TAPS.flags.writeable
    # sigma 1.5 about the center tap
    x = np.arange(11) - 5
    assert np.allclose(WINDOW_TAPS / WINDOW_TAPS[5], np.exp(-(x**2) / (2 * 1.5**2)), rtol=1e-14)
    assert WEIGHTS.shape == (11, 11)
    assert abs(WEIGHTS.sum() - 1.0) < 1e-12
    assert np.all(WEIGHTS > 0)
    # symmetric in both axes and peaked at the center
    assert np.allclose(WEIGHTS, WEIGHTS[::-1, :])
    assert np.allclose(WEIGHTS, WEIGHTS[:, ::-1])
    assert WEIGHTS[5, 5] == WEIGHTS.max()


def test_windowed_mean_matches_brute_force():
    for seed in range(5):
        g = random_grid(seed)
        assert np.allclose(windowed_mean(g), brute_windowed_mean(g, WEIGHTS), atol=1e-12)


def test_windowed_mean_small_grid_multi_reflection():
    # Grid smaller than the window radius exercises repeated reflection.
    g = random_grid(3, shape=(4, 3))
    assert np.allclose(windowed_mean(g), brute_windowed_mean(g, WEIGHTS), atol=1e-12)


def test_windowed_mean_of_constant_is_constant():
    g = np.full((9, 12), 0.37)
    assert np.allclose(windowed_mean(g), 0.37, atol=1e-12)


def test_windowed_mean_is_linear():
    a, b = random_grid(1), random_grid(2)
    lhs = windowed_mean(2.5 * a - 0.5 * b)
    rhs = 2.5 * windowed_mean(a) - 0.5 * windowed_mean(b)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_windowed_mean_translation_equivariance_in_interior():
    g = random_grid(4, shape=(24, 24))
    shifted = np.roll(g, (2, 3), axis=(0, 1))
    m = windowed_mean(g)
    ms = windowed_mean(shifted)
    # compare away from borders where padding differs
    inner = (slice(8, 16), slice(8, 16))
    assert np.allclose(ms[inner], np.roll(m, (2, 3), axis=(0, 1))[inner], atol=1e-12)


def test_adjoint_identity():
    # <W g, a> == <g, W' a> makes windowed_mean_adjoint the exact transpose.
    for seed in range(10):
        g = random_grid(seed)
        a = random_grid(seed + 100)
        lhs = float(np.sum(windowed_mean(g) * a))
        rhs = float(np.sum(g * windowed_mean_adjoint(a)))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_adjoint_identity_small_grid():
    g = random_grid(0, shape=(4, 5))
    a = random_grid(1, shape=(4, 5))
    lhs = float(np.sum(windowed_mean(g) * a))
    rhs = float(np.sum(g * windowed_mean_adjoint(a)))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_windowed_moments_match_brute_force():
    for seed in range(5):
        g = random_grid(seed)
        mean, _, var, _, _ = windowed_statistics(g, g)
        ref_mean = brute_windowed_mean(g, WEIGHTS)
        # E[(x - mu)^2] computed directly, not via the difference of squares
        k, r = WINDOW_TAPS.size, WINDOW_TAPS.size // 2
        padded = np.pad(g, r, mode="symmetric")
        ref_var = np.zeros_like(g)
        for a in range(k):
            for b in range(k):
                window_vals = padded[a : a + g.shape[0], b : b + g.shape[1]]
                ref_var += WEIGHTS[a, b] * (window_vals - ref_mean) ** 2
        assert np.allclose(mean, ref_mean, atol=1e-12)
        assert np.allclose(var, ref_var, atol=1e-10)
        assert np.all(var >= 0.0)


def test_windowed_covariance_matches_brute_force():
    a, b = random_grid(11), random_grid(12)
    cov = windowed_statistics(a, b)[-1]
    ma = brute_windowed_mean(a, WEIGHTS)
    mb = brute_windowed_mean(b, WEIGHTS)
    k, r = WINDOW_TAPS.size, WINDOW_TAPS.size // 2
    pa = np.pad(a, r, mode="symmetric")
    pb = np.pad(b, r, mode="symmetric")
    ref = np.zeros_like(a)
    for i in range(k):
        for j in range(k):
            va = pa[i : i + a.shape[0], j : j + a.shape[1]]
            vb = pb[i : i + a.shape[0], j : j + a.shape[1]]
            ref += WEIGHTS[i, j] * (va - ma) * (vb - mb)
    assert np.allclose(cov, ref, atol=1e-10)


def test_covariance_of_grid_with_itself_is_variance():
    g = random_grid(21)
    _, _, var, _, cov = windowed_statistics(g, g)
    assert np.allclose(cov, var, atol=1e-12)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        windowed_statistics(np.zeros((3, 3)), np.zeros((4, 3)))


def test_non_2d_rejected():
    with pytest.raises(ValueError):
        windowed_mean(np.zeros(5))


def test_stacks_match_slices_exactly():
    stack = Rng(3).uniform(2 * 3 * 9 * 14).reshape(2, 3, 9, 14)
    other = random_grid(4, (9, 14))
    means = windowed_mean(stack)
    adjoints = windowed_mean_adjoint(stack)
    stats = windowed_statistics(stack, other)
    for index in np.ndindex(2, 3):
        assert means[index].tobytes() == windowed_mean(stack[index]).tobytes()
        assert adjoints[index].tobytes() == windowed_mean_adjoint(stack[index]).tobytes()
        for got, want in zip(stats, windowed_statistics(stack[index], other)):
            assert np.broadcast_to(got, stack.shape)[index].tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        windowed_statistics(stack, random_grid(4, (9, 13)))


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
    assert np.allclose(windowed_mean(g), brute_windowed_mean(g, WEIGHTS), rtol=0, atol=1e-12)
    lhs = float(np.sum(windowed_mean(g) * a))
    rhs = float(np.sum(g * windowed_mean_adjoint(a)))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
