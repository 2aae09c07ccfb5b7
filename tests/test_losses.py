import math
import os
import subprocess
import sys
import tracemalloc
from hashlib import sha256

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voskit import grid, gradcheck, losses
from voskit.gradcheck import max_err
from voskit.losses import (
    CLAMP_EPS,
    IOU_EPS,
    SSIM_C1,
    SSIM_C2,
    LossWeights,
    ce_loss,
    fit_toy_segmenter,
    iou_loss,
    ssim_loss,
    total_loss,
)
from voskit.motion_mlp import gelu, mlp_backward, mlp_forward
from voskit.rng import Rng

import fd_reference
from fd_reference import central_diff


def soft_pair(seed: int, size: int = 10):
    rng = Rng(seed)
    pred = rng.uniform_range(0.05, 0.95, size * size).reshape(size, size)
    target = (rng.uniform(size * size).reshape(size, size) > 0.5).astype(np.float64)
    return pred, target


# --- cross entropy ---


def test_ce_uniform_half_prediction_is_ln2():
    pred = np.full((6, 6), 0.5)
    target = (np.arange(36).reshape(6, 6) % 2).astype(np.float64)
    assert abs(ce_loss(pred, target).value - math.log(2.0)) < 1e-9


def test_ce_perfect_prediction_is_tiny():
    target = np.zeros((4, 4))
    target[1:3, 1:3] = 1.0
    out = ce_loss(target, target)
    # clamp keeps logs finite; value is the clamp floor, not exactly 0
    assert 0.0 <= out.value < 1e-6
    assert np.all(np.isfinite(out.grad))


def test_ce_value_matches_direct_formula():
    for seed in range(5):
        pred, target = soft_pair(seed)
        expected = -np.mean(target * np.log(pred) + (1 - target) * np.log(1 - pred))
        assert abs(ce_loss(pred, target).value - expected) < 1e-12


def test_ce_gradient_zero_where_clamped():
    pred = np.array([[0.0, 0.5], [1.0, 0.25]])
    target = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = ce_loss(pred, target)
    assert out.grad[0, 0] == 0.0
    assert out.grad[1, 0] == 0.0
    assert out.grad[0, 1] != 0.0


def test_ce_rejects_soft_targets():
    with pytest.raises(ValueError):
        ce_loss(np.full((2, 2), 0.5), np.full((2, 2), 0.3))


# --- soft IoU ---


def test_iou_half_overlap_soft_case():
    # pred 0.5 everywhere, target 1 on exactly half the pixels:
    # I = N/4, U = 3N/4, loss = 1 - 1/3 = 2/3
    pred = np.full((16, 16), 0.5)
    target = np.zeros((16, 16))
    target[:, 8:] = 1.0
    assert abs(iou_loss(pred, target).value - 2.0 / 3.0) < 1e-9


def test_iou_disjoint_masks_loss_one():
    pred = np.zeros((5, 5))
    target = np.zeros((5, 5))
    pred[0, 0] = 1.0
    target[4, 4] = 1.0
    assert abs(iou_loss(pred, target).value - 1.0) < 1e-6


def test_iou_identical_masks_loss_zero():
    m = np.zeros((5, 5))
    m[1:4, 2:5] = 1.0
    assert abs(iou_loss(m, m).value) < 1e-6


def test_iou_value_matches_direct_formula():
    for seed in range(5):
        pred, target = soft_pair(seed)
        inter = np.sum(pred * target)
        union = np.sum(pred + target - pred * target) + IOU_EPS
        assert abs(iou_loss(pred, target).value - (1 - inter / union)) < 1e-12


@pytest.mark.parametrize("seed", [0, 1895, 3225])
def test_iou_gradient_of_one_grid_squares_the_union_as_a_float(seed):
    # At seeds 1895 and 3225, union**2 (pow) and union*union differ in the
    # last bit; squaring the union after it broadcasts to an array can show.
    pred, target = soft_pair(seed, size=6)
    inter = float(np.sum(pred * target))
    union = float(np.sum(pred + target - pred * target)) + IOU_EPS
    expected = -(target * union - inter * (1.0 - target)) / union**2
    assert iou_loss(pred, target).grad.tobytes() == expected.tobytes()


# --- SSIM ---


def test_ssim_self_similarity_is_zero():
    rng = Rng(3)
    m = (rng.uniform(144).reshape(12, 12) > 0.6).astype(np.float64)
    assert abs(ssim_loss(m, m).value) < 1e-6


def test_ssim_loss_in_unit_range_and_sensitive():
    pred, target = soft_pair(8, size=16)
    out = ssim_loss(pred, target)
    assert 0.0 <= out.value <= 2.0  # SSIM in [-1, 1]
    assert out.value > 0.01
    assert out.grad.shape == pred.shape


def test_ssim_constant_shift_detected():
    base = np.full((12, 12), 0.4)
    target = np.zeros((12, 12))
    target[4:8, 4:8] = 1.0
    # all-constant prediction has no structure: loss well above self-match
    assert ssim_loss(base, target).value > 0.3


# --- composition ---


def test_total_equals_weighted_sum_bit_exact():
    for seed in range(5):
        pred, target = soft_pair(seed)
        parts = (
            ce_loss(pred, target),
            ssim_loss(pred, target),
            iou_loss(pred, target),
        )
        for weights in (
            LossWeights(),
            LossWeights(2.0, 0.5, 1.25),
            LossWeights(1.0, 0.0, 3.0),
        ):
            out = total_loss(pred, target, weights)
            expected = (
                weights.lambda_ce * parts[0].value
                + weights.lambda_ssim * parts[1].value
                + weights.lambda_iou * parts[2].value
            )
            assert abs(out.value - expected) < 1e-12
            expected_grad = (
                weights.lambda_ce * parts[0].grad
                + weights.lambda_ssim * parts[1].grad
                + weights.lambda_iou * parts[2].grad
            )
            assert np.allclose(out.grad, expected_grad, atol=1e-12)


def test_total_projects_to_single_terms_bit_exact():
    pred, target = soft_pair(9)
    assert total_loss(pred, target, LossWeights(1, 0, 0)).value == ce_loss(pred, target).value
    assert total_loss(pred, target, LossWeights(0, 1, 0)).value == ssim_loss(pred, target).value
    assert total_loss(pred, target, LossWeights(0, 0, 1)).value == iou_loss(pred, target).value


def test_loss_weights_validated():
    with pytest.raises(ValueError):
        LossWeights(lambda_ce=-1.0)
    with pytest.raises(ValueError):
        LossWeights(lambda_ssim=float("nan"))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        total_loss(np.zeros((3, 3)), np.zeros((3, 4)))


def test_losses_reject_1d_predictions_and_stacked_targets():
    target = np.zeros((4, 4))
    for loss_fn in (ce_loss, iou_loss, ssim_loss, total_loss):
        with pytest.raises(ValueError):
            loss_fn(np.full(4, 0.5), np.zeros(4))
        with pytest.raises(ValueError):
            loss_fn(np.full((2, 4, 4), 0.5), np.zeros((2, 4, 4)))
        with pytest.raises(ValueError):
            loss_fn(np.full((2, 4, 5), 0.5), target)


# --- stacks of predictions ---

STACKED_LOSSES = {
    "ce_loss": ce_loss,
    "iou_loss": iou_loss,
    "ssim_loss": ssim_loss,
    "total_loss": lambda p, t: total_loss(p, t, LossWeights(0.7, 1.3, 2.0)),
}


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(STACKED_LOSSES)),
    height=st.integers(1, 20),
    width=st.integers(1, 20),
    lead=st.sampled_from([(1,), (3,), (2, 2)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_value_equals_each_slice_value_exactly(name, height, width, lead, seed):
    loss_fn = STACKED_LOSSES[name]
    rng = Rng(seed)
    n = int(np.prod(lead)) * height * width
    preds = rng.uniform_range(0.05, 0.95, n).reshape(*lead, height, width)
    target = (rng.uniform(height * width).reshape(height, width) > 0.5).astype(np.float64)
    out = loss_fn(preds, target)
    assert out.value.shape == lead and out.grad.shape == preds.shape
    for index in np.ndindex(*lead):
        single = loss_fn(preds[index], target)
        assert type(single.value) is float
        assert out.value[index] == single.value
        np.testing.assert_allclose(out.grad[index], single.grad, rtol=1e-13, atol=0)


# --- gradients against finite differences ---


@pytest.mark.parametrize("loss_fn,tol", [(ce_loss, 1e-6), (iou_loss, 1e-6)])
def test_pointwise_loss_gradients_fd(loss_fn, tol):
    for seed in range(3):
        pred, target = soft_pair(seed, size=6)
        analytic = loss_fn(pred, target).grad
        numeric = central_diff(lambda p: loss_fn(p, target).value, pred)
        assert max_err(analytic, numeric) < tol


def test_ssim_gradient_fd():
    pred, target = soft_pair(5, size=8)
    analytic = ssim_loss(pred, target).grad
    numeric = central_diff(lambda p: ssim_loss(p, target).value, pred)
    assert max_err(analytic, numeric) < 1e-5


def test_total_gradient_fd_nontrivial_weights():
    pred, target = soft_pair(6, size=8)
    weights = LossWeights(0.7, 1.3, 2.0)
    analytic = total_loss(pred, target, weights).grad
    numeric = central_diff(lambda p: total_loss(p, target, weights).value, pred)
    assert max_err(analytic, numeric) < 1e-5


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(STACKED_LOSSES)),
    size=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_central_diff_equals_reference_on_losses(name, size, seed):
    # Up to 144 components: several FD_CHUNK chunks and a ragged last one.
    loss_fn = STACKED_LOSSES[name]
    pred, target = soft_pair(seed, size=size)
    batched = gradcheck.central_diff(lambda p: loss_fn(p, target).value, pred)
    reference = central_diff(lambda p: loss_fn(p, target).value, pred.copy())
    assert batched.tobytes() == reference.reshape(-1).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(STACKED_LOSSES)),
    size=st.integers(1, 12),
    k=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_central_diff_along_sign_directions_equals_per_direction_reference(name, size, k, seed):
    # Each direction V on its own: the reference driver on t -> f(x + t[0]*V)
    # at t = 0. Up to 40 directions: a full FD_CHUNK chunk and a ragged one.
    loss_fn = STACKED_LOSSES[name]
    pred, target = soft_pair(seed, size=size)
    signs = Rng(seed ^ 0xD1).uniform(k * size * size) < 0.5
    directions = np.where(signs, -1.0, 1.0).reshape(k, size, size)
    batched = gradcheck.central_diff(lambda p: loss_fn(p, target).value, pred, directions)
    reference = [
        central_diff(lambda t: loss_fn(pred + t[0] * v, target).value, np.zeros(1))[0]
        for v in directions
    ]
    assert batched.tobytes() == np.array(reference).tobytes()


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 100), seed=st.integers(0, 2**32 - 1))
def test_batched_central_diff_equals_reference_on_gelu(size, seed):
    rng = Rng(seed)
    x = rng.uniform_range(-3.0, 3.0, size)
    c = rng.uniform_range(-1.0, 1.0, size)
    batched = gradcheck.central_diff(lambda v: np.sum(gelu(v) * c, axis=-1), x)
    reference = central_diff(lambda v: float(np.sum(gelu(v) * c)), x.copy())
    assert batched.tobytes() == reference.tobytes()


def test_central_diff_batches_directions_and_leaves_x_alone():
    x = np.linspace(-1.0, 1.0, 70)
    before = x.copy()
    stacks = []

    def f(stack):
        stacks.append(stack.shape)
        return np.sum(stack**2, axis=-1)

    numeric = gradcheck.central_diff(f, x)
    assert stacks == [(64, 70), (64, 70), (12, 70)]
    np.testing.assert_allclose(numeric, 2.0 * x, rtol=0, atol=1e-8)

    stacks.clear()
    directions = np.where(Rng(4).uniform(40 * 70) < 0.5, -1.0, 1.0).reshape(40, 70)
    kept = directions.copy()
    numeric = gradcheck.central_diff(f, x, directions)
    assert stacks == [(64, 70), (16, 70)]
    np.testing.assert_allclose(numeric, 2.0 * directions @ x, rtol=0, atol=1e-8)
    assert x.tobytes() == before.tobytes()
    assert directions.tobytes() == kept.tobytes()


def test_gradcheck_reports_a_nan_error_as_failure(monkeypatch):
    # A NaN from the last seed fails its name alone, after a first seed that
    # scored 0 (the builtin max would keep the 0), both for a check that
    # returns one error and for one that returns a row of them.
    def losses_check(seed, size):
        return (0.0, float("nan") if seed == 1 else 0.0, 0.0, 0.0)

    def gelu_check(seed, size):
        return float("nan") if seed == 1 else 0.0

    checks = {gradcheck.LOSS_CHECKS: losses_check, ("gelu",): gelu_check}
    monkeypatch.setattr(gradcheck, "CHECKS", checks)
    results = gradcheck.run_all(n_seeds=2, size=4)
    assert [r.name for r in results] == [*gradcheck.LOSS_CHECKS, "gelu"]
    assert [r.ok for r in results] == [True, False, True, True, False]
    assert [math.isnan(r.max_err) for r in results] == [False, True, False, False, True]


def test_check_mlp_reports_a_nan_component_error_as_failure(monkeypatch):
    monkeypatch.setattr(gradcheck, "max_err", lambda analytic, numeric: float("nan"))
    monkeypatch.setattr(gradcheck, "CHECKS", {("mlp_backward",): gradcheck.check_mlp})
    [result] = gradcheck.run_all(n_seeds=1)
    assert math.isnan(result.max_err)
    assert not result.ok


@pytest.mark.parametrize("bad", range(len(gradcheck.LOSS_CHECKS)))
def test_check_losses_reports_a_nan_component_error_as_failure(bad, monkeypatch):
    # The shared loss pass keeps each loss's error apart: a NaN in one fails
    # that loss alone.
    real = gradcheck.max_err
    calls = []

    def nan_once(analytic, numeric):
        calls.append(1)
        return float("nan") if len(calls) == bad + 1 else real(analytic, numeric)

    monkeypatch.setattr(gradcheck, "max_err", nan_once)
    monkeypatch.setattr(gradcheck, "CHECKS", {gradcheck.LOSS_CHECKS: gradcheck.check_losses})
    results = gradcheck.run_all(n_seeds=1, size=4)
    assert [r.name for r in results] == list(gradcheck.LOSS_CHECKS)
    assert [r.ok for r in results] == [k != bad for k in range(len(results))]
    assert math.isnan(results[bad].max_err)


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_shared_loss_pass_equals_the_per_loss_reference(size, seed):
    # One total_loss pass per perturbed stack gives each loss check the
    # error that scoring the loss alone gave, bit for bit.
    shared = gradcheck.check_losses(seed, size)
    reference = [fd_reference.check_loss(name, seed, size) for name in gradcheck.LOSS_CHECKS]
    assert np.array(shared).tobytes() == np.array(reference).tobytes()


def test_audit_scores_each_perturbed_loss_stack_once(monkeypatch):
    # `gradcheck --seeds 5 --size 16`: per seed, one total_loss call for the
    # analytic gradients and one per chunk of FD_CHUNK perturbed copies, so
    # 5 * (1 + 256 / 32) = 45 ssim_loss calls and 5 windowed means in each.
    # Scoring every loss check's stacks alone made 90 and 450.
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    for module, name in ((losses, "ssim_loss"), (grid, "windowed_mean")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    gradcheck.run_all(n_seeds=5, size=16)
    assert calls.count("ssim_loss") <= 50
    assert calls.count("windowed_mean") <= 250


def test_one_seed_loss_pass_peaks_below_eleven_perturbed_stacks():
    gradcheck.check_losses(0, 16)  # builds the cached window operators
    tracemalloc.start()
    try:
        gradcheck.check_losses(3, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One (2 * FD_CHUNK, 16, 16) float64 stack of perturbed copies is 128 KiB.
    # Scoring each loss check's stacks alone peaked at 12.6 of them, in the
    # total_loss check.
    stack = 2 * gradcheck.FD_CHUNK * 16 * 16 * np.dtype(np.float64).itemsize
    assert peak < 11 * stack


def reference_check_mlp(seed):
    """The per-component loop check_mlp ran before it called central_diff,
    over the parts it still checks component by component: every bias and
    the first and last weight matrices. Returns {(layer, key): error}."""
    params = gradcheck._randomized_params(seed)
    rng = Rng(seed + 77)
    x = rng.uniform_range(-1.0, 1.0, gradcheck.MLP_BATCH * 4).reshape(gradcheck.MLP_BATCH, 4)
    c = rng.uniform_range(-1.0, 1.0, gradcheck.MLP_BATCH * 4).reshape(gradcheck.MLP_BATCH, 4)
    cache = []
    mlp_forward(params, x, cache)
    analytic = mlp_backward(params, cache, c)

    def scalar():
        value = mlp_forward(params, x)
        return float(np.sum(value * c))

    eps = gradcheck.FD_EPS
    errors = {}
    for i, layer in enumerate(params):
        for key in ("weight", "bias"):
            if key == "weight" and i not in (0, len(params) - 1):
                continue
            arr = layer[key].reshape(-1)
            expected = analytic[i][key].reshape(-1)
            part = []
            for j in range(arr.size):
                orig = arr[j]
                arr[j] = orig + eps
                fp = scalar()
                arr[j] = orig - eps
                fm = scalar()
                arr[j] = orig
                numeric = (fp - fm) / (2.0 * eps)
                part.append(max_err(expected[j : j + 1], np.array([numeric])))
            errors[i, key] = float(np.max(part))
    return errors


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_check_mlp_exhaustive_parts_equal_per_component_reference(seed, monkeypatch):
    # Record each part's max_err call: (size of the compared arrays, error),
    # in the order check_mlp checks the parts.
    calls = []
    real = gradcheck.max_err

    def recorded(analytic, numeric):
        calls.append((np.size(analytic), real(analytic, numeric)))
        return calls[-1][1]

    monkeypatch.setattr(gradcheck, "max_err", recorded)
    worst = gradcheck.check_mlp(seed)
    parts = [(i, key) for i in range(len(gradcheck.LAYER_SIZES) - 1) for key in ("weight", "bias")]
    assert len(calls) == len(parts)
    assert worst == max(err for _, err in calls)
    checked = dict(zip(parts, calls))

    reference = reference_check_mlp(seed)
    assert {part: checked[part][1] for part in reference} == reference
    # The parts left out of the reference are the hidden weight matrices,
    # each checked along MLP_DIRECTIONS directions.
    hidden = set(checked) - set(reference)
    assert hidden == {(1, "weight"), (2, "weight"), (3, "weight")}
    assert all(checked[part][0] == gradcheck.MLP_DIRECTIONS for part in hidden)


@st.composite
def perturbed_layer_stacks(draw):
    """(params, batch, c, layer, name, stack): random MLP parameters, a
    batch of 1-4 inputs, and the stack of 2m perturbed copies of one layer's
    weight or bias that ``central_diff`` builds, along m unit directions
    starting at a drawn component or along m random +-1 directions."""
    seed = draw(st.integers(0, 2**32 - 1))
    params = gradcheck._randomized_params(seed)
    rng = Rng(seed + 77)
    n = draw(st.integers(1, 4))
    x = rng.uniform_range(-1.0, 1.0, n * 4).reshape(n, 4)
    c = rng.uniform_range(-1.0, 1.0, n * 4).reshape(n, 4)
    layer = draw(st.integers(0, len(params) - 1))
    name = draw(st.sampled_from(["weight", "bias"]))
    value = params[layer][name]
    m = draw(st.integers(1, gradcheck.FD_CHUNK))
    if draw(st.booleans()):
        directions = gradcheck.sign_directions(rng, value.shape)[:m]
    else:
        start = draw(st.integers(0, value.size - 1))
        directions = np.eye(m, value.size, start).reshape(m, *value.shape)
    stack = np.concatenate([value + gradcheck.FD_EPS * directions, value - gradcheck.FD_EPS * directions])
    return params, x, c, layer, name, stack


@settings(max_examples=150, deadline=None)
@given(perturbed_layer_stacks())
def test_from_layer_scoring_equals_the_full_network_reference(case):
    # Scoring a stack from the cached input of its layer, recording nothing,
    # gives what running the whole network on the batch gave, bit for bit.
    params, x, c, layer, name, stack = case
    cache = []
    mlp_forward(params, x, cache)
    scores = gradcheck.mlp_stack_score(params, cache, c, layer, name, stack)
    reference = fd_reference.full_network_score(params, x, c, layer, name, stack)
    assert scores.shape == (len(stack),)
    assert np.array_equal(scores, reference)


def test_check_mlp_runs_each_stack_from_its_layer_on(monkeypatch):
    # One recorded mlp_forward per check, for the analytic gradient; every
    # stacked forward runs the suffix network from the perturbed layer on
    # that layer's cached input, so none past layer 0 sees the 4-wide
    # network input.
    recorded, stacked = [], []
    real_forward = gradcheck.mlp_forward
    layers = len(gradcheck.LAYER_SIZES) - 1

    def forward(params, x, cache=None):
        if cache is None:
            stacked.append((layers - len(params), np.shape(x)))
        else:
            recorded.append((len(params), np.shape(x)))
        return real_forward(params, x, cache)

    monkeypatch.setattr(gradcheck, "mlp_forward", forward)
    gradcheck.check_mlp(0)
    assert recorded == [(layers, (gradcheck.MLP_BATCH, 4))]
    assert sorted({start for start, _ in stacked}) == list(range(layers))
    for start, shape in stacked:
        assert shape == (gradcheck.MLP_BATCH, gradcheck.LAYER_SIZES[start])
        assert start == 0 or shape[1] != 4


# Defects of the analytic gradient of one hidden weight matrix: one entry off
# by 10% or by 1% of the largest entry, one row off by 1%, and the matrix
# transposed. On seeds 0, 3 and 11 a check of every seventh entry, offset by
# seed % 7, does not reach entry [5, 7].
MLP_MUTANTS = {
    "entry_x1.1": lambda g: g.__setitem__((5, 7), g[5, 7] * 1.1),
    "entry_plus_1pct_of_max": lambda g: g.__setitem__((5, 7), g[5, 7] + 0.01 * np.abs(g).max()),
    "row_x1.01": lambda g: g.__setitem__(5, g[5] * 1.01),
    "transpose": lambda g: g.__setitem__(Ellipsis, g.T.copy()),
}


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("mutant", sorted(MLP_MUTANTS))
@pytest.mark.parametrize("layer", [1, 2, 3])
def test_check_mlp_catches_every_hidden_weight_mutant(layer, mutant, seed, monkeypatch):
    real = gradcheck.mlp_backward

    def mutated(params, cache, grad_out):
        grads = real(params, cache, grad_out)
        MLP_MUTANTS[mutant](grads[layer]["weight"])
        return grads

    monkeypatch.setattr(gradcheck, "mlp_backward", mutated)
    assert gradcheck.check_mlp(seed) >= gradcheck.TOLERANCES["mlp_backward"]


def test_sign_directions_use_every_bit_of_each_draw():
    # 32 x 35 = 1120 signs: all 64 bits of 17 draws and 32 of the 18th.
    shape = (5, 7)
    n = gradcheck.MLP_DIRECTIONS * 35
    directions = gradcheck.sign_directions(Rng(9), shape)
    assert directions.shape == (gradcheck.MLP_DIRECTIONS, *shape)
    draws = Rng(9).uint64(-(-n // 64) + 1)
    j = np.arange(n, dtype=np.uint64)
    bits = (draws[j // np.uint64(64)] >> (j % np.uint64(64))) & np.uint64(1)
    assert directions.reshape(-1).tobytes() == (1.0 - 2.0 * bits).tobytes()
    # The stream continues right after the last draw used.
    rng = Rng(9)
    gradcheck.sign_directions(rng, shape)
    assert rng.uint64(1)[0] == draws[-1]


def test_direction_draw_is_deterministic_across_processes():
    code = (
        f"import sys; sys.path.insert(0, {os.path.dirname(os.path.dirname(gradcheck.__file__))!r})\n"
        "from hashlib import sha256\n"
        "from voskit.gradcheck import sign_directions\n"
        "from voskit.rng import Rng\n"
        "print(sha256(sign_directions(Rng(12345), (64, 64)).tobytes()).hexdigest())"
    )
    digests = {
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        .stdout.strip()
        for _ in range(2)
    }
    in_process = sha256(gradcheck.sign_directions(Rng(12345), (64, 64)).tobytes()).hexdigest()
    assert digests == {in_process}


def test_ssim_loss_applies_the_window_five_times(monkeypatch):
    calls = []
    forward = grid.windowed_mean
    monkeypatch.setattr(grid, "windowed_mean", lambda g: calls.append(1) or forward(g))
    pred, target = soft_pair(3, size=8)
    ssim_loss(pred, target)
    assert len(calls) == 5


def test_ssim_loss_applies_the_window_adjoint_three_times(monkeypatch):
    # Only reading the gradient applies the adjoint, and only the first read.
    calls = []
    adjoint = grid.windowed_mean_adjoint
    monkeypatch.setattr(losses, "windowed_mean_adjoint", lambda a: calls.append(1) or adjoint(a))
    pred, target = soft_pair(3, size=8)
    out = ssim_loss(pred, target)
    out.value
    assert len(calls) == 0
    grad = out.grad
    assert len(calls) == 3
    assert out.grad is grad
    assert len(calls) == 3


def test_total_loss_value_computes_no_gradient(monkeypatch):
    calls = []
    adjoint = grid.windowed_mean_adjoint
    monkeypatch.setattr(losses, "windowed_mean_adjoint", lambda a: calls.append(1) or adjoint(a))
    pred, target = soft_pair(3, size=8)
    out = total_loss(np.stack([pred, pred[::-1]]), target)
    out.value
    assert len(calls) == 0
    out.grad
    assert len(calls) == 3


def ssim_grad_five_adjoints(pred, target):
    """Reference ssim_loss gradient that chains through each prediction
    statistic with an adjoint of its own: five adjoints, where ssim_loss
    shares one among the mu_p terms of mu_p, var_p and cov. Returns the
    gradient and its scale: the same fold over the absolute value of every
    term, which bounds what re-associating the sum can round away."""
    p, t = grid.as_grid(pred), grid.as_grid(target)
    mu_p, mu_t, var_p, var_t, cov = grid.windowed_statistics(p, t)
    a1 = 2.0 * mu_p * mu_t + SSIM_C1
    a2 = 2.0 * cov + SSIM_C2
    b1 = mu_p * mu_p + mu_t * mu_t + SSIM_C1
    b2 = var_p + var_t + SSIM_C2
    ssim_map = (a1 * a2) / (b1 * b2)
    d_mu = (2.0 * mu_t * a2) / (b1 * b2) - 2.0 * mu_p * ssim_map / b1
    d_var = -ssim_map / b2
    d_cov = 2.0 * a1 / (b1 * b2)
    adjoint = grid.windowed_mean_adjoint
    g = adjoint(d_mu)
    g += 2.0 * p * adjoint(d_var)
    g -= 2.0 * adjoint(d_var * mu_p)
    g += t * adjoint(d_cov)
    g -= adjoint(d_cov * mu_t)
    scale = adjoint(abs(d_mu))
    scale += 2.0 * p * adjoint(abs(d_var))
    scale += 2.0 * adjoint(abs(d_var * mu_p))
    scale += t * adjoint(abs(d_cov))
    scale += adjoint(abs(d_cov * mu_t))
    return -g / t.size, scale / t.size


@settings(max_examples=150, deadline=None)
@given(
    height=st.integers(1, 40),
    width=st.integers(1, 40),
    lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
    binary=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_ssim_gradient_equals_the_five_adjoint_fold(height, width, lead, binary, seed):
    # The shared adjoint re-associates the sum, so the two agree to a
    # rounding relative to the size of its terms, not bit for bit: terms
    # can cancel to a gradient far smaller than themselves.
    rng = Rng(seed)
    preds = rng.uniform(int(np.prod(lead)) * height * width).reshape(*lead, height, width)
    if binary:
        preds = np.round(preds)
    target = (rng.uniform(height * width).reshape(height, width) > 0.5).astype(np.float64)
    ref, scale = ssim_grad_five_adjoints(preds, target)
    assert np.all(np.abs(ssim_loss(preds, target).grad - ref) <= 1e-12 * scale)


def test_ssim_and_total_loss_match_golden_bits():
    # The gradient digests also pin the order in which ssim_loss sums its
    # adjoint terms; the values do not depend on it.
    pred, target = soft_pair(5, size=24)
    ssim = ssim_loss(pred, target)
    total = total_loss(pred, target, LossWeights(0.7, 1.3, 0.4))
    assert repr(ssim.value) == "1.0127663572534387"
    assert repr(total.value) == "2.2172339400394345"
    assert sha256(ssim.grad.tobytes()).hexdigest() == (
        "669a659399f76a5500242cc6195de22556987b46fd76af9d867386aaf9214697"
    )
    assert sha256(total.grad.tobytes()).hexdigest() == (
        "7c74c8c5efd46694c5b148fee3f6cc06a93ab01420ac6442365408d7f8aa56ad"
    )


# --- toy separable fit ---


def toy_instance(size: int = 24):
    """Left half background, right half object; the single informative
    feature is a unit step, so the instance is separable with margin."""
    cols = np.arange(size, dtype=np.float64)
    f1 = np.tile(np.where(cols >= size // 2, 1.0, -1.0), (size, 1))
    f2 = np.ones((size, size))
    features = np.stack([f1, f2], axis=-1)
    target = (f1 > 0.0).astype(np.float64)
    return features, target


def test_toy_segmenter_reduces_total_loss_10x():
    features, target = toy_instance()
    params, history = fit_toy_segmenter(features, target, steps=500)
    assert len(history) == 501
    assert history[-1] < history[0] / 10.0
    assert params.shape == (3,)


def test_toy_segmenter_matches_golden_bits():
    features, target = toy_instance()
    params, history = fit_toy_segmenter(features, target, steps=50)
    assert (len(history), repr(history[0]), repr(history[-1])) == (
        51,
        "2.1057855511153454",
        "0.03674280334966832",
    )
    assert sha256(np.array(history).tobytes()).hexdigest() == (
        "e795a041318cb2da7f24b900b6bc84d82d63ea97399bca0e1c9ffe8e7dc8f0aa"
    )
    assert sha256(params.tobytes()).hexdigest() == (
        "26c202e3519ec9e7fda3c47cb35ce954198523ff5d7ce831b4458e4968c03f89"
    )


def test_toy_segmenter_history_is_monotone_enough():
    # not strictly monotone (fixed step size), but the tail must sit well
    # below the head
    features, target = toy_instance()
    _, history = fit_toy_segmenter(features, target, steps=200)
    assert min(history) == min(history[-50:])


def test_toy_segmenter_zero_steps_returns_initial_loss_only():
    features, target = toy_instance()
    params, history = fit_toy_segmenter(features, target, steps=0)
    assert len(history) == 1
    assert np.array_equal(params, np.zeros(3))


def test_toy_segmenter_combined_vs_ce_only_both_learn():
    features, target = toy_instance()
    _, h_all = fit_toy_segmenter(features, target, LossWeights(1, 1, 1), steps=300)
    _, h_ce = fit_toy_segmenter(features, target, LossWeights(1, 0, 0), steps=300)
    assert h_all[-1] < h_all[0] / 5.0
    assert h_ce[-1] < h_ce[0] / 5.0


def test_toy_segmenter_rejects_bad_features():
    features, target = toy_instance(8)
    with pytest.raises(ValueError):
        fit_toy_segmenter(features[..., 0], target)  # missing feature axis
    with pytest.raises(ValueError):
        fit_toy_segmenter(features, target, steps=-1)
