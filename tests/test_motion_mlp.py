import hashlib
import math
import re
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erf

from voskit.boxes import BBox, Motion, apply_motion
from voskit.gradcheck import check_mlp, max_err
from voskit.motion_mlp import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    GELU_COEFF,
    LAYER_SIZES,
    PARAM_COUNT,
    Adam,
    MotionPredictor,
    dataset_loss,
    extract_triples,
    gelu,
    gelu_grad,
    gelu_tanh,
    init_params,
    mlp_backward,
    mlp_forward,
    pt_loss,
    smooth_l1,
    train_pt,
)
from voskit.rng import Rng

import motion_reference
from fd_reference import central_diff


# --- activation ---


def test_gelu_fixed_points_and_limits():
    assert gelu(np.array([0.0]))[0] == 0.0
    assert abs(gelu(np.array([10.0]))[0] - 10.0) < 1e-6
    assert abs(gelu(np.array([-10.0]))[0]) < 1e-6


def test_gelu_close_to_exact_gaussian_form():
    # the tanh form approximates x * Phi(x) to a few 1e-3 absolute
    x = np.linspace(-5, 5, 101)
    exact = x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    assert np.max(np.abs(gelu(x) - exact)) < 5e-3


def test_gelu_grad_matches_fd():
    x = np.linspace(-4, 4, 33)
    numeric = np.array(
        [central_diff(lambda v: float(gelu(v)[0]), np.array([xi]))[0] for xi in x]
    )
    assert max_err(gelu_grad(x), numeric) < 1e-7


def gelu_tanh_reference(x: np.ndarray) -> np.ndarray:
    """``gelu_tanh`` with numpy's ``power`` for the cube, the slow form the
    two-multiply cube must track."""
    x = np.asarray(x, dtype=np.float64)
    return np.tanh(GELU_COEFF * (x + 0.044715 * x**3))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 64), elements=st.floats(-50.0, 50.0)))
def test_gelu_tanh_matches_the_power_form_to_the_spacing_of_one(x):
    assert np.max(np.abs(gelu_tanh(x) - gelu_tanh_reference(x))) <= np.spacing(1.0)


def test_gelu_tanh_equals_the_power_form_at_zero_and_unit_inputs():
    x = np.array([0.0, 1.0, -1.0])
    assert gelu_tanh(x).tobytes() == gelu_tanh_reference(x).tobytes()


# Moderate values, tanh's saturation, signed zeros and subnormals (where
# 0.5 x rounds), and values whose square or cube overflows.
gelu_inputs = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(-1e-300, 1e-300),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 3 * 5e-324, 2.2250738585072014e-308, 1e-17, -1e-17, 1e154, -1e154]
        + [1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf]
    ),
    st.floats(allow_nan=False),
)


@st.composite
def gelu_arrays(draw):
    """0-d values, (n, 64) batches, the (k, n, 64) stacks check_mlp runs, and
    strided and transposed (n, 64) views."""
    kind = draw(st.sampled_from(["0-d", "batch", "stack", "strided", "transposed"]))
    if kind == "0-d":
        return np.array(draw(gelu_inputs))
    n = draw(st.integers(1, 4))
    shape = {"batch": (n, 64), "stack": (draw(st.integers(1, 3)), n, 64), "strided": (n, 128), "transposed": (64, n)}
    x = draw(hnp.arrays(np.float64, shape[kind], elements=gelu_inputs))
    return x[:, ::2] if kind == "strided" else x.T if kind == "transposed" else x


@settings(max_examples=300, deadline=None)
@given(gelu_arrays())
def test_in_place_gelu_equals_the_out_of_place_reference(x):
    before = x.copy()
    with np.errstate(all="ignore"):
        t = gelu_tanh(x)
        assert same_bits(t, motion_reference.gelu_tanh(x))
        t_before = np.copy(t)
        for t_arg in (None, t):
            assert same_bits(gelu(x, t_arg), motion_reference.gelu(x, t_arg))
            assert same_bits(gelu_grad(x, t_arg), motion_reference.gelu_grad(x, t_arg))
        if x.ndim == 0:  # a 0-d input gives a numpy scalar, as numpy arithmetic does
            for f in (gelu_tanh, gelu, gelu_grad):
                assert type(f(x)) is np.float64 and type(f(float(x))) is np.float64
    assert same_bits(x, before) and same_bits(t, t_before)  # inputs are never written


# --- initialization ---


def test_init_shapes_and_zero_output_layer():
    params = init_params(0)
    assert len(params) == len(LAYER_SIZES) - 1 == 5
    for i, layer in enumerate(params):
        assert layer["weight"].shape == (LAYER_SIZES[i], LAYER_SIZES[i + 1])
        assert layer["bias"].shape == (LAYER_SIZES[i + 1],)
        assert np.all(layer["bias"] == 0.0)
    assert np.all(params[-1]["weight"] == 0.0)
    assert np.any(params[0]["weight"] != 0.0)


def test_init_he_uniform_bounds():
    params = init_params(3)
    for layer in params[:-1]:
        bound = math.sqrt(6.0 / layer["weight"].shape[0])
        assert np.all(np.abs(layer["weight"]) <= bound)
        assert layer["weight"].std() > 0.1 * bound


def test_init_is_deterministic_per_seed():
    a, b, c = init_params(7), init_params(7), init_params(8)
    for la, lb in zip(a, b):
        assert np.array_equal(la["weight"], lb["weight"])
    assert not np.array_equal(a[0]["weight"], c[0]["weight"])


# --- forward ---


def forward_loops(params, x):
    """Independent scalar-loop recomputation of the forward pass."""
    h = list(x)
    coeff = math.sqrt(2.0 / math.pi)
    for i, layer in enumerate(params):
        weight, bias = layer["weight"], layer["bias"]
        z = []
        for k in range(weight.shape[1]):
            acc = bias[k]
            for j in range(weight.shape[0]):
                acc += h[j] * weight[j, k]
            z.append(acc)
        if i < len(params) - 1:
            z = [0.5 * v * (1.0 + math.tanh(coeff * (v + 0.044715 * v**3))) for v in z]
        h = z
    return np.array(h)


def test_forward_matches_loop_oracle():
    params = init_params(1)
    # give the output layer real values so the check is not trivially zero
    rng = Rng(9)
    params[-1]["weight"] = rng.uniform_range(-0.5, 0.5, 256).reshape(64, 4)
    params[-1]["bias"] = rng.uniform_range(-0.1, 0.1, 4)
    for seed in range(5):
        x = Rng(seed).uniform_range(-1.0, 1.0, 4)
        out = mlp_forward(params, x[None, :])
        assert np.allclose(out[0], forward_loops(params, x), atol=1e-12)


def test_forward_batch_matches_single():
    params = init_params(2)
    params[-1]["weight"] = Rng(4).uniform_range(-0.5, 0.5, 256).reshape(64, 4)
    xs = Rng(5).uniform_range(-1, 1, 12).reshape(3, 4)
    batch_out = mlp_forward(params, xs)
    for i in range(3):
        single = mlp_forward(params, xs[i : i + 1])
        assert np.allclose(batch_out[i], single[0], atol=1e-14)


def test_forward_cache_keeps_each_layers_input_preactivation_and_tanh():
    x = Rng(3).uniform_range(-1.0, 1.0, 8).reshape(2, 4)
    cache = []
    out = mlp_forward(init_params(1), x, cache)
    layers = len(LAYER_SIZES) - 1
    assert len(cache) == layers
    assert same_bits(cache[0][0], x)
    for (_, z, t), (h, _, _) in zip(cache, cache[1:]):
        assert same_bits(h, gelu(z, t))
    assert [t is None for _, _, t in cache] == [False] * (layers - 1) + [True]
    assert same_bits(cache[-1][1], out)


# check_mlp runs the forward pass on stacks of 64 perturbed weight matrices,
# where each array the forward cache keeps per layer costs 0.5 MB, so a cache
# that kept more would exceed this bound. One check_mlp(0) call peaks at
# 3,776,320 B (7.2 such arrays) on numpy 2.4 and Python 3.11; before GeLU and
# Adam computed in place it peaked at 4,471,216 B.
CHECK_MLP_PEAK_BYTES = 15 * 2**18  # 7.5 of those arrays, 3,932,160 B


def test_check_mlp_peak_memory_is_no_higher_than_before():
    check_mlp(0)  # first-call allocations (imports, caches) are not the check's own
    tracemalloc.start()
    try:
        check_mlp(0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= CHECK_MLP_PEAK_BYTES


def test_unrecorded_forward_frees_each_layers_arrays_before_the_next_matmul():
    # A stack of 64 layer-1 weight matrices on a batch of 3 makes each
    # layer-1 array, and each hidden one after it, (64, 3, 64): 98,304 B.
    # A layer holds at most four of its input, matmul result, pre-activation,
    # tanh and GeLU at a time (a peak of 4.0 of them); keeping the layer
    # before's pre-activation and tanh alive into its matmul peaked at 5.7.
    params = random_model(7).params
    cache = []
    mlp_forward(params, Rng(8).uniform_range(-1.0, 1.0, 12).reshape(3, 4), cache)
    stack = params[1]["weight"] + Rng(9).uniform_range(-0.1, 0.1, 64 * 64 * 64).reshape(64, 64, 64)
    suffix = [{**params[1], "weight": stack}, *params[2:]]
    mlp_forward(suffix, cache[1][0])  # first-call allocations are not the forward's own
    tracemalloc.start()
    try:
        out = mlp_forward(suffix, cache[1][0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (64, 3, 4)
    assert peak < 4.5 * 64 * 3 * 64 * np.dtype(np.float64).itemsize


def test_forward_rejects_bad_width():
    model = MotionPredictor.for_frame(120, 200)
    # a single motion is a one-row batch; (4,) is not one
    for bad in (np.zeros(5), np.zeros(4), np.zeros((2, 5)), np.zeros((1, 2, 4))):
        shape = re.escape(str(bad.shape))
        with pytest.raises(ValueError, match=shape):
            mlp_forward(init_params(0), bad)
        with pytest.raises(ValueError, match=shape):
            model.predict(bad)


def test_predict_motion_is_predict_of_a_one_row_batch():
    model = MotionPredictor.for_frame(120, 200, seed=5)
    model.params[-1]["weight"][...] = Rng(6).uniform_range(-0.5, 0.5, 256).reshape(64, 4)
    for seed in range(5):
        motion = Motion(*Rng(seed).uniform_range(-20, 20, 4).tolist())
        batch = model.predict(np.array([motion.as_tuple()]))
        assert batch.shape == (1, 4)
        assert same_bits(model.predict_motion(motion).as_tuple(), batch[0])


def random_model(seed: int) -> MotionPredictor:
    """A predictor of ``seed`` whose output layer is random, not zero."""
    model = MotionPredictor.for_frame(120, 200, seed=seed)
    rng = Rng(seed ^ 0xABC)
    model.params[-1]["weight"][...] = rng.uniform_range(-0.5, 0.5, 256).reshape(64, 4)
    model.params[-1]["bias"][...] = rng.uniform_range(-0.1, 0.1, 4)
    return model


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20), spread=st.sampled_from([0.5, 20.0, 400.0]))
def test_predict_is_mlp_forward_output_scaled_back(seed, n, spread):
    # predict records no cache; its motions are those of a forward that
    # records one, to the bit.
    model = random_model(seed)
    motions = Rng(seed + 1).uniform_range(-spread, spread, n * 4).reshape(n, 4)
    out = mlp_forward(model.params, motions / model.scale, [])
    assert same_bits(model.predict(motions), out * model.scale)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_each_suffix_network_on_its_cached_input_equals_mlp_forward(seed, n):
    # The layers params[i:] run on the recorded input of layer i give the
    # recorded output, and so does a forward that records nothing.
    params = random_model(seed).params
    x = Rng(seed + 2).uniform_range(-3.0, 3.0, n * 4).reshape(n, 4)
    cache = []
    out = mlp_forward(params, x, cache)
    assert same_bits(mlp_forward(params, x), out)
    for i, (h, _, _) in enumerate(cache):
        assert same_bits(mlp_forward(params[i:], h), out)


def test_each_suffix_network_rejects_an_input_of_the_wrong_width():
    params = init_params(0)
    for i, width in enumerate(LAYER_SIZES[:-1]):
        for bad in (np.zeros((2, 64 if width == 4 else 4)), np.zeros((2, width + 1)), np.zeros(width)):
            with pytest.raises(ValueError, match=re.escape(f"expected (n, {width}) inputs")):
                mlp_forward(params[i:], bad)


def test_zero_init_network_outputs_zero_motion():
    model = MotionPredictor.for_frame(480, 854)
    for seed in range(5):
        motion = Motion(*Rng(seed).uniform_range(-20, 20, 4))
        out = model.predict_motion(motion)
        assert out.as_tuple() == (0.0, 0.0, 0.0, 0.0)


# --- backward ---


def test_backward_zero_upstream_gives_zero_grads():
    params = init_params(0)
    x = np.ones((1, 4))
    cache = []
    mlp_forward(params, x, cache)
    grads = mlp_backward(params, cache, np.zeros((1, 4)))
    for g in grads:
        assert np.all(g["weight"] == 0.0) and np.all(g["bias"] == 0.0)


def test_backward_first_layer_fd_spot_check():
    params = init_params(11)
    rng = Rng(12)
    params[-1]["weight"] = rng.uniform_range(-0.5, 0.5, 256).reshape(64, 4)
    x = rng.uniform_range(-1, 1, 4).reshape(1, 4)
    c = rng.uniform_range(-1, 1, 4).reshape(1, 4)
    cache = []
    mlp_forward(params, x, cache)
    analytic = mlp_backward(params, cache, c)

    def scalar(_arr):
        out = mlp_forward(params, x)
        return float(np.sum(out * c))

    numeric_w0 = central_diff(scalar, params[0]["weight"])
    numeric_b0 = central_diff(scalar, params[0]["bias"])
    assert max_err(analytic[0]["weight"], numeric_w0) < 1e-5
    assert max_err(analytic[0]["bias"], numeric_b0) < 1e-5


def test_backward_with_cached_tanh_equals_recomputing_it():
    """mlp_backward reuses the forward pass's GeLU tanh; the gradients are
    those of the backward pass that recomputed it from the pre-activations."""
    params = init_params(5)
    params[-1]["weight"] = Rng(6).uniform_range(-0.5, 0.5, 256).reshape(64, 4)
    x = Rng(7).uniform_range(-1, 1, 20).reshape(5, 4)
    c = Rng(8).uniform_range(-1, 1, 20).reshape(5, 4)
    cache = []
    mlp_forward(params, x, cache)
    assert sum(t is not None for _, _, t in cache) == len(params) - 1
    for _, z, t in cache[:-1]:
        assert t.tobytes() == gelu_tanh(z).tobytes()
        assert gelu(z, t).tobytes() == gelu(z).tobytes()
    delta = c
    expected = [None] * len(params)
    for i in range(len(params) - 1, -1, -1):
        a, z, _ = cache[i]
        if i != len(params) - 1:
            delta = delta * gelu_grad(z)
        expected[i] = {"weight": a.T @ delta, "bias": delta.sum(axis=0)}
        delta = delta @ params[i]["weight"].T
    for got, want in zip(mlp_backward(params, cache, c), expected):
        for key in ("weight", "bias"):
            assert got[key].tobytes() == want[key].tobytes()


def test_backward_batch_is_sum_of_singles():
    params = init_params(3)
    params[-1]["weight"] = Rng(6).uniform_range(-0.5, 0.5, 256).reshape(64, 4)
    xs = Rng(7).uniform_range(-1, 1, 8).reshape(2, 4)
    cs = Rng(8).uniform_range(-1, 1, 8).reshape(2, 4)
    cache = []
    mlp_forward(params, xs, cache)
    batch = mlp_backward(params, cache, cs)
    singles = []
    for i in range(2):
        c1 = []
        mlp_forward(params, xs[i : i + 1], c1)
        singles.append(mlp_backward(params, c1, cs[i : i + 1]))
    for layer in range(len(params)):
        summed = singles[0][layer]["weight"] + singles[1][layer]["weight"]
        assert np.allclose(batch[layer]["weight"], summed, atol=1e-12)


# --- Adam ---


def test_adam_first_step_is_signed_lr():
    flat = np.zeros(6)
    grad = np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0])
    opt = Adam(lr=0.01)
    opt.step(flat, grad)
    expected = -0.01 * np.sign(grad)  # zero gradient -> no movement
    assert np.allclose(flat, expected, atol=1e-6)


def test_adam_zero_grad_is_noop_without_decay():
    flat = np.full(6, 0.7)
    opt = Adam()
    opt.step(flat, np.zeros(6))
    assert np.all(flat == 0.7)


def test_adam_decoupled_weight_decay_shrinks_params():
    flat = np.full(6, 1.0)
    opt = Adam(lr=0.1, weight_decay=0.5)
    opt.step(flat, np.zeros(6))
    assert np.allclose(flat, 1.0 - 0.1 * 0.5, atol=1e-12)


@dataclass
class ReferenceAdam:
    """Adam as first written, one tensor at a time over a list of
    {"weight", "bias"} layers: the reference the flat ``Adam`` must equal
    bit for bit."""

    lr: float = 1e-3
    weight_decay: float = 0.0
    step_count: int = field(default=0, init=False)
    m: list = field(default_factory=list, init=False)
    v: list = field(default_factory=list, init=False)

    def step(self, params, grads) -> None:
        if not self.m:
            self.m = [{k: np.zeros_like(v) for k, v in layer.items()} for layer in params]
            self.v = [{k: np.zeros_like(v) for k, v in layer.items()} for layer in params]
        self.step_count += 1
        t = self.step_count
        for layer, g, m, v in zip(params, grads, self.m, self.v):
            for key in layer:
                m[key] = ADAM_BETA1 * m[key] + (1.0 - ADAM_BETA1) * g[key]
                v[key] = ADAM_BETA2 * v[key] + (1.0 - ADAM_BETA2) * g[key] ** 2
                m_hat = m[key] / (1.0 - ADAM_BETA1**t)
                v_hat = v[key] / (1.0 - ADAM_BETA2**t)
                update = m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                if self.weight_decay:
                    update = update + self.weight_decay * layer[key]
                layer[key] -= self.lr * update


def flatten(layers) -> np.ndarray:
    return np.concatenate([layer[k].reshape(-1) for layer in layers for k in ("weight", "bias")])


@settings(max_examples=60, deadline=None)
@given(
    widths=st.lists(st.integers(1, 9), min_size=2, max_size=5),
    steps=st.integers(1, 12),
    lr=st.floats(1e-5, 0.5),
    weight_decay=st.one_of(st.just(0.0), st.floats(1e-4, 0.5)),
    seed=st.integers(0, 2**32),
)
def test_flat_adam_matches_per_tensor_reference_bit_for_bit(widths, steps, lr, weight_decay, seed):
    rng = Rng(seed)

    def draw(n, zero_share=0.0):
        values = rng.uniform_range(-2.0, 2.0, n)
        return np.where(rng.uniform_range(0.0, 1.0, n) < zero_share, 0.0, values)

    shapes = [(a, b) for a, b in zip(widths, widths[1:])]
    layers = [{"weight": draw(a * b).reshape(a, b), "bias": draw(b)} for a, b in shapes]
    flat = flatten(layers)
    flat_opt = Adam(lr=lr, weight_decay=weight_decay)
    reference = ReferenceAdam(lr=lr, weight_decay=weight_decay)
    for _ in range(steps):
        grads = [{"weight": draw(a * b, 0.2).reshape(a, b), "bias": draw(b, 0.2)} for a, b in shapes]
        flat_opt.step(flat, flatten(grads))
        reference.step(layers, grads)
    assert same_bits(flat, flatten(layers))
    assert same_bits(flat_opt.m, flatten(reference.m)) and same_bits(flat_opt.v, flatten(reference.v))


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(1, 40),
    # past step 356, 1 - beta1^t rounds to 1.0 and the bias correction of m drops out
    steps=st.one_of(st.integers(1, 12), st.integers(350, 400)),
    lr=st.floats(1e-5, 0.5),
    weight_decay=st.one_of(st.just(0.0), st.floats(1e-4, 0.5)),
    scale=st.sampled_from([1.0, 1e-300, 1e150, 1e200]),  # 1e200 overflows g^2
    seed=st.integers(0, 2**32),
)
def test_in_place_adam_equals_the_out_of_place_reference(size, steps, lr, weight_decay, scale, seed):
    rng = Rng(seed)
    flat = rng.uniform_range(-2.0, 2.0, size)
    expected = flat.copy()
    optimizer = Adam(lr=lr, weight_decay=weight_decay)
    reference = motion_reference.Adam(lr=lr, weight_decay=weight_decay)
    with np.errstate(all="ignore"):
        for _ in range(steps):
            grad = rng.uniform_range(-2.0, 2.0, size) * scale
            grad[rng.uniform(size) < 0.2] = 0.0
            optimizer.step(flat, grad)
            reference.step(expected, grad)
            if optimizer.step_count == 1:
                moments = optimizer.m, optimizer.v
    assert same_bits(flat, expected)
    assert same_bits(optimizer.m, reference.m) and same_bits(optimizer.v, reference.v)
    assert optimizer.m is moments[0] and optimizer.v is moments[1]  # updated in place


# --- losses over motions ---


def test_smooth_l1_values_and_grads():
    value, grad = smooth_l1(np.array([0.0, 0.5, 2.0, -2.0]))
    assert np.allclose(value, [0.0, 0.125, 1.5, 1.5])
    assert np.allclose(grad, [0.0, 0.5, 1.0, -1.0])


def test_pt_loss_zero_at_exact_match():
    prev = np.array([10.0, 10.0, 20.0, 20.0])
    t = np.array([2.0, 1.0, 0.0, 0.0])
    value, grad = pt_loss(t, t, prev)
    assert value == 0.0
    assert np.allclose(grad, 0.0)


def test_pt_loss_small_box_penalty_doubles():
    prev = np.array([10.0, 10.0, 20.0, 20.0])
    target = np.array([0.0, 0.0, 4.0, 4.0])  # target grows the box
    pred_small = np.array([0.0, 0.0, 1.0, 1.0])  # prediction grows it less
    pred_big = np.array([0.0, 0.0, 7.0, 7.0])  # overshoot by the same margin
    v_small, _ = pt_loss(pred_small, target, prev, lambda_small=2.0)
    v_big, _ = pt_loss(pred_big, target, prev, lambda_small=2.0)
    assert abs(v_small - 2.0 * v_big) < 1e-12
    v_neutral, _ = pt_loss(pred_small, target, prev, lambda_small=1.0)
    assert abs(v_small - 2.0 * v_neutral) < 1e-12


def test_pt_loss_gradient_fd_both_sides_of_gate():
    prev = np.array([0.0, 0.0, 10.0, 10.0])
    target = np.array([1.0, -1.0, 2.0, 0.5])
    # components stay clear of the Huber kink at |diff| = 1, where the
    # second derivative jumps and central differences lose accuracy
    for pred in (
        np.array([0.5, 0.2, -1.0, 0.1]),  # smaller box than target
        np.array([2.2, 1.5, 4.0, 2.5]),  # larger box than target
    ):
        _, analytic = pt_loss(pred, target, prev)
        numeric = central_diff(lambda p: pt_loss(p, target, prev)[0], pred.copy())
        assert max_err(analytic, numeric) < 1e-6


def test_pt_loss_validates_inputs():
    box = np.array([0.0, 0.0, 5.0, 5.0])
    with pytest.raises(ValueError):
        pt_loss(np.zeros(3), np.zeros(4), box)
    with pytest.raises(ValueError):
        pt_loss(np.zeros(4), np.zeros(4), box, lambda_small=0.5)
    with pytest.raises(ValueError):
        pt_loss(np.zeros((2, 4)), np.zeros((2, 4)), box)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            pt_loss(np.array([0.0, 0.0, bad, 0.0]), np.zeros(4), box)
        with pytest.raises(ValueError):
            pt_loss(np.zeros(4), np.array([bad, 0.0, 0.0, 0.0]), box)
        with pytest.raises(ValueError):
            pt_loss(np.zeros(4), np.zeros(4), np.array([0.0, bad, 5.0, 5.0]))


# The per-example loss as first written, on BBox and apply_motion: the
# reference the array form must equal bit for bit.
def reference_pt_loss(pred_motion, target_motion, prev_box: BBox, lambda_small=2.0):
    pred_motion = np.asarray(pred_motion, dtype=np.float64)
    target_motion = np.asarray(target_motion, dtype=np.float64)
    value, grad = smooth_l1(pred_motion - target_motion)
    pred_box = apply_motion(prev_box, Motion(*pred_motion))
    target_box = apply_motion(prev_box, Motion(*target_motion))
    scale = lambda_small if pred_box.w * pred_box.h < target_box.w * target_box.h else 1.0
    return scale * float(value.mean()), scale * grad / 4.0


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def check_pt_loss_against_reference(examples, lambda_small):
    pred, target, prev = (np.array([e[k] for e in examples]) for k in range(3))
    values, grads = pt_loss(pred, target, prev, lambda_small)
    assert values.shape == (len(examples),) and grads.shape == (len(examples), 4)
    for i, (p, t, box) in enumerate(examples):
        ref_value, ref_grad = reference_pt_loss(p, t, BBox(*box), lambda_small)
        assert same_bits(values[i], ref_value) and same_bits(grads[i], ref_grad)
        single_value, single_grad = pt_loss(p, t, box, lambda_small)
        assert same_bits(single_value, ref_value) and same_bits(single_grad, ref_grad)


def test_pt_loss_matches_reference_at_clamps_and_both_sides_of_gate():
    box = (10.0, 10.0, 3.0, 2.0)
    cases = [  # (pred, target, prev, penalized)
        # both moved boxes clamp at 1 x 1: equal areas
        ((0.0, 0.0, -5.0, -5.0), (1.0, 1.0, -9.0, -2.0), box, False),
        # 0.5 x 0.5 against 0.8 x 0.8: both clamp to 1 x 1
        ((0.0, 0.0, -2.5, -1.5), (0.0, 0.0, -2.2, -1.2), box, False),
        # -2 x -3 clamps to 1 x 1, smaller than 2 x 2
        ((0.0, 0.0, -5.0, -5.0), (0.0, 0.0, -1.0, 0.0), box, True),
        # prediction clamped, target not
        ((0.5, 0.0, -4.0, -1.5), (0.0, 0.0, 0.0, 0.0), box, True),
        # target clamped, prediction not
        ((0.0, 0.0, 0.0, 0.0), (0.0, 2.0, -4.0, -3.0), box, False),
        # prediction exactly 1 x 1, target clamped to it
        ((0.0, 0.0, -2.0, -1.0), (0.0, 0.0, -2.5, -1.0), box, False),
        # equal areas from different shapes, 4 x 2 against 2 x 4
        ((0.0, 0.0, 1.0, 0.0), (0.0, 0.0, -1.0, 2.0), box, False),
        # both Huber branches and the kink, on either side of the gate
        ((3.0, -1.0, 1.0, -0.5), (0.0, 0.0, 2.5, 0.5), box, True),
        ((-3.0, 1.0, 4.0, 2.0), (0.0, 0.0, 2.5, 0.5), box, False),
        # zero-size box
        ((0.0, 0.0, 0.5, 3.0), (0.0, 0.0, 2.0, 2.0), (0.0, 0.0, 0.0, 0.0), True),
    ]
    for lambda_small in (1.0, 2.0, 3.5):
        check_pt_loss_against_reference([case[:3] for case in cases], lambda_small)
    pred, target, prev = (np.array([case[k] for case in cases]) for k in range(3))
    base, _ = pt_loss(pred, target, prev, lambda_small=1.0)
    scaled, _ = pt_loss(pred, target, prev, lambda_small=3.5)
    assert np.all(base > 0)
    assert np.array_equal(scaled == 3.5 * base, [case[3] for case in cases])


coords = st.one_of(st.integers(-12, 12).map(float), st.floats(-40.0, 40.0))
sizes = st.one_of(st.integers(0, 6).map(float), st.floats(0.0, 30.0))
motions = st.tuples(coords, coords, coords, coords)
boxes = st.tuples(coords, coords, sizes, sizes)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(motions, motions, boxes), min_size=1, max_size=8),
    st.one_of(st.sampled_from([1.0, 2.0]), st.floats(1.0, 8.0)),
)
def test_pt_loss_matches_reference(examples, lambda_small):
    check_pt_loss_against_reference(examples, lambda_small)


# --- training data extraction ---


def test_extract_triples_counts_and_values():
    boxes = [BBox(0, 0, 5, 5), BBox(2, 1, 5, 5), BBox(4, 2, 5, 5), BBox(6, 3, 5, 5)]
    triples = extract_triples({1: boxes})
    assert len(triples) == 2
    t_in, t_out, prev = triples[0]
    assert np.allclose(t_in, [2, 1, 0, 0])
    assert np.allclose(t_out, [2, 1, 0, 0])
    assert BBox(*prev) == boxes[1]


def test_extract_triples_gaps_break_runs():
    boxes = [BBox(0, 0, 5, 5), BBox(1, 0, 5, 5), None, BBox(3, 0, 5, 5), BBox(4, 0, 5, 5)]
    assert extract_triples({1: boxes}).shape == (0, 3, 4)
    boxes.append(BBox(5, 0, 5, 5))
    assert len(extract_triples({1: boxes})) == 1


fields = st.one_of(st.integers(-50, 50), st.floats(-1e3, 1e3), st.sampled_from([1e300, -1e300]))
extents = st.one_of(st.integers(0, 50), st.floats(0.0, 1e3), st.just(1e300))
maybe_boxes = st.one_of(st.none(), st.builds(BBox, fields, fields, extents, extents))


@st.composite
def box_tracks(draw):
    """Up to five tracks of 0-8 boxes with None gaps, keyed by ids inserted
    in any order; fields are integers, fractions or +-1e300."""
    ids = draw(st.permutations(draw(st.lists(st.integers(-5, 9), unique=True, max_size=5))))
    return {oid: draw(st.lists(maybe_boxes, max_size=8)) for oid in ids}


@settings(max_examples=300, deadline=None)
@given(box_tracks())
def test_extract_triples_equals_the_stacked_tuple_reference(tracks):
    got = extract_triples(tracks)
    want = np.stack(motion_reference.stack_triples(motion_reference.extract_triples(tracks)), axis=1)
    assert got.dtype == np.float64 and got.shape == want.shape == (len(want), 3, 4)
    assert got.tobytes() == want.tobytes()


def test_extract_triples_visits_objects_in_sorted_order():
    track = [BBox(0, 0, 5, 5), BBox(1, 0, 5, 5), BBox(2, 0, 5, 5)]
    track_b = [BBox(0, 0, 5, 5), BBox(0, 1, 5, 5), BBox(0, 2, 5, 5)]
    triples = extract_triples({2: track, 1: track_b})
    assert np.allclose(triples[0][0], [0, 1, 0, 0])  # object 1 first
    assert np.allclose(triples[1][0], [1, 0, 0, 0])


# --- training ---


def cv_triples(n=40, seed=0):
    rng = Rng(seed)
    tracks = {}
    for oid in range(n):
        v = rng.uniform_range(-6, 6, 2)
        x, y = rng.uniform_range(50, 400, 2)
        tracks[oid] = [BBox(x + v[0] * k, y + v[1] * k, 30, 24) for k in range(3)]
    return extract_triples(tracks)


def test_train_learns_identity_on_constant_velocity():
    triples = cv_triples()
    model = MotionPredictor.for_frame(480, 854)
    before = dataset_loss(model, triples)
    history = train_pt(model, triples, epochs=40, seed=0)
    after = dataset_loss(model, triples)
    assert after < before / 10.0
    assert history[-1] < history[0]
    # prediction now tracks the input motion closely
    m = model.predict_motion(Motion(4.0, -2.0, 0.0, 0.0))
    assert abs(m.dx - 4.0) < 1.0 and abs(m.dy + 2.0) < 1.0


def test_train_is_bitwise_deterministic():
    t = cv_triples(10)
    m1 = MotionPredictor.for_frame(100, 100, seed=3)
    m2 = MotionPredictor.for_frame(100, 100, seed=3)
    train_pt(m1, t, epochs=3, seed=9)
    train_pt(m2, t, epochs=3, seed=9)
    for la, lb in zip(m1.params, m2.params):
        assert np.array_equal(la["weight"], lb["weight"])
        assert np.array_equal(la["bias"], lb["bias"])


def test_train_zero_epochs_is_noop():
    t = cv_triples(5)
    model = MotionPredictor.for_frame(100, 100, seed=1)
    reference = [layer["weight"].copy() for layer in model.params]
    history = train_pt(model, t, epochs=0)
    assert history == []
    for layer, ref in zip(model.params, reference):
        assert np.array_equal(layer["weight"], ref)


def test_one_training_epoch_allocates_under_seven_parameter_vectors():
    # Adam's two moments and its two scratch vectors, and the gradient, are
    # five vectors of PARAM_COUNT float64; the rows of the epoch and one
    # batch's forward cache take the rest. One epoch over 224 rows at batch
    # 16 peaks at 702,968 B (6.7 vectors) on numpy 2.4 and Python 3.11.
    triples = cv_triples(224)
    model = MotionPredictor.for_frame(480, 854)
    train_pt(model, triples, epochs=1, batch=16)  # first-call allocations are not the epoch's own
    tracemalloc.start()
    try:
        train_pt(model, triples, epochs=1, batch=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 * PARAM_COUNT * np.dtype(np.float64).itemsize, f"peak {peak:,} B"


def test_train_rejects_bad_arguments():
    model = MotionPredictor.for_frame(100, 100)
    with pytest.raises(ValueError):
        train_pt(model, [], epochs=-1)
    with pytest.raises(ValueError):
        train_pt(model, [], batch=0)


def test_cv_baseline_loss_zero_on_constant_velocity():
    assert dataset_loss(None, cv_triples(10)) < 1e-12


def varied_triples(n=12, seed=0):
    """Tracks whose boxes move, grow and shrink, some down to the clamp."""
    rng = Rng(seed)
    tracks = {}
    for oid in range(n):
        x, y, vx, vy = rng.uniform_range(-8, 8, 4) + [200, 150, 0, 0]
        w, h = rng.uniform_range(1, 40, 2)
        dw, dh = rng.uniform_range(-6, 6, 2)
        tracks[oid] = [
            BBox(x + vx * k, y + vy * k, max(w + dw * k, 0.0), max(h + dh * k, 0.0))
            for k in range(4)
        ]
    return extract_triples(tracks)


# The dataset losses and the training loop as first written, one example at a
# time: the references for dataset_loss and train_pt.
def reference_dataset_loss(predictor, triples, lambda_small=2.0):
    if not len(triples):
        return 0.0
    total = 0.0
    for t_in, t_out, prev in triples:
        if predictor is None:
            pred = t_in
        else:
            out = mlp_forward(predictor.params, t_in[None, :] / predictor.scale)
            pred = out[0] * predictor.scale
        value, _ = reference_pt_loss(pred, t_out, BBox(*prev), lambda_small)
        total += value
    return total / len(triples)


def reference_train_pt(predictor, triples, epochs, batch, lr, lambda_small, weight_decay, seed):
    optimizer = ReferenceAdam(lr=lr, weight_decay=weight_decay)
    history = []
    rng = Rng(seed)
    for epoch in range(epochs):
        order = np.arange(len(triples))
        rng.spawn(epoch).shuffle(order)
        total = 0.0
        for start in range(0, len(order), batch):
            chunk = order[start : start + batch]
            x = np.stack([triples[i][0] for i in chunk]) / predictor.scale
            cache = []
            out = mlp_forward(predictor.params, x, cache)
            grad_out = np.zeros_like(out)
            for row, idx in enumerate(chunk):
                _, t_out, prev = triples[idx]
                pred = out[row] * predictor.scale
                value, grad_pred = reference_pt_loss(pred, t_out, BBox(*prev), lambda_small)
                total += value
                grad_out[row] = grad_pred * predictor.scale / len(chunk)
            grads = mlp_backward(predictor.params, cache, grad_out)
            optimizer.step(predictor.params, grads)
        history.append(total / len(triples) if len(triples) else 0.0)
    return history


@settings(max_examples=25, deadline=None)
@given(
    batch=st.sampled_from([1, 3, 5, 16, 40]),
    seed=st.integers(0, 2**32),
    lambda_small=st.sampled_from([1.0, 2.0, 3.5]),
    weight_decay=st.sampled_from([0.0, 0.01]),
    corpus_seed=st.integers(0, 3),
)
def test_train_pt_matches_reference_bit_for_bit(batch, seed, lambda_small, weight_decay, corpus_seed):
    triples = varied_triples(seed=corpus_seed)
    model = MotionPredictor.for_frame(240, 427, seed=seed % 7)
    reference = MotionPredictor.for_frame(240, 427, seed=seed % 7)
    args = dict(
        epochs=3, batch=batch, lr=3e-3, lambda_small=lambda_small, weight_decay=weight_decay, seed=seed
    )
    history = train_pt(model, triples, **args)
    assert same_bits(history, reference_train_pt(reference, triples, **args))
    for layer, ref_layer in zip(model.params, reference.params):
        for key in ("weight", "bias"):
            assert same_bits(layer[key], ref_layer[key])
    # the trained model scores within one batched-matmul rounding of the
    # row-at-a-time reference; the baseline involves no matmul and is exact
    for lam in (1.0, lambda_small):
        value = dataset_loss(model, triples, lam)
        assert abs(value - reference_dataset_loss(model, triples, lam)) <= 1e-12 * abs(value)
        assert same_bits(dataset_loss(None, triples, lam), reference_dataset_loss(None, triples, lam))


def test_train_pt_with_a_partial_last_batch_matches_reference_bit_for_bit():
    triples = varied_triples(seed=2)
    assert len(triples) % 7 != 0  # batches of 7 leave a short last one
    model = MotionPredictor.for_frame(240, 427, seed=3)
    reference = MotionPredictor.for_frame(240, 427, seed=3)
    args = dict(epochs=4, batch=7, lr=3e-3, lambda_small=2.0, weight_decay=0.0, seed=5)
    assert same_bits(train_pt(model, triples, **args), reference_train_pt(reference, triples, **args))
    assert same_bits(model.flat, flatten(reference.params))


def test_train_pt_on_no_triples_keeps_the_weights_and_scores_zero():
    model = MotionPredictor.for_frame(100, 100, seed=1)
    before = model.flat.copy()
    for empty in ([], np.zeros((0, 3, 4))):
        assert train_pt(model, empty, epochs=3) == [0.0, 0.0, 0.0]
    assert same_bits(model.flat, before)


def test_train_pt_rejects_a_non_finite_prediction_or_row():
    triples = varied_triples(seed=0)
    model = MotionPredictor.for_frame(240, 427, seed=1)
    model.flat[...] = 1e300  # the second layer's matmul overflows
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
        train_pt(model, triples, epochs=1)
    # a non-finite target or box is refused before any step
    model = MotionPredictor.for_frame(240, 427, seed=1)
    before = model.flat.copy()
    for row, column in ((1, 0), (2, 3)):
        bad = triples.copy()
        bad[len(bad) - 1, row, column] = np.inf
        with pytest.raises(ValueError, match="finite"):
            train_pt(model, bad, epochs=1)
        assert same_bits(model.flat, before)


# sha256 of the float64 parameters (layer by layer, weight then bias) and of
# the loss history after a short train_pt run. The float32 .tvck rounds away
# a last-bit change in training; these digests do not.
TRAINED_PARAMS_SHA256 = "f53cd08d87a6d3c78763479201dbe96a3888482ae1d5ceca9fce274cf1c9e686"
TRAINED_HISTORY_SHA256 = "ce9fd87c659ca14312b19385ddad33cef1ebc075f85ad5a3756f835d8917e5a1"


def test_train_pt_float64_golden():
    model = MotionPredictor.for_frame(240, 427, seed=2)
    history = train_pt(
        model, varied_triples(seed=1), epochs=6, batch=5, lr=3e-3, lambda_small=3.5, weight_decay=0.01, seed=11
    )
    params = b"".join(layer[k].tobytes() for layer in model.params for k in ("weight", "bias"))
    assert hashlib.sha256(params).hexdigest() == TRAINED_PARAMS_SHA256
    assert hashlib.sha256(np.array(history).tobytes()).hexdigest() == TRAINED_HISTORY_SHA256


def test_dataset_loss_of_no_triples_is_zero():
    model = MotionPredictor.for_frame(100, 100)
    assert dataset_loss(model, []) == 0.0 and dataset_loss(None, []) == 0.0
    assert train_pt(model, [], epochs=2) == [0.0, 0.0]


# --- predictor plumbing ---


def test_for_frame_scale_is_tenth_of_diagonal():
    model = MotionPredictor.for_frame(480, 854)
    assert abs(model.scale - 0.1 * math.hypot(480, 854)) < 1e-12
    with pytest.raises(ValueError):
        MotionPredictor(scale=0.0)


def test_params_are_views_into_the_flat_vector():
    model = MotionPredictor.for_frame(120, 200, seed=5)
    assert model.flat.shape == (PARAM_COUNT,) and model.flat.flags.c_contiguous
    assert same_bits(flatten(model.params), model.flat)
    assert same_bits(flatten(init_params(5)), model.flat)
    for i, layer in enumerate(model.params):
        assert layer["weight"].shape == (LAYER_SIZES[i], LAYER_SIZES[i + 1])
        assert np.shares_memory(layer["weight"], model.flat) and np.shares_memory(layer["bias"], model.flat)
    # arrays taken before training see the trained values
    taken = [layer[k] for layer in model.params for k in ("weight", "bias")]
    before = [a.copy() for a in taken]
    train_pt(model, cv_triples(5), epochs=2)
    assert same_bits(np.concatenate([a.reshape(-1) for a in taken]), model.flat)
    assert all(not np.array_equal(a, b) for a, b in zip(taken, before))


def test_param_items_roundtrip():
    model = MotionPredictor.for_frame(120, 200, seed=5)
    train_pt(model, cv_triples(5), epochs=2)
    items = dict(model.param_items())
    assert "pt.norm.scale" in items
    clone = MotionPredictor.from_param_items(items)
    assert clone.scale == model.scale
    m = Motion(3.0, 1.0, 0.5, -0.5)
    assert np.allclose(
        clone.predict_motion(m).as_tuple(), model.predict_motion(m).as_tuple(), atol=1e-12
    )


def test_from_param_items_validates():
    model = MotionPredictor.for_frame(120, 200)
    items = dict(model.param_items())
    del items["pt.layer2.bias"]
    with pytest.raises(ValueError):
        MotionPredictor.from_param_items(items)
    items = dict(model.param_items())
    items["pt.layer1.weight"] = np.zeros((3, 3))
    with pytest.raises(ValueError):
        MotionPredictor.from_param_items(items)
    with pytest.raises(ValueError):
        MotionPredictor.from_param_items({})
    # the scale entry holds exactly one value: none, or a second, is an error
    for scale in (np.zeros(0), np.array([5.0, 7.0])):
        items = dict(model.param_items(), **{"pt.norm.scale": scale})
        with pytest.raises(ValueError, match=rf"pt.norm.scale .* shape \({len(scale)},\)"):
            MotionPredictor.from_param_items(items)
