"""Learned motion refinement.

A small fully connected network maps a raw box motion (dx, dy, dw, dh) to a
refined motion for the next frame. Layer widths are fixed at
[4, 64, 64, 64, 64, 4] with GeLU between layers; forward, backward, and the
Adam optimizer are written out explicitly so training is reproducible to the
bit on any platform. GeLU, its derivative and Adam compute in place, to the
bit what the textbook operation order gives.

Motions are normalized by 0.1 * frame diagonal before entering the network
and denormalized on the way out. The output layer starts at zero, so an
untrained predictor returns exactly the zero motion (a stationary-box prior)
regardless of input.

Training examples come from box tracks: each run of three consecutive boxes
of one object yields a row (input motion, target motion, moved box) of one
(n, 3, 4) array. The regression loss is smooth L1, scaled up by
``lambda_small`` whenever the predicted box would come out smaller than the
target box, which penalizes the shrinking-box failure mode more than
overshoot. The network and the loss take whole batches, so training and
dataset scoring make one call per batch. A training run checks its fixed
targets and boxes once and each step's prediction only, and gathers each
epoch's shuffled rows once, so its batches are slices.

One forward, ``mlp_forward``, runs any suffix of the layer list, which is
a network of its own. It records the per-layer cache that ``mlp_backward``
reads only into a list the caller passes: training passes one per batch,
and prediction passes none, so each layer's arrays are freed as it ends.

A predictor keeps its ten parameter tensors in one contiguous float64 vector
of PARAM_COUNT values, layer by layer, each layer's (fan_in, fan_out) weight
row-major and then its bias. ``params`` holds views into that vector, and
training writes its gradients into a second vector of the same layout, so
one Adam update over the whole vector is one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import MIN_BOX_SIZE, BBox, Motion, box_delta
from .rng import Rng

LAYER_SIZES = (4, 64, 64, 64, 64, 4)
GELU_COEFF = math.sqrt(2.0 / math.pi)
SMOOTH_L1_DELTA = 1.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PARAM_COUNT = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(LAYER_SIZES, LAYER_SIZES[1:]))


def gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(sqrt(2/pi) (x + 0.044715 x^3)), the factor GeLU and its
    derivative share."""
    x = np.asarray(x, dtype=np.float64)
    if not x.ndim:  # numpy returns 0-d results as scalars, which take no out=
        return gelu_tanh(x.reshape(1))[0]
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= GELU_COEFF
    return np.tanh(t, out=t)


# gelu and gelu_grad build their result in place and move each factor 0.5 to
# where it scales a whole term. A product or sum scaled by 0.5 rounds to the
# same double either way, and no term here overflows or goes subnormal where
# that would differ (1 + t is 0 or at least 2^-53, and 1 + t == 1 wherever x
# is tiny), so both equal the textbook order bit for bit.
def gelu(x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """Tanh-form GeLU: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).
    ``t`` is ``gelu_tanh(x)`` when the caller already has it."""
    x = np.asarray(x, dtype=np.float64)
    g = (gelu_tanh(x) if t is None else t) + 1.0
    g *= 0.5
    g *= x
    return g


def gelu_grad(x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """d gelu / dx = 0.5 (1 + t) + 0.5 x (1 - t^2) sqrt(2/pi) (1 + 3 0.044715
    x^2), with t = ``gelu_tanh(x)``; pass ``t`` when the caller already has
    it."""
    x = np.asarray(x, dtype=np.float64)
    t = gelu_tanh(x) if t is None else t
    if not x.ndim:
        return gelu_grad(x.reshape(1), np.reshape(t, 1))[0]
    g = x * x
    g *= 3.0 * 0.044715
    g += 1.0
    g *= GELU_COEFF
    s = t * t
    np.subtract(1.0, s, out=s)
    s *= x
    g *= s
    np.add(t, 1.0, out=s)
    g += s
    g *= 0.5
    return g


def init_params(seed: int = 0) -> list[dict[str, np.ndarray]]:
    """He-uniform hidden layers, zero output layer.

    Weight shapes are (fan_in, fan_out); biases start at zero everywhere.
    """
    rng = Rng(seed)
    params = []
    last = len(LAYER_SIZES) - 2
    for i in range(len(LAYER_SIZES) - 1):
        fan_in, fan_out = LAYER_SIZES[i], LAYER_SIZES[i + 1]
        if i == last:
            weight = np.zeros((fan_in, fan_out))
        else:
            bound = math.sqrt(6.0 / fan_in)
            flat = rng.spawn(i).uniform_range(-bound, bound, fan_in * fan_out)
            weight = flat.reshape(fan_in, fan_out)
        params.append({"weight": weight, "bias": np.zeros(fan_out)})
    return params


def param_views(flat: np.ndarray) -> list[dict[str, np.ndarray]]:
    """The {"weight", "bias"} layers of LAYER_SIZES as views into a flat
    vector of PARAM_COUNT values."""
    layers = []
    start = 0
    for fan_in, fan_out in zip(LAYER_SIZES, LAYER_SIZES[1:]):
        bias_start = start + fan_in * fan_out
        weight = flat[start:bias_start].reshape(fan_in, fan_out)
        start = bias_start + fan_out
        layers.append({"weight": weight, "bias": flat[bias_start:start]})
    return layers


def mlp_forward(params, x: np.ndarray, cache: list | None = None) -> np.ndarray:
    """The output of the network ``params`` for a (n, fan_in) batch x, where
    fan_in is the first layer's: a suffix ``params[i:]`` is a network too,
    whose input is layer i's. Given a list ``cache``, each layer appends its
    (input, pre-activation, GeLU tanh) record to it for ``mlp_backward``;
    the output layer has no GeLU, so its tanh is None. Without one, each
    layer's arrays are dropped before the next layer's matmul."""
    h = np.asarray(x, dtype=np.float64)
    width = params[0]["weight"].shape[-2]
    if h.ndim != 2 or h.shape[1] != width:
        raise ValueError(f"expected (n, {width}) inputs, got {h.shape}")
    last = len(params) - 1
    for i, layer in enumerate(params):
        z = h @ layer["weight"] + layer["bias"]
        t = None if i == last else gelu_tanh(z)
        if cache is not None:
            cache.append((h, z, t))
        h = z if t is None else gelu(z, t)
        del z, t
    return h


def mlp_backward(params, cache, grad_out: np.ndarray, out=None) -> list[dict[str, np.ndarray]]:
    """Gradients of sum(grad_out * output) w.r.t. every parameter, for the
    (n, 4) ``grad_out`` of the batch whose forward recorded ``cache``,
    written into and returned as ``out``: {"weight", "bias"} layers such as
    ``param_views`` of a flat gradient vector (of a new one when not given)."""
    grads = param_views(np.empty(PARAM_COUNT)) if out is None else out
    delta = np.asarray(grad_out, dtype=np.float64)
    last = len(params) - 1
    for i in range(last, -1, -1):
        h, z, t = cache[i]
        if i != last:
            # delta came from the previous iteration's matmul, so it is ours to scale
            delta *= gelu_grad(z, t)
        np.matmul(h.T, delta, out=grads[i]["weight"])
        np.add.reduce(delta, axis=0, out=grads[i]["bias"])
        if i > 0:
            delta = delta @ params[i]["weight"].T
    return grads


@dataclass
class Adam:
    """Decoupled-weight-decay Adam over one flat parameter vector, with the
    moment decays ADAM_BETA1 and ADAM_BETA2 and the denominator guard
    ADAM_EPS; ``m`` and ``v`` are vectors of the same layout, updated in
    place through two scratch vectors of that layout."""

    lr: float = 1e-3
    weight_decay: float = 0.0
    step_count: int = field(default=0, init=False)
    m: np.ndarray | None = field(default=None, init=False)
    v: np.ndarray | None = field(default=None, init=False)
    _scratch: tuple = field(default=(), init=False, repr=False)

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        """Update the 1-D ``flat`` in place from its gradient ``grad``."""
        if self.m is None:
            self.m = np.zeros_like(flat)
            self.v = np.zeros_like(flat)
            self._scratch = (np.empty_like(flat), np.empty_like(flat))
        self.step_count += 1
        t = self.step_count
        m, v, (update, s) = self.m, self.v, self._scratch
        # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2
        m *= ADAM_BETA1
        np.multiply(grad, 1.0 - ADAM_BETA1, out=s)
        m += s
        v *= ADAM_BETA2
        np.multiply(grad, grad, out=s)
        s *= 1.0 - ADAM_BETA2
        v += s
        # update = m_hat / (sqrt(v_hat) + eps) (+ weight_decay flat); from
        # step 356 on, 1 - b1^t rounds to 1.0 and m_hat is m to the bit
        np.divide(v, 1.0 - ADAM_BETA2**t, out=s)
        np.sqrt(s, out=s)
        s += ADAM_EPS
        m_bias = 1.0 - ADAM_BETA1**t
        if m_bias == 1.0:
            np.divide(m, s, out=update)
        else:
            np.divide(m, m_bias, out=update)
            update /= s
        if self.weight_decay:
            np.multiply(flat, self.weight_decay, out=s)
            update += s
        update *= self.lr
        flat -= update


def smooth_l1(diff: np.ndarray):
    """Elementwise Huber value (threshold SMOOTH_L1_DELTA) and derivative in
    the difference."""
    diff = np.asarray(diff, dtype=np.float64)
    a = np.abs(diff)
    quad = a <= SMOOTH_L1_DELTA
    value = np.where(quad, 0.5 * diff**2 / SMOOTH_L1_DELTA, a - 0.5 * SMOOTH_L1_DELTA)
    grad = np.where(quad, diff / SMOOTH_L1_DELTA, np.sign(diff))
    return value, grad


def pt_loss(
    pred: np.ndarray,
    target: np.ndarray,
    prev: np.ndarray,
    lambda_small: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Smooth-L1 motion regression with a shrinking-box penalty.

    ``pred`` and ``target`` are (..., 4) motions (dx, dy, dw, dh) and
    ``prev`` the (..., 4) boxes (x, y, w, h) they move. Each example's loss
    is the mean Huber loss over its 4 components, multiplied by
    ``lambda_small`` when the box produced by the predicted motion has
    smaller area than the box produced by the target motion; as in
    :func:`~voskit.boxes.apply_motion`, moved widths and heights are
    clamped at ``MIN_BOX_SIZE``. Returns the per-example losses (...) and
    their gradients w.r.t. ``pred`` (..., 4).
    """
    pred, target, prev = (np.asarray(a, dtype=np.float64) for a in (pred, target, prev))
    if pred.shape[-1:] != (4,) or not pred.shape == target.shape == prev.shape:
        raise ValueError(f"need one (..., 4) shape, got {pred.shape} {target.shape} {prev.shape}")
    _check_targets(target, prev, lambda_small)
    return _pt_loss(pred, target, prev, _moved_area(prev, target), lambda_small)


def _check_targets(target: np.ndarray, prev: np.ndarray, lambda_small: float) -> None:
    """The checks of pt_loss that a training run's fixed data passes once."""
    if lambda_small < 1.0:
        raise ValueError(f"lambda_small must be >= 1, got {lambda_small}")
    if not (np.isfinite(target).all() and np.isfinite(prev).all()):
        raise ValueError("motions and boxes must be finite")


def _moved_area(prev: np.ndarray, motion: np.ndarray) -> np.ndarray:
    """Areas of the boxes ``prev`` moved by ``motion``, each size clamped at
    MIN_BOX_SIZE."""
    return np.multiply.reduce(np.maximum(prev[..., 2:] + motion[..., 2:], MIN_BOX_SIZE), axis=-1)


def _pt_loss(pred, target, prev, target_area, lambda_small):
    """pt_loss of float64 arrays of one shape whose ``target``, ``prev`` and
    ``lambda_small`` passed ``_check_targets``; ``target_area`` is
    ``_moved_area(prev, target)``."""
    if not np.isfinite(pred).all():
        raise ValueError("motions and boxes must be finite")
    scale = np.where(_moved_area(prev, pred) < target_area, lambda_small, 1.0)
    value, grad = smooth_l1(pred - target)
    grad *= scale[..., None]
    grad /= 4.0
    return scale * (np.add.reduce(value, axis=-1) / 4.0), grad


def extract_triples(tracks: dict[int, list[BBox | None]]) -> np.ndarray:
    """Training examples from per-object box tracks, as a float64 (n, 3, 4)
    array.

    Every run of three consecutive present boxes (a, b, c) of one object
    yields the row (motion b-a, motion c-b, prev box b). Gaps (None) break
    runs. Rows follow the sorted object ids, each track in time order, so
    the example order is stable.
    """
    rows = []
    for object_id in sorted(tracks):
        boxes = tracks[object_id]
        for a, b, c in zip(boxes, boxes[1:], boxes[2:]):
            if a is not None and b is not None and c is not None:
                rows += [box_delta(b, a).as_tuple(), box_delta(c, b).as_tuple(), b.as_tuple()]
    return np.array(rows, dtype=np.float64).reshape(-1, 3, 4)


class MotionPredictor:
    """Wraps the network with motion normalization.

    ``scale`` is the normalization divisor, conventionally
    0.1 * sqrt(H^2 + W^2) of the frame. The parameters of ``init_params(seed)``
    are copied into the flat vector ``flat``; ``params`` lists its {"weight",
    "bias"} layers as views, so writes into them reach ``flat`` and training
    updates them in place. An array put in place of a view is not trained.
    """

    def __init__(self, scale: float, seed: int = 0):
        if not np.isfinite(scale) or scale <= 0:
            raise ValueError(f"scale must be finite and positive, got {scale}")
        self.scale = float(scale)
        self.flat = np.concatenate([a.reshape(-1) for layer in init_params(seed) for a in layer.values()])
        self.params = param_views(self.flat)

    @classmethod
    def for_frame(cls, height: int, width: int, seed: int = 0) -> "MotionPredictor":
        return cls(scale=0.1 * math.hypot(height, width), seed=seed)

    def predict(self, motions: np.ndarray) -> np.ndarray:
        """Refined motions for an (n, 4) batch of raw motions."""
        with np.errstate(over="ignore"):  # gelu_tanh's cube overflows where tanh is exactly +-1
            out = mlp_forward(self.params, np.asarray(motions, dtype=np.float64) / self.scale)
        return out * self.scale

    def predict_motion(self, motion: Motion) -> Motion:
        """The refined motion of one raw motion, run as a one-row batch."""
        return Motion(*self.predict([motion.as_tuple()])[0].tolist())

    def param_items(self):
        """(name, array) pairs naming each tensor, plus the scale."""
        items = []
        for i, layer in enumerate(self.params):
            items.append((f"pt.layer{i}.weight", layer["weight"]))
            items.append((f"pt.layer{i}.bias", layer["bias"]))
        items.append(("pt.norm.scale", np.array([self.scale], dtype=np.float64)))
        return items

    @classmethod
    def from_param_items(cls, items: dict[str, np.ndarray]) -> "MotionPredictor":
        """The predictor whose ``param_items()`` equal ``items``: each stored
        weight and bias must have its view's name and shape and be finite."""
        if "pt.norm.scale" not in items:
            raise ValueError("missing pt.norm.scale entry")
        scale = np.asarray(items["pt.norm.scale"])
        if scale.size != 1:
            raise ValueError(f"pt.norm.scale must hold one value, got shape {scale.shape}")
        predictor = cls(scale=float(scale.reshape(-1)[0]))
        for name, view in predictor.param_items()[:-1]:  # the scale entry comes last
            if name not in items:
                raise ValueError(f"missing parameter entry {name}")
            value = np.asarray(items[name])
            if value.shape != view.shape:
                raise ValueError(f"{name} shape {value.shape} != {view.shape}")
            if not np.isfinite(value).all():
                raise ValueError(f"{name} has non-finite values")
            view[...] = value
        return predictor


def _mean_loss(values: np.ndarray) -> float:
    """Mean of per-example losses, 0 for none. The sum runs left to right
    like a running total; np.sum adds pairwise and can round differently."""
    return float(np.cumsum(values)[-1]) / len(values) if len(values) else 0.0


def dataset_loss(predictor: MotionPredictor | None, triples, lambda_small: float = 2.0) -> float:
    """Mean pt_loss over the (n, 3, 4) rows of ``extract_triples``, scoring
    the predictor's motions from one batched forward pass, or with
    ``predictor=None`` the constant-velocity baseline, which repeats the
    input motion."""
    t_in, t_out, prev = np.reshape(triples, (-1, 3, 4)).transpose(1, 0, 2)
    pred = t_in if predictor is None else predictor.predict(t_in)
    return _mean_loss(pt_loss(pred, t_out, prev, lambda_small)[0])


def train_pt(
    predictor: MotionPredictor,
    triples,
    epochs: int = 50,
    batch: int = 16,
    lr: float = 1e-3,
    lambda_small: float = 2.0,
    weight_decay: float = 0.0,
    seed: int = 0,
) -> list[float]:
    """Train the predictor in place on the (n, 3, 4) rows of
    ``extract_triples``; returns the per-epoch mean loss.

    Plain minibatch descent: examples are reshuffled each epoch from a
    deterministic stream, grouped into batches of ``batch``, and each batch
    takes one Adam step on its mean loss. Bit-reproducible for a given seed.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    t_in, t_out, prev = np.reshape(triples, (-1, 3, 4)).transpose(1, 0, 2)
    _check_targets(t_out, prev, lambda_small)
    # (input / scale, target, prev box) planes, regathered in each epoch's order
    data = np.stack([t_in / predictor.scale, t_out, prev])
    target_area = _moved_area(prev, t_out)
    n = len(t_in)
    optimizer = Adam(lr=lr, weight_decay=weight_decay)
    grad = np.empty(PARAM_COUNT)
    grad_layers = param_views(grad)
    history = []
    rng = Rng(seed)
    for epoch in range(epochs):
        order = np.arange(n)
        rng.spawn(epoch).shuffle(order)
        x, target, boxes = data[:, order]
        areas = target_area[order]
        losses = np.empty(n)
        for start in range(0, n, batch):
            rows = slice(start, start + batch)
            cache = []
            out = mlp_forward(predictor.params, x[rows], cache)
            values, grad_pred = _pt_loss(
                out * predictor.scale, target[rows], boxes[rows], areas[rows], lambda_small
            )
            losses[rows] = values
            grad_pred *= predictor.scale
            grad_pred /= len(values)
            mlp_backward(predictor.params, cache, grad_pred, grad_layers)
            optimizer.step(predictor.flat, grad)
        history.append(_mean_loss(losses))
    return history
