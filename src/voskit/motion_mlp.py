"""Learned motion refinement.

A small fully connected network maps a raw box motion (dx, dy, dw, dh) to a
refined motion for the next frame. Layer widths are fixed at
[4, 64, 64, 64, 64, 4] with GeLU between layers; forward, backward, and the
Adam optimizer are written out explicitly so training is reproducible to the
bit on any platform.

Motions are normalized by 0.1 * frame diagonal before entering the network
and denormalized on the way out. The output layer starts at zero, so an
untrained predictor returns exactly the zero motion (a stationary-box prior)
regardless of input.

Training pairs come from box tracks: each run of three consecutive boxes of
one object yields (input motion, target motion). The regression loss is
smooth L1, scaled up by ``lambda_small`` whenever the predicted box would
come out smaller than the target box, which penalizes the shrinking-box
failure mode more than overshoot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import BBox, Motion, apply_motion, box_delta
from .rng import Rng

LAYER_SIZES = (4, 64, 64, 64, 64, 4)
GELU_COEFF = math.sqrt(2.0 / math.pi)
SMOOTH_L1_DELTA = 1.0


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-form GeLU: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))."""
    x = np.asarray(x, dtype=np.float64)
    inner = GELU_COEFF * (x + 0.044715 * x**3)
    return 0.5 * x * (1.0 + np.tanh(inner))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    inner = GELU_COEFF * (x + 0.044715 * x**3)
    t = np.tanh(inner)
    dinner = GELU_COEFF * (1.0 + 3.0 * 0.044715 * x**2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner


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


def mlp_forward(params, x: np.ndarray):
    """Forward pass over a (n, 4) batch. Returns (output, cache)."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != LAYER_SIZES[0]:
        raise ValueError(f"expected (n, {LAYER_SIZES[0]}) inputs, got {x.shape}")
    activations = [x]
    preacts = []
    h = x
    last = len(params) - 1
    for i, layer in enumerate(params):
        z = h @ layer["weight"] + layer["bias"]
        preacts.append(z)
        h = z if i == last else gelu(z)
        activations.append(h)
    out = h[0] if squeeze else h
    return out, {"activations": activations, "preacts": preacts, "squeeze": squeeze}


def mlp_backward(params, cache, grad_out: np.ndarray) -> list[dict[str, np.ndarray]]:
    """Gradients of sum(grad_out * output) w.r.t. every parameter."""
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if cache["squeeze"]:
        grad_out = grad_out[None, :]
    grads = [None] * len(params)
    delta = grad_out
    last = len(params) - 1
    for i in range(last, -1, -1):
        if i != last:
            delta = delta * gelu_grad(cache["preacts"][i])
        a = cache["activations"][i]
        grads[i] = {"weight": a.T @ delta, "bias": delta.sum(axis=0)}
        if i > 0:
            delta = delta @ params[i]["weight"].T
    return grads


@dataclass
class Adam:
    """Decoupled-weight-decay Adam over a params list."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    def step(self, params, grads) -> None:
        if not self.m:
            self.m = [{k: np.zeros_like(v) for k, v in layer.items()} for layer in params]
            self.v = [{k: np.zeros_like(v) for k, v in layer.items()} for layer in params]
        self.step_count += 1
        t = self.step_count
        for layer, g, m, v in zip(params, grads, self.m, self.v):
            for key in layer:
                m[key] = self.beta1 * m[key] + (1.0 - self.beta1) * g[key]
                v[key] = self.beta2 * v[key] + (1.0 - self.beta2) * g[key] ** 2
                m_hat = m[key] / (1.0 - self.beta1**t)
                v_hat = v[key] / (1.0 - self.beta2**t)
                update = m_hat / (np.sqrt(v_hat) + self.eps)
                if self.weight_decay:
                    update = update + self.weight_decay * layer[key]
                layer[key] -= self.lr * update


def smooth_l1(diff: np.ndarray, delta: float = SMOOTH_L1_DELTA):
    """Elementwise Huber value and derivative in the difference."""
    diff = np.asarray(diff, dtype=np.float64)
    a = np.abs(diff)
    quad = a <= delta
    value = np.where(quad, 0.5 * diff**2 / delta, a - 0.5 * delta)
    grad = np.where(quad, diff / delta, np.sign(diff))
    return value, grad


def pt_loss(
    pred_motion: np.ndarray,
    target_motion: np.ndarray,
    prev_box: BBox,
    lambda_small: float = 2.0,
) -> tuple[float, np.ndarray]:
    """Smooth-L1 motion regression with a shrinking-box penalty.

    Mean Huber loss over the 4 motion components, multiplied by
    ``lambda_small`` when the box produced by the predicted motion has
    smaller area than the box produced by the target motion. Returns
    (loss, gradient w.r.t. pred_motion).
    """
    pred_motion = np.asarray(pred_motion, dtype=np.float64)
    target_motion = np.asarray(target_motion, dtype=np.float64)
    if pred_motion.shape != (4,) or target_motion.shape != (4,):
        raise ValueError("motions must be 4-vectors")
    if lambda_small < 1.0:
        raise ValueError(f"lambda_small must be >= 1, got {lambda_small}")
    value, grad = smooth_l1(pred_motion - target_motion)
    pred_box = apply_motion(prev_box, Motion(*pred_motion))
    target_box = apply_motion(prev_box, Motion(*target_motion))
    scale = lambda_small if pred_box.area < target_box.area else 1.0
    return scale * float(value.mean()), scale * grad / 4.0


def extract_triples(tracks: dict[int, list[BBox | None]]) -> list[tuple[np.ndarray, np.ndarray, BBox]]:
    """Training examples from per-object box tracks.

    Every run of three consecutive present boxes (a, b, c) of one object
    yields (motion b-a, motion c-b, prev box b). Gaps (None) break runs.
    Object ids are visited in sorted order so the example order is stable.
    """
    triples = []
    for object_id in sorted(tracks):
        boxes = tracks[object_id]
        for i in range(len(boxes) - 2):
            a, b, c = boxes[i], boxes[i + 1], boxes[i + 2]
            if a is None or b is None or c is None:
                continue
            t_in = np.array(box_delta(b, a).as_tuple(), dtype=np.float64)
            t_out = np.array(box_delta(c, b).as_tuple(), dtype=np.float64)
            triples.append((t_in, t_out, b))
    return triples


class MotionPredictor:
    """Wraps the network with motion normalization.

    ``scale`` is the normalization divisor, conventionally
    0.1 * sqrt(H^2 + W^2) of the frame. Parameters live in ``params`` as a
    list of {"weight", "bias"} layers.
    """

    def __init__(self, scale: float, params=None, seed: int = 0):
        if not np.isfinite(scale) or scale <= 0:
            raise ValueError(f"scale must be finite and positive, got {scale}")
        self.scale = float(scale)
        self.params = params if params is not None else init_params(seed)

    @classmethod
    def for_frame(cls, height: int, width: int, seed: int = 0) -> "MotionPredictor":
        return cls(scale=0.1 * math.hypot(height, width), seed=seed)

    def predict_motion(self, motion: Motion) -> Motion:
        x = np.array(motion.as_tuple(), dtype=np.float64) / self.scale
        out, _ = mlp_forward(self.params, x)
        return Motion(*(out * self.scale))

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
        if "pt.norm.scale" not in items:
            raise ValueError("missing pt.norm.scale entry")
        params = []
        for i in range(len(LAYER_SIZES) - 1):
            shape = (LAYER_SIZES[i], LAYER_SIZES[i + 1])
            try:
                weight = np.asarray(items[f"pt.layer{i}.weight"], dtype=np.float64)
                bias = np.asarray(items[f"pt.layer{i}.bias"], dtype=np.float64)
            except KeyError as exc:
                raise ValueError(f"missing parameter entry {exc.args[0]}") from None
            if weight.shape != shape:
                raise ValueError(f"pt.layer{i}.weight shape {weight.shape} != {shape}")
            if bias.shape != (shape[1],):
                raise ValueError(f"pt.layer{i}.bias shape {bias.shape} != ({shape[1]},)")
            if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(bias))):
                raise ValueError(f"pt.layer{i} has non-finite weights or biases")
            params.append({"weight": weight, "bias": bias})
        scale = float(np.asarray(items["pt.norm.scale"]).reshape(-1)[0])
        return cls(scale=scale, params=params)


def dataset_loss(predictor: MotionPredictor, triples, lambda_small: float = 2.0) -> float:
    """Mean pt_loss of the predictor over a triple list."""
    if not triples:
        return 0.0
    total = 0.0
    for t_in, t_out, prev in triples:
        out, _ = mlp_forward(predictor.params, t_in / predictor.scale)
        pred = out * predictor.scale
        value, _ = pt_loss(pred, t_out, prev, lambda_small)
        total += value
    return total / len(triples)


def cv_dataset_loss(triples, lambda_small: float = 2.0) -> float:
    """Mean pt_loss of the repeat-last-motion baseline over a triple list."""
    if not triples:
        return 0.0
    total = 0.0
    for t_in, t_out, prev in triples:
        value, _ = pt_loss(t_in, t_out, prev, lambda_small)
        total += value
    return total / len(triples)


def train_pt(
    predictor: MotionPredictor,
    triples,
    epochs: int = 50,
    batch: int = 16,
    lr: float = 1e-3,
    lambda_small: float = 2.0,
    weight_decay: float = 0.0,
    seed: int = 0,
    log=None,
) -> list[float]:
    """Train the predictor in place; returns the per-epoch mean loss.

    Plain minibatch descent: examples are reshuffled each epoch from a
    deterministic stream, grouped into batches of ``batch``, and each batch
    takes one Adam step on its mean loss. Bit-reproducible for a given seed.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    triples = list(triples)
    optimizer = Adam(lr=lr, weight_decay=weight_decay)
    history = []
    rng = Rng(seed)
    for epoch in range(epochs):
        order = np.arange(len(triples))
        rng.spawn(epoch).shuffle(order)
        total = 0.0
        for start in range(0, len(order), batch):
            chunk = order[start : start + batch]
            x = np.stack([triples[i][0] for i in chunk]) / predictor.scale
            out, cache = mlp_forward(predictor.params, x)
            grad_out = np.zeros_like(out)
            for row, idx in enumerate(chunk):
                _, t_out, prev = triples[idx]
                pred = out[row] * predictor.scale
                value, grad_pred = pt_loss(pred, t_out, prev, lambda_small)
                total += value
                grad_out[row] = grad_pred * predictor.scale / len(chunk)
            grads = mlp_backward(predictor.params, cache, grad_out)
            optimizer.step(predictor.params, grads)
        mean = total / len(triples) if triples else 0.0
        history.append(mean)
        if log is not None:
            log(epoch, mean)
    return history
