"""Finite-difference validation of every analytic gradient in the package.

Each check builds a random smooth instance, computes the analytic gradient,
and compares it against central differences from one driver,
``central_diff``, along a set of directions. The loss, GeLU and MLP bias
gradients, and the first and last MLP weight matrices, are checked along
unit directions, component by component; the hidden MLP weight matrices
are checked along random +-1 directions, each difference compared with the
analytic gradient's inner product with its direction. The differences are
batched: one call of the checked function scores a whole stack of perturbed
copies of its input. The four loss checks share one pass per seed: one
``total_loss`` call scores each stack, and its ``terms`` give each term's
value next to the sum's, so ``central_diff`` returns a row of four
differences per direction and every stack is scored once. The MLP check
runs one ``mlp_forward`` that records the analytic gradient's cache, and
scores each stack of perturbed layer-i parameters with the suffix network
of layers i.., run on that cache's input of layer i and recording nothing.
The error measure is relative where the gradient is meaningfully sized and
absolute below a floor, so near-zero components cannot blow up the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses
from .motion_mlp import LAYER_SIZES, gelu, gelu_grad, mlp_backward, mlp_forward
from .rng import Rng

FD_EPS = 1e-5
REL_FLOOR = 1e-6

TOLERANCES = {
    "ce_loss": 1e-4,
    "iou_loss": 1e-4,
    "ssim_loss": 1e-3,
    "total_loss": 1e-3,
    "gelu": 1e-4,
    "mlp_backward": 1e-4,
}


# Components perturbed per call of the checked function. Larger chunks make
# fewer calls but grow the perturbed stack (and peak memory) with them.
FD_CHUNK = 32


def central_diff(f, x: np.ndarray, directions=None) -> np.ndarray:
    """Central finite differences of a function f at x along each of the k
    arrays in ``directions`` (shape (k, *x.shape)). By default the
    directions are the unit vectors of x's components, in order, and the
    differences are the gradient, flattened.

    f is called on stacks of perturbed copies of x, shape (2m, *x.shape),
    and returns one value per copy, shape (2m,), or a row of q values per
    copy, shape (2m, q); the result is then (k,) or (k, q). The directions
    go m <= FD_CHUNK at a time: copy j holds x + FD_EPS*V for the chunk's
    j-th direction V and copy m + j holds x - FD_EPS*V. One buffer holds
    each chunk's copies in turn, and x itself is not modified.
    """
    x = np.asarray(x, dtype=np.float64)
    k = x.size if directions is None else len(directions)
    buffer = np.empty((2 * min(FD_CHUNK, k), *x.shape))
    diffs = []
    for start in range(0, k, FD_CHUNK):
        m = min(FD_CHUNK, k - start)
        if directions is None:
            chunk = np.eye(m, x.size, start).reshape(m, *x.shape)
        else:
            chunk = directions[start : start + m]
        stack = buffer[: 2 * m]
        np.multiply(chunk, FD_EPS, out=stack[:m])
        np.subtract(x, stack[:m], out=stack[m:])
        stack[:m] += x
        values = np.asarray(f(stack), dtype=np.float64)
        diffs.append((values[:m] - values[m:]) / (2.0 * FD_EPS))
    return np.concatenate(diffs)


def max_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst componentwise deviation: relative when either side exceeds
    REL_FLOOR, absolute otherwise."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    if a.shape != n.shape:
        raise ValueError(f"gradient shapes differ: {a.shape} vs {n.shape}")
    diff = np.abs(a - n)
    denom = np.maximum(np.abs(a), np.abs(n))
    rel = np.where(denom > REL_FLOOR, diff / np.maximum(denom, REL_FLOOR), diff)
    return float(rel.max()) if rel.size else 0.0


def _random_instance(seed: int, size: int):
    """Smooth prediction in [0.05, 0.95] (clear of the CE clamp) and a
    binary target."""
    rng = Rng(seed)
    pred = rng.uniform_range(0.05, 0.95, size * size).reshape(size, size)
    target = (rng.uniform(size * size).reshape(size, size) > 0.5).astype(np.float64)
    return pred, target


# The loss gradients one shared pass checks, in report order.
LOSS_CHECKS = ("ce_loss", "iou_loss", "ssim_loss", "total_loss")


def check_losses(seed: int, size: int) -> tuple[float, ...]:
    """FD check of every loss in LOSS_CHECKS on one random size x size
    instance; returns their errors in that order. One ``total_loss`` call
    per perturbed stack scores the sum and, through its terms, each term:
    the terms' differences are those of the terms called alone, and the
    total check still scores ``total_loss`` itself."""
    pred, target = _random_instance(seed, size)

    def outputs(p: np.ndarray) -> list[losses.LossOut]:
        out = losses.total_loss(p, target)
        scored = {**out.terms, "total_loss": out}
        return [scored[name] for name in LOSS_CHECKS]

    numeric = central_diff(lambda p: np.stack([o.value for o in outputs(p)], axis=-1), pred)
    return tuple(max_err(o.grad, numeric[:, j]) for j, o in enumerate(outputs(pred)))


def check_gelu(seed: int, size: int) -> float:
    rng = Rng(seed)
    x = rng.uniform_range(-3.0, 3.0, size)
    c = rng.uniform_range(-1.0, 1.0, size)
    analytic = gelu_grad(x) * c
    numeric = central_diff(lambda v: np.sum(gelu(v) * c, axis=-1), x)
    return max_err(analytic, numeric)


def _randomized_params(seed: int):
    """He-style random weights in every layer (the zero output layer of a
    fresh model would make upstream gradients vanish identically)."""
    rng = Rng(seed ^ 0x5EED)
    params = []
    for i, (fan_in, fan_out) in enumerate(zip(LAYER_SIZES, LAYER_SIZES[1:])):
        r = rng.spawn(i)
        bound = np.sqrt(6.0 / fan_in)
        weight = r.uniform_range(-bound, bound, fan_in * fan_out).reshape(fan_in, fan_out)
        params.append({"weight": weight, "bias": r.uniform_range(-0.1, 0.1, fan_out)})
    return params


MLP_BATCH = 3

# Random directions per hidden weight matrix. Each one checks every entry
# of the matrix at once, so a wrong entry, row or layout shows in nearly
# every direction.
MLP_DIRECTIONS = 32


def sign_directions(rng: Rng, shape: tuple[int, ...]) -> np.ndarray:
    """MLP_DIRECTIONS random +-1 arrays of ``shape``, stacked on a new first
    axis. Entry j of the flattened stack is bit j % 64 (least significant
    first) of draw j // 64, 1 giving -1: every bit of every draw is used,
    and the signs do not depend on the platform's byte order."""
    n = MLP_DIRECTIONS * int(np.prod(shape))
    draws = rng.uint64(-(-n // 64)).astype("<u8")
    bits = np.unpackbits(draws.view(np.uint8), count=n, bitorder="little")
    directions = np.multiply(bits, -2.0).reshape(MLP_DIRECTIONS, *shape)
    directions += 1.0
    return directions


def mlp_stack_score(params, cache, c: np.ndarray, i: int, name: str, stack: np.ndarray) -> np.ndarray:
    """sum(output * c) of the batch whose ``mlp_forward`` recorded ``cache``,
    with layer i's ``name`` ("weight" or "bias") replaced by each entry of
    a stack; a bias entry broadcasts over the batch. The layers below i do
    not see the stack, so their output is the cache's input of layer i, and
    only the suffix network of layers i.. runs, on the whole stack."""
    if name == "bias":
        stack = stack[:, None, :]
    suffix = [{**params[i], name: stack}, *params[i + 1 :]]
    return np.sum(mlp_forward(suffix, cache[i][0]) * c, axis=(-2, -1))


def check_mlp(seed: int, size: int = 0) -> float:
    """FD check of the full backward pass on a batch of MLP_BATCH inputs.
    ``size`` is unused: the layer sizes fix every shape. Biases and the
    first and last weight matrices are checked component by component. Each
    hidden weight matrix W is checked along MLP_DIRECTIONS random +-1
    directions V: the central difference of the output in W +- FD_EPS*V
    against the analytic gradient's inner product with V.

    One ``mlp_forward`` call records the analytic gradient's cache. Each
    stack of perturbed weights or biases of layer i is scored by
    ``mlp_stack_score``: layers i.. run on the whole stack from the cached
    input of layer i, and record nothing."""
    params = _randomized_params(seed)
    rng = Rng(seed + 77)
    x = rng.uniform_range(-1.0, 1.0, MLP_BATCH * 4).reshape(MLP_BATCH, 4)
    c = rng.uniform_range(-1.0, 1.0, MLP_BATCH * 4).reshape(MLP_BATCH, 4)

    cache = []
    mlp_forward(params, x, cache)
    analytic = mlp_backward(params, cache, c)

    errors = []
    for i, layer in enumerate(params):
        for name in ("weight", "bias"):
            grad, directions = analytic[i][name], None
            if name == "weight" and i not in (0, len(params) - 1):
                directions = sign_directions(rng, grad.shape)
                grad = directions.reshape(len(directions), -1) @ grad.reshape(-1)
            numeric = central_diff(
                lambda v: mlp_stack_score(params, cache, c, i, name, v), layer[name], directions
            )
            errors.append(max_err(grad, numeric))
    # np.max, not max(): a NaN error must fail the check, not vanish.
    return float(np.max(errors))


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_err < self.tol


# Names -> check(seed, size) returning the worst componentwise error of
# each named gradient, in order (a float for a single name).
CHECKS = {
    LOSS_CHECKS: check_losses,
    ("gelu",): check_gelu,
    ("mlp_backward",): check_mlp,
}


def run_all(base_seed: int = 0, n_seeds: int = 10, size: int = 16) -> list[CheckResult]:
    """All gradient checks over n_seeds seeds each; the reported error is the
    worst seed's worst component (NaN if any seed's error is NaN)."""
    if n_seeds < 1:
        raise ValueError(f"need at least one seed, got {n_seeds}")
    results = []
    for names, check in CHECKS.items():
        errors = np.array([np.atleast_1d(check(base_seed + k, size)) for k in range(n_seeds)])
        results += [
            CheckResult(name=name, max_err=float(worst), tol=TOLERANCES[name])
            for name, worst in zip(names, np.max(errors, axis=0), strict=True)
        ]
    return results
