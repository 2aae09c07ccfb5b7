"""Slow references for ``voskit.gradcheck``: the per-component
finite-difference driver it ran before it batched perturbations, which the
batched ``central_diff`` must equal bit for bit and which drives the FD
tests; the per-loss check it ran before one shared loss pass; and the
whole-network scoring of a perturbed MLP stack that ``check_mlp`` ran
before it started from the cached input of the perturbed layer."""

import numpy as np

from voskit import losses
from voskit.gradcheck import FD_EPS, _random_instance, max_err
from voskit.gradcheck import central_diff as batched_central_diff
from voskit.motion_mlp import mlp_forward


def central_diff(f, x: np.ndarray, eps: float = FD_EPS) -> np.ndarray:
    """Central finite differences of a scalar function, one component at a
    time; x (which may be a view) is perturbed in place and restored."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


LOSSES = {
    "ce_loss": losses.ce_loss,
    "iou_loss": losses.iou_loss,
    "ssim_loss": losses.ssim_loss,
    "total_loss": losses.total_loss,
}


def check_loss(name: str, seed: int, size: int) -> float:
    """The per-loss check ``voskit.gradcheck`` ran before one ``total_loss``
    pass served all four loss checks: the loss ``LOSSES[name]`` alone, its
    own gradient and its own finite differences on the random instance."""
    loss_fn = LOSSES[name]
    pred, target = _random_instance(seed, size)
    analytic = loss_fn(pred, target).grad
    numeric = batched_central_diff(lambda p: loss_fn(p, target).value, pred)
    return max_err(analytic, numeric)


def full_network_score(params, x: np.ndarray, c: np.ndarray, i: int, name: str, stack: np.ndarray) -> np.ndarray:
    """sum(output * c) with layer i's ``name`` replaced by each entry of a
    stack, a bias entry broadcasting over the batch, from one
    ``mlp_forward`` call of the whole network on the batch x: the layers
    below i run unstacked."""
    if name == "bias":
        stack = stack[:, None, :]
    replaced = [{**layer, name: stack} if j == i else layer for j, layer in enumerate(params)]
    return np.sum(mlp_forward(replaced, x) * c, axis=(-2, -1))
