"""The per-component finite-difference driver that ``voskit.gradcheck``
ran before it batched perturbations: the slow reference the batched
``central_diff`` must equal bit for bit, and the driver of the FD tests."""

import numpy as np

from voskit.gradcheck import FD_EPS


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
