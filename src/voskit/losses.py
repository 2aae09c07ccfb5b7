"""Hybrid segmentation losses with analytic gradients.

Three complementary terms over a predicted probability map p and a binary
target t, each reduced with a mean over pixels so unit weighting stays
scale-free across resolutions:

* cross-entropy        -mean(t*ln p + (1-t)*ln(1-p)), p clamped to [eps, 1-eps]
* structural (1-SSIM)  statistics under the 11x11, sigma 1.5 Gaussian window
                       compare local structure, not pixels
* soft IoU             1 - sum(p*t) / (sum(p + t - p*t) + eps)

``total_loss`` combines them with nonnegative weights, and its output's
``terms`` holds each term's own output, keyed by loss name, so one call
yields every term's value as well as the sum's. Every loss returns
its value and the exact derivative with respect to the prediction map,
computed when first read, so the terms can drive gradient descent without
an autograd framework and a value alone costs no gradient.
Every loss also scores a stack of predictions (..., H, W) against one
(H, W) target in one call: the values are an array over the leading axes,
each equal bit for bit to the float the slice alone would score. The CE and
SSIM values are built in place in a few stack-sized buffers, and a value
holds only the arrays its gradient reads.
``fit_toy_segmenter`` is a minimal end-to-end consumer: a per-pixel logistic
model trained by plain gradient descent on the combined loss.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .grid import as_grid, check_same_shape, windowed_mean_adjoint, windowed_statistics

CLAMP_EPS = 1e-7
IOU_EPS = 1e-7
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


@dataclass(frozen=True)
class LossOut:
    """Loss value plus d(value)/d(prediction), same shape as the prediction.
    The value is a float for one grid and an array (...) for a stack.

    ``grad`` is computed by ``grad_fn`` on first access and then cached. It
    reads the prediction and target arrays the loss was given, not copies:
    write to them after scoring and the gradient no longer matches the
    value. ``terms`` holds the outputs of the terms a combined loss summed,
    keyed by loss name (``"ce_loss"``, ...); it is empty for a single term."""

    value: float | np.ndarray
    grad_fn: Callable[[], np.ndarray] = field(repr=False)
    terms: dict[str, LossOut] = field(default_factory=dict, repr=False)

    @functools.cached_property
    def grad(self) -> np.ndarray:
        return self.grad_fn()


@dataclass(frozen=True)
class LossWeights:
    lambda_ce: float = 1.0
    lambda_ssim: float = 1.0
    lambda_iou: float = 1.0

    def __post_init__(self):
        for name, lam in (
            ("lambda_ce", self.lambda_ce),
            ("lambda_ssim", self.lambda_ssim),
            ("lambda_iou", self.lambda_iou),
        ):
            if not np.isfinite(lam) or lam < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {lam}")


def _check_pair(pred, target) -> tuple[np.ndarray, np.ndarray]:
    """A prediction grid or stack (..., H, W) and one (H, W) target."""
    p = as_grid(pred)
    t = as_grid(target)
    if t.ndim != 2:
        raise ValueError(f"target must be one 2-D grid, got shape {t.shape}")
    check_same_shape(p, t)
    return p, t


def _value(v) -> float | np.ndarray:
    """A per-grid reduction as a float for one grid, an array for a stack."""
    return float(v) if np.ndim(v) == 0 else v


def _check_binary(t: np.ndarray) -> None:
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ValueError("target must be binary (every value 0 or 1)")


def ce_loss(pred: np.ndarray, target: np.ndarray) -> LossOut:
    """Mean binary cross-entropy.

    Predictions are clamped to [CLAMP_EPS, 1-CLAMP_EPS] before the logs; the
    gradient is zero where the clamp is active (the clamped function is
    locally constant there).
    """
    p, t = _check_pair(pred, target)
    _check_binary(t)
    # t*ln(pc) + (1-t)*ln(1-pc), built in the clamped copy and one buffer.
    s = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    r = np.subtract(1.0, s)
    np.log(s, out=s)
    s *= t
    np.log(r, out=r)
    r *= 1.0 - t
    s += r
    value = -np.mean(s, axis=(-2, -1))

    def grad():
        # The clamp again: the value holds no stack-sized array for it.
        pc = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
        g = (-t / pc + (1.0 - t) / (1.0 - pc)) / t.size
        g[(p < CLAMP_EPS) | (p > 1.0 - CLAMP_EPS)] = 0.0
        return g

    return LossOut(_value(value), grad)


def iou_loss(pred: np.ndarray, target: np.ndarray) -> LossOut:
    """Soft IoU loss, 1 - intersection/union over the whole map.

    The union is stabilized with IOU_EPS so two empty masks give a defined
    (maximal) loss instead of 0/0.
    """
    p, t = _check_pair(pred, target)
    inter = np.sum(p * t, axis=(-2, -1))
    union = np.sum(p + t - p * t, axis=(-2, -1)) + IOU_EPS
    value = 1.0 - inter / union

    def grad():
        # d inter/dp = t, d union/dp = 1 - t. Square the union before it
        # broadcasts: numpy squares a scalar with pow(), an array with x*x,
        # and the two can differ in the last bit.
        i, u, u_sq = (v[..., None, None] for v in (inter, union, union**2))
        return -(t * u - i * (1.0 - t)) / u_sq

    return LossOut(_value(value), grad)


def ssim_loss(pred: np.ndarray, target: np.ndarray) -> LossOut:
    """Structural similarity loss, 1 - mean(SSIM map).

    Per pixel, with windowed means mu, variances s and covariance spt on the
    [0, 1] value range:

        SSIM = ((2*mu_p*mu_t + C1) * (2*s_pt + C2))
             / ((mu_p^2 + mu_t^2 + C1) * (s_p + s_t + C2))

    The gradient propagates through the three window statistics that depend
    on the prediction (mu_p, s_p, s_pt) via the exact window adjoint.
    """
    p, t = _check_pair(pred, target)
    mu_p, mu_t, var_p, var_t, cov = windowed_statistics(p, t)

    # a1 = 2 mu_p mu_t + C1, a2 = 2 cov + C2, b1 = mu_p^2 + mu_t^2 + C1 and
    # b2 = var_p + var_t + C2, each built in place; a2 reuses cov's buffer
    # and b2 var_p's.
    a1 = 2.0 * mu_p
    a1 *= mu_t
    a1 += SSIM_C1
    a2 = cov
    a2 *= 2.0
    a2 += SSIM_C2
    b1 = mu_p * mu_p
    b1 += mu_t * mu_t
    b1 += SSIM_C1
    b2 = var_p
    b2 += var_t
    b2 += SSIM_C2
    ssim_map = a1 * a2
    ssim_map /= b1 * b2
    value = 1.0 - np.mean(ssim_map, axis=(-2, -1))

    def grad():
        # Partials of the per-pixel SSIM w.r.t. the prediction's statistics.
        d_mu = (2.0 * mu_t * a2) / (b1 * b2) - 2.0 * mu_p * ssim_map / b1
        d_var = -ssim_map / b2
        d_cov = 2.0 * a1 / (b1 * b2)

        # Chain through mu_p = W p, var_p = W(p^2) - mu_p^2, cov = W(p t) - mu_p mu_t;
        # the mu_p terms of var_p and cov share one adjoint with d_mu.
        g = windowed_mean_adjoint(d_mu - 2.0 * mu_p * d_var - mu_t * d_cov)
        g += 2.0 * p * windowed_mean_adjoint(d_var)
        g += t * windowed_mean_adjoint(d_cov)
        return -g / t.size

    return LossOut(_value(value), grad)


def total_loss(
    pred: np.ndarray,
    target: np.ndarray,
    weights: LossWeights = LossWeights(),
) -> LossOut:
    """Weighted sum of the three loss terms; terms with weight 0 are skipped
    so the projections onto a single term are bit-exact. The output's
    ``terms`` holds each scored term's own output, so one call yields every
    term's value and gradient as well as the sum's."""
    p, t = _check_pair(pred, target)
    terms = {
        name: (lam, loss(p, t))
        for name, lam, loss in (
            ("ce_loss", weights.lambda_ce, ce_loss),
            ("ssim_loss", weights.lambda_ssim, ssim_loss),
            ("iou_loss", weights.lambda_iou, iou_loss),
        )
        if lam != 0.0
    }
    value = 0.0
    for lam, out in terms.values():
        value += lam * out.value

    def grad():
        g = np.zeros_like(p)
        for lam, out in terms.values():
            g += lam * out.grad
        return g

    return LossOut(value, grad, {name: out for name, (_, out) in terms.items()})


def fit_toy_segmenter(
    features: np.ndarray,
    target: np.ndarray,
    weights: LossWeights = LossWeights(),
    steps: int = 500,
    lr: float = 0.5,
) -> tuple[np.ndarray, list[float]]:
    """Train a per-pixel logistic model sigmoid(f . w + b) by gradient descent
    on the combined loss.

    features has shape (H, W, d); the returned parameter vector is
    (w_1..w_d, b), initialized at zero. The loss history has steps + 1
    entries, the first being the loss at initialization.
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 3 or f.shape[2] < 1:
        raise ValueError(f"features must have shape (H, W, d), got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("features must be finite")
    t = as_grid(target)
    if f.shape[:2] != t.shape:
        raise ValueError(f"feature grid {f.shape[:2]} does not match target {t.shape}")
    if steps < 0:
        raise ValueError("steps must be >= 0")

    d = f.shape[2]
    params = np.zeros(d + 1)
    history = []
    for _ in range(steps):
        z = f @ params[:d] + params[d]
        p = 1.0 / (1.0 + np.exp(-z))
        out = total_loss(p, t, weights)
        history.append(out.value)
        dz = out.grad * p * (1.0 - p)
        step = np.empty(d + 1)
        step[:d] = np.tensordot(dz, f, axes=((0, 1), (0, 1)))
        step[d] = dz.sum()
        params -= lr * step
    z = f @ params[:d] + params[d]
    p = 1.0 / (1.0 + np.exp(-z))
    history.append(total_loss(p, t, weights).value)
    return params, history
