"""Loss functions on plain arrays. Each returns its value together with its
closed-form gradient, so a trainer chains them into `tensor.backward` and a
single finite-difference harness can check every model end to end."""

from __future__ import annotations

import numpy as np

from ..errors import BatchTooSmallError, ShapeMismatchError

VAR_FLOOR = 1e-6


def mse_loss(pred, target) -> tuple:
    """(mean squared error, its gradient with respect to pred)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatchError(
            f"prediction {pred.shape} vs target {target.shape}")
    d = pred - target
    return float((d * d).mean()), d * (2.0 / d.size)


def bce_with_logits(logits, targets) -> tuple:
    """Numerically stable binary cross-entropy on raw logits; returns
    (value, gradient with respect to the logits).

    mean( max(z, 0) - z*y + log(1 + exp(-|z|)) ); the exp argument is always
    <= 0 so nothing overflows regardless of logit magnitude. The gradient
    (sigmoid(z) - y) / n reuses the same exp(-|z|).
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if z.shape != y.shape:
        raise ShapeMismatchError(f"logits {z.shape} vs targets {y.shape}")
    e = np.exp(-np.abs(z))
    value = float((np.maximum(z, 0.0) - z * y + np.log(1.0 + e)).mean())
    sigmoid = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return value, (sigmoid - y) / z.size


def _batch_moments(f, name: str):
    """(mean, centered rows, unfloored variance) of a (batch, dim) array."""
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2:
        raise ShapeMismatchError(f"{name} must be (batch, dim), got {f.shape}")
    if f.shape[0] < 2:
        raise BatchTooSmallError(f"{name} needs batch >= 2, got {f.shape[0]}")
    mu = f.mean(axis=0)
    centered = f - mu
    return mu, centered, (centered * centered).mean(axis=0)


def gaussian_kl_alignment(features_a, features_b) -> tuple:
    """Symmetrized KL between diagonal Gaussians fit to the two batches;
    returns (value, gradient for features_a, gradient for features_b).

    Variances are floored at 1e-6 to keep the divergence finite for collapsed
    batches; a floored dimension passes no gradient to its variance. Summed
    over feature dimensions; zero iff the two batches' moments coincide.
    """
    mu_a, c_a, raw_a = _batch_moments(features_a, "features_a")
    mu_b, c_b, raw_b = _batch_moments(features_b, "features_b")
    var_a = np.maximum(raw_a, VAR_FLOOR)
    var_b = np.maximum(raw_b, VAR_FLOOR)

    def kl(mu_p, var_p, mu_q, var_q):
        d = mu_q - mu_p
        return 0.5 * np.sum(var_p / var_q + d * d / var_q - 1.0
                            + np.log(var_q) - np.log(var_p))

    value = float(kl(mu_a, var_a, mu_b, var_b) + kl(mu_b, var_b, mu_a, var_a))
    # the log terms cancel in the sum, leaving
    # 0.5 * sum(va/vb + vb/va + d^2 (1/va + 1/vb) - 2) with d = mu_b - mu_a
    d = mu_b - mu_a
    g_mu_b = d * (1.0 / var_a + 1.0 / var_b)
    d2 = d * d
    g_var_a = np.where(raw_a >= VAR_FLOOR,
                       0.5 * (1.0 / var_b - (var_b + d2) / (var_a * var_a)), 0.0)
    g_var_b = np.where(raw_b >= VAR_FLOOR,
                       0.5 * (1.0 / var_a - (var_a + d2) / (var_b * var_b)), 0.0)
    # d mean / d row = 1/n; d variance / d row = 2 * centered / n
    grad_a = (2.0 * c_a * g_var_a - g_mu_b) / c_a.shape[0]
    grad_b = (2.0 * c_b * g_var_b + g_mu_b) / c_b.shape[0]
    return value, grad_a, grad_b
