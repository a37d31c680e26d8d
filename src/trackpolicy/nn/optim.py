"""Adaptive-moment optimizer (bias-corrected) for training loops.

`Adam.step` runs Kingma & Ba's efficient form (arXiv:1412.6980, section 2):
the two bias corrections fold into one step size alpha_t = lr * sqrt(c2) / c1
and one epsilon eps_hat = EPS * sqrt(c2), with c1 = 1 - BETA1^t and
c2 = 1 - BETA2^t. The update p - alpha_t * m / (sqrt(v) + eps_hat) equals the
textbook p - lr * (m / c1) / (sqrt(v / c2) + EPS) up to rounding, and spends
no per-element divide on a scalar.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ShapeMismatchError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Keeps the moments by parameter name; step(params, grads) -> new params.

    A training loop may change learning_rate between steps (a schedule).
    """

    def __init__(self, learning_rate: float = 1e-3):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = {}  # first moments by parameter name
        self.v = {}  # second moments by parameter name

    def step(self, params: dict, grads: dict) -> dict:
        """One update. The moments advance in place; parameter arrays are
        replaced, never mutated."""
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ShapeMismatchError(f"{name}: grad {g.shape} vs param {p.shape}")
        self.step_count += 1
        t = self.step_count
        sqrt_c2 = math.sqrt(1 - BETA2 ** t)
        alpha_t = self.learning_rate * sqrt_c2 / (1 - BETA1 ** t)
        eps_hat = EPS * sqrt_c2
        out = {}
        for name, p in params.items():
            g = grads[name]
            m = self.m.get(name)
            if m is None:
                m = self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            v = self.v[name]
            # In place, in the operation order of
            #   m = BETA1 * m + (1 - BETA1) * g
            #   v = BETA2 * v + (1 - BETA2) * g * g
            #   p - alpha_t * m / (sqrt(v) + eps_hat)
            # so every update is bit-identical to those expressions.
            np.multiply(m, BETA1, out=m)
            m += (1 - BETA1) * g
            np.multiply(v, BETA2, out=v)
            v += ((1 - BETA2) * g) * g
            upd = alpha_t * m
            den = np.sqrt(v)
            den += eps_hat
            upd /= den
            out[name] = p - upd
        return out
