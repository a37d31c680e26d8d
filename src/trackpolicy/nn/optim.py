"""Adaptive-moment optimizer (bias-corrected) for training loops."""

from __future__ import annotations

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
        out = {}
        for name, p in params.items():
            g = grads[name]
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            v = self.v[name]
            m = BETA1 * m + (1 - BETA1) * g
            v = BETA2 * v + (1 - BETA2) * g * g
            self.m[name] = m
            self.v[name] = v
            m_hat = m / (1 - BETA1 ** t)
            v_hat = v / (1 - BETA2 ** t)
            out[name] = p - self.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
        return out
