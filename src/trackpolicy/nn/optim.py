"""Adaptive-moment optimizer (bias-corrected), functional core + a thin
stateful wrapper for training loops."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeMismatchError


@dataclass
class OptimizerState:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict = field(default_factory=dict)  # first moments by parameter name
    v: dict = field(default_factory=dict)  # second moments by parameter name


def adam_step(state: OptimizerState, params: dict, grads: dict) -> tuple:
    """One update. Returns (new params, state); the state is advanced in
    place (moments mutated), parameter arrays are replaced, never mutated.
    """
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeMismatchError(f"{name}: grad {g.shape} vs param {p.shape}")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    out = {}
    for name, p in params.items():
        g = grads[name]
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        out[name] = p - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    return out, state


class Adam:
    """Owns an OptimizerState; step(params, grads) -> new params."""

    def __init__(self, learning_rate: float = 1e-3):
        self.state = OptimizerState(learning_rate)

    def step(self, params: dict, grads: dict) -> dict:
        new_params, self.state = adam_step(self.state, params, grads)
        return new_params
