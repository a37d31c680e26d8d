"""Adaptive-moment optimizer (bias-corrected) over one flat weight vector.

A training loop lays its weights out once in a `FlatParams`: one contiguous
float64 vector and a gradient vector of the same layout, each with a shaped
view per parameter name. `apply` reads the weight views, `tensor.backward`
writes the gradient views, and `Adam.step(vector, grad)` steps the whole
vector in place.

`Adam.step` runs Kingma & Ba's efficient form (arXiv:1412.6980, section 2):
the two bias corrections fold into one step size alpha_t = lr * sqrt(c2) / c1
and one epsilon eps_hat = EPS * sqrt(c2), with c1 = 1 - BETA1^t and
c2 = 1 - BETA2^t. The update p - alpha_t * m / (sqrt(v) + eps_hat) equals the
textbook p - lr * (m / c1) / (sqrt(v / c2) + EPS) up to rounding, and spends
no per-element divide on a scalar.

The update runs over the vector in runs of at most BLOCK elements. Every one
of its operations is elementwise and correctly rounded (a product, sum,
quotient or square root of float64 values), so an element's result depends on
that element's inputs alone, never on the run it shares or on where one
parameter ends and the next begins: a blocked step gives the same bits as the
whole-array expressions on each parameter. BLOCK is sized to the cache, not
tuned: a run's six float64 arrays (parameter, gradient, both moments and two
scratch) take 6 x 128 KB, which fits a 2 MB L2, so the twelve passes over a
run read it from cache instead of memory.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from ..errors import ShapeMismatchError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
BLOCK = 16384  # elements per run; see the module docstring


class FlatParams:
    """A training run's weights in one contiguous float64 vector.

    Built from a name -> array mapping, whose arrays it copies into `vector`
    in the mapping's order. `grad` is a zeroed vector of the same layout.
    `params` and `grads` map each name to its shaped view of `vector` and of
    `grad`: a slice that no backward pass writes stays zero.
    """

    def __init__(self, params: Mapping):
        self.vector = np.concatenate([np.asarray(p, dtype=np.float64).reshape(-1)
                                      for p in params.values()])
        self.grad = np.zeros_like(self.vector)
        self.params, self.grads, a = {}, {}, 0
        for name, p in params.items():
            b = a + np.size(p)
            self.params[name] = self.vector[a:b].reshape(np.shape(p))
            self.grads[name] = self.grad[a:b].reshape(np.shape(p))
            a = b


class Adam:
    """Keeps the moments of one weight vector; step(vector, grad) steps it.

    The first step fixes the vector's length. A training loop may change
    learning_rate between steps (a schedule). Moments are float64.
    """

    def __init__(self, learning_rate: float = 1e-3):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = self.v = None  # first and second moments, made by the first step
        # the update's two scratch runs, allocated once per optimizer
        self._scratch = np.empty(BLOCK), np.empty(BLOCK)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One update of the 1-D float64 vector params, in place, with the
        moments; grads, of the same length, is only read.

        The update walks the vector in runs of BLOCK elements through the
        two scratch arrays. Within a run the operations run in the order of

            m = BETA1 * m + (1 - BETA1) * g
            v = BETA2 * v + (1 - BETA2) * g * g
            p - alpha_t * m / (sqrt(v) + eps_hat)

        and each is elementwise, so every value is bit-identical to those
        expressions evaluated on whole arrays.
        """
        if params.ndim != 1 or grads.shape != params.shape:
            raise ShapeMismatchError(
                f"Adam steps one vector: grad {grads.shape} vs param {params.shape}")
        if self.m is None:
            self.m, self.v = np.zeros(params.size), np.zeros(params.size)
        elif self.m.shape != params.shape:
            raise ShapeMismatchError(f"param {params.shape} vs moments {self.m.shape}")
        self.step_count += 1
        t = self.step_count
        sqrt_c2 = math.sqrt(1 - BETA2 ** t)
        alpha_t = self.learning_rate * sqrt_c2 / (1 - BETA1 ** t)
        eps_hat = EPS * sqrt_c2
        s1, s2 = self._scratch
        n = params.size
        for a in range(0, n, BLOCK):
            b = min(a + BLOCK, n)
            upd = _update(self.m[a:b], self.v[a:b], grads[a:b], s1[:b - a], s2[:b - a],
                          alpha_t, eps_hat)
            np.subtract(params[a:b], upd, out=params[a:b])


def _update(m, v, g, s1, s2, alpha_t: float, eps_hat: float) -> np.ndarray:
    """One run of `Adam.step` up to the subtraction: m and v advance in
    place, and s1, returned, receives alpha_t * m / (sqrt(v) + eps_hat).
    s1 and s2 are scratch of m's length."""
    np.multiply(m, BETA1, out=m)
    np.multiply(g, 1 - BETA1, out=s1)
    m += s1
    np.multiply(v, BETA2, out=v)
    np.multiply(g, 1 - BETA2, out=s1)
    s1 *= g
    v += s1
    np.multiply(m, alpha_t, out=s1)
    np.sqrt(v, out=s2)
    s2 += eps_hat
    s1 /= s2
    return s1
