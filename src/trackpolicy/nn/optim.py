"""Adaptive-moment optimizer (bias-corrected) for training loops.

`Adam.step` runs Kingma & Ba's efficient form (arXiv:1412.6980, section 2):
the two bias corrections fold into one step size alpha_t = lr * sqrt(c2) / c1
and one epsilon eps_hat = EPS * sqrt(c2), with c1 = 1 - BETA1^t and
c2 = 1 - BETA2^t. The update p - alpha_t * m / (sqrt(v) + eps_hat) equals the
textbook p - lr * (m / c1) / (sqrt(v / c2) + EPS) up to rounding, and spends
no per-element divide on a scalar.

The update runs in blocks of at most BLOCK elements. Every one of its
operations is elementwise and correctly rounded (a product, sum, quotient or
square root of float64 values), so an element's result depends on that
element's inputs alone, never on the block it shares: a blocked step gives
the same bits as the whole-array expressions. BLOCK is sized to the cache,
not tuned: a block's seven float64 arrays (parameter, gradient, both moments,
the output and two scratch) take 7 x 128 KB, which fits a 2 MB L2, so the
twelve passes over a block read it from cache instead of memory. A block is
either a run of one large parameter or a pack of small ones, because each
pass costs one numpy call whatever its length: a bias of 64 values would
otherwise pay twelve calls of its own.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ShapeMismatchError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
BLOCK = 16384  # elements per block; see the module docstring


class Adam:
    """Keeps the moments by parameter name; step(params, grads) -> new params.

    Every step takes the parameter names and shapes of the first. A training
    loop may change learning_rate between steps (a schedule). Moments and
    new parameters are float64.
    """

    def __init__(self, learning_rate: float = 1e-3):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = {}  # first moments by parameter name
        self.v = {}  # second moments by parameter name
        # the update's two scratch blocks, allocated once per optimizer
        self._scratch = np.empty(BLOCK), np.empty(BLOCK)
        self._packs = ()  # (names, flat m, flat v) each, laid out by _pack

    def _pack(self, params: dict) -> tuple:
        """Lay the zeroed moments out in flat pairs: one per parameter of
        more than BLOCK elements, and one per pack of consecutive smaller
        parameters holding at most BLOCK elements. self.m and self.v get
        each parameter's shaped view of its pair."""
        packs, names, size = [], [], 0
        for name, p in params.items():
            if p.size > BLOCK or size + p.size > BLOCK:
                packs.append((names, size))
                names, size = [], 0
            names.append(name)
            size += p.size
        packs.append((names, size))
        out = []
        for names, size in packs:
            if not names:
                continue
            m, v = np.zeros(size), np.zeros(size)
            a = 0
            for name in names:
                shape, b = params[name].shape, a + params[name].size
                self.m[name], self.v[name] = m[a:b].reshape(shape), v[a:b].reshape(shape)
                a = b
            out.append((tuple(names), m, v))
        return tuple(out)

    def step(self, params: dict, grads: dict) -> dict:
        """One update. The moments advance in place; parameter arrays are
        replaced, never mutated: each new one is a fresh array that the
        update writes straight into.

        The update runs block by block through the two scratch arrays: a
        large parameter in runs of BLOCK elements of its flat views, a pack
        of small ones on its flat moments with their gradients gathered into
        scratch. Within a block the operations run in the order of

            m = BETA1 * m + (1 - BETA1) * g
            v = BETA2 * v + (1 - BETA2) * g * g
            p - alpha_t * m / (sqrt(v) + eps_hat)

        and each is elementwise, so every value is bit-identical to those
        expressions evaluated on whole arrays.
        """
        if self.m and params.keys() != self.m.keys():
            raise ValueError(f"Adam steps {sorted(self.m)}, got {sorted(params)}")
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ShapeMismatchError(f"{name}: grad {g.shape} vs param {p.shape}")
            if name in self.m and self.m[name].shape != p.shape:
                raise ShapeMismatchError(
                    f"{name}: param {p.shape} vs moments {self.m[name].shape}")
        if not self.m:
            self._packs = self._pack(params)
        self.step_count += 1
        t = self.step_count
        sqrt_c2 = math.sqrt(1 - BETA2 ** t)
        alpha_t = self.learning_rate * sqrt_c2 / (1 - BETA1 ** t)
        eps_hat = EPS * sqrt_c2
        s1, s2 = self._scratch
        out = {name: np.empty(p.shape) for name, p in params.items()}
        for names, m, v in self._packs:
            n = m.size
            if n > BLOCK:
                # flat C-order views (the fresh output is contiguous); a
                # non-contiguous parameter or gradient is read through a copy
                name, = names
                p, g, new = params[name].reshape(-1), grads[name].reshape(-1), out[name].reshape(-1)
                for a in range(0, n, BLOCK):
                    b = min(a + BLOCK, n)
                    upd = _update(m[a:b], v[a:b], g[a:b], s1[:b - a], s2[:b - a],
                                  alpha_t, eps_hat)
                    np.subtract(p[a:b], upd, out=new[a:b])
                continue
            g = np.concatenate([grads[name].reshape(-1) for name in names], out=s2[:n])
            upd = _update(m, v, g, s1[:n], s2[:n], alpha_t, eps_hat)
            a = 0
            for name in names:
                p = params[name]
                b = a + p.size
                np.subtract(p, upd[a:b].reshape(p.shape), out=out[name])
                a = b
        return out


def _update(m, v, g, s1, s2, alpha_t: float, eps_hat: float) -> np.ndarray:
    """One block of `Adam.step` up to the subtraction: m and v advance in
    place, and s1, returned, receives alpha_t * m / (sqrt(v) + eps_hat).
    s1 and s2 are scratch of m's length; g may be s2, which is read as g
    before it is first written."""
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
