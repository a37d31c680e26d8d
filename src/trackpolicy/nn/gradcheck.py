"""Central finite-difference verification of analytic gradients.

Every model in the repo must pass this on randomly probed parameters before
we trust a training run; the unit tests run it.
"""

from __future__ import annotations

import numpy as np


def finite_difference_check(loss_fn, params: dict, rng: np.random.Generator,
                            n_probes: int = 20, h: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences.

    `loss_fn(params) -> (loss value, grads dict)` must be deterministic —
    freeze any sampling outside and close over it. Probes n_probes random
    scalar entries across all parameters.
    """
    _, grads = loss_fn(params)
    names = sorted(params.keys())
    sizes = np.array([params[n].size for n in names])
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    total = int(sizes.sum())
    flat_idx = rng.choice(total, size=min(n_probes, total), replace=False)
    worst = 0.0
    for fi in np.sort(flat_idx):
        k = int(np.searchsorted(starts, fi, side="right")) - 1
        name = names[k]
        idx = np.unravel_index(int(fi - starts[k]), params[name].shape)

        def shifted(delta):
            p = {n: v.copy() for n, v in params.items()}
            p[name][idx] += delta
            return loss_fn(p)[0]

        fd = (shifted(h) - shifted(-h)) / (2 * h)
        ad = grads[name][idx]
        rel = abs(ad - fd) / max(abs(ad), abs(fd), 1e-8)
        worst = max(worst, float(rel))
    return worst
