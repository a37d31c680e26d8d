"""Denoising-diffusion core: variance schedule, timestep features, forward
noising, and the ancestral sampling loop.

Model-agnostic on purpose. The sampler takes any eps_fn(x, t) -> predicted
noise, so one loop drives the conditional track policy, the 6DoF baseline,
and unconditional toy targets in tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError

TIME_EMBED_DIM = 32


@dataclass(frozen=True)
class DiffusionSchedule:
    """Linear beta schedule with precomputed alpha tables.

    betas ascend from beta_start to beta_end; alpha_bars (running products of
    1 - beta) decrease strictly inside (0, 1). alpha_bars[t] is the signal
    fraction surviving t+1 noising steps.
    """

    num_steps: int = 100
    beta_start: float = 1e-4
    beta_end: float = 0.02
    betas: np.ndarray = field(init=False, repr=False, compare=False)
    alphas: np.ndarray = field(init=False, repr=False, compare=False)
    alpha_bars: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {self.num_steps}")
        if not 0.0 < self.beta_start <= self.beta_end < 1.0:
            raise ValueError(
                f"need 0 < beta_start <= beta_end < 1, got [{self.beta_start}, {self.beta_end}]")
        betas = np.linspace(self.beta_start, self.beta_end, self.num_steps)
        alphas = 1.0 - betas
        alpha_bars = np.cumprod(alphas)
        for arr in (betas, alphas, alpha_bars):
            arr.flags.writeable = False
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "alpha_bars", alpha_bars)


def timestep_embedding(t, dim: int = TIME_EMBED_DIM, max_period: float = 10000.0) -> np.ndarray:
    """Transformer-style sin/cos features of integer timesteps.

    t: scalar or (n,) array of step indices. Returns (n, dim), values in
    [-1, 1], injective over any practical step range.
    """
    if dim % 2 != 0:
        raise ValueError(f"embedding dim must be even, got {dim}")
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-np.log(max_period) * np.arange(half) / half)
    ang = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


@functools.lru_cache(maxsize=8)
def timestep_table(num_steps: int) -> np.ndarray:
    """Read-only (num_steps, TIME_EMBED_DIM) stack of timestep_embedding(t).

    Built one step at a time, so row t is bit-identical to
    timestep_embedding(t) whichever SIMD path numpy's sin/cos take on a
    longer array. Cached: every sampler call reads it.
    """
    table = np.concatenate([timestep_embedding(t) for t in range(num_steps)])
    table.flags.writeable = False
    return table


def add_noise(schedule: DiffusionSchedule, x0, t, eps) -> np.ndarray:
    """Forward process q(x_t | x_0) = sqrt(ab_t) x0 + sqrt(1 - ab_t) eps.

    x0, eps: (n, d); t: (n,) integer steps (or scalars throughout).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    ab = schedule.alpha_bars[np.asarray(t)]
    ab = ab.reshape(ab.shape + (1,) * (x0.ndim - ab.ndim))
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def ancestral_sample(eps_fn, n: int, dim: int, schedule: DiffusionSchedule, rng) -> np.ndarray:
    """Draw n samples of dimension dim by full reverse diffusion.

    eps_fn(x, t) receives the whole current batch (n, dim) and the integer
    step t and returns predicted noise of the same shape; per-step noise uses
    sigma_t = sqrt(beta_t), none on the final step. Deterministic given the
    rng state. x is one array updated in place from step to step, so eps_fn
    must read it during its call and not keep it (returning x itself is
    fine); the array eps_fn returns is only read.
    """
    # per-step constants, elementwise the same values the loop would compute
    eps_coef = schedule.betas / np.sqrt(1.0 - schedule.alpha_bars)
    sqrt_alphas = np.sqrt(schedule.alphas)
    sigmas = np.sqrt(schedule.betas)
    x = rng.standard_normal((n, dim))
    # scratch for eps_coef * eps_hat, then for the step's noise: standard_normal
    # fills it with the values, in the order, a fresh (n, dim) draw would have
    buf = np.empty_like(x)
    for t in range(schedule.num_steps - 1, -1, -1):
        eps_hat = np.asarray(eps_fn(x, t), dtype=np.float64)
        if eps_hat.shape != x.shape:
            raise ValueError(f"eps_fn returned {eps_hat.shape}, expected {x.shape}")
        # x = (x - eps_coef[t] * eps_hat) / sqrt_alphas[t] + sigmas[t] * noise
        np.multiply(eps_coef[t], eps_hat, out=buf)
        x -= buf
        x /= sqrt_alphas[t]
        if t > 0:
            rng.standard_normal(out=buf)
            buf *= sigmas[t]
            x += buf
        if not np.isfinite(x).all():
            raise NonFiniteError(f"sampler produced non-finite values at step {t}")
    return x
