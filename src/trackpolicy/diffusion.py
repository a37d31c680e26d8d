"""Denoising-diffusion core: variance schedule, timestep features, and the
ancestral sampling loop.

Model-agnostic on purpose. The sampler takes any clean_fn(x, t) -> predicted
clean sample, so one loop drives the conditional track policy, the 6DoF
baseline, and unconditional toy targets in tests. A draw's randomness comes
apart from its loop: `draw_noise` draws x_T and every step's noise from an
rng, and `ancestral_sample` steps from them, so draws that share a seed can
share one noise draw.

A `DiffusionSchedule` owns every table derived from it, each read-only and
built once per schedule, so no module-level cache holds one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, check_int, check_real, has_nonfinite

TIME_EMBED_DIM = 32


@dataclass(frozen=True)
class DiffusionSchedule:
    """Linear beta schedule and every table derived from it.

    betas ascend from beta_start to beta_end; alpha_bars (running products of
    1 - beta) decrease strictly inside (0, 1). alpha_bars[t] is the signal
    fraction surviving t+1 noising steps. Every table is read-only; the
    derived ones are built at their first read.
    """

    num_steps: int = 100
    beta_start: float = 1e-4
    beta_end: float = 0.02
    betas: np.ndarray = field(init=False, repr=False, compare=False)
    alphas: np.ndarray = field(init=False, repr=False, compare=False)
    alpha_bars: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # plain values: they size the tables and reach a checkpoint's meta
        object.__setattr__(self, "num_steps", check_int("num_steps", self.num_steps, 1))
        for name in ("beta_start", "beta_end"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
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

    @functools.cached_property
    def timestep_features(self) -> np.ndarray:
        """(num_steps, TIME_EMBED_DIM) stack of timestep_embedding(t).

        Built one step at a time, so row t is bit-identical to
        timestep_embedding(t) whichever SIMD path numpy's sin/cos take on a
        longer array.
        """
        table = np.concatenate([timestep_embedding(t) for t in range(self.num_steps)])
        table.flags.writeable = False
        return table

    @functools.cached_property
    def timestep_cdf(self) -> np.ndarray:
        """CDF of the training distribution over timesteps, t ~ (1 - abar_t).

        `cdf.searchsorted(rng.random(n), side="right")` is what
        `Generator.choice(num_steps, n, p=w)` computes after validating w.
        """
        w = 1.0 - self.alpha_bars
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        return cdf

    @functools.cached_property
    def posterior_coefficients(self) -> tuple:
        """(c0, ct): per-step DDPM posterior-mean coefficients as float tuples.

        Step t moves x to ct[t] * x + c0[t] * clean (Ho et al. 2020, eq. 7 in
        x0 form). With abar_{-1} = 1, ct[0] = 0 and c0[0] = 1 up to rounding,
        so the last step lands on the clean prediction.
        """
        abar_prev = np.concatenate([[1.0], self.alpha_bars[:-1]])
        one_minus_abar = 1.0 - self.alpha_bars
        c0 = np.sqrt(abar_prev) * self.betas / one_minus_abar
        ct = np.sqrt(self.alphas) * (1.0 - abar_prev) / one_minus_abar
        return tuple(c0.tolist()), tuple(ct.tolist())


def timestep_embedding(t) -> np.ndarray:
    """Transformer-style sin/cos features of integer timesteps.

    t: scalar or (n,) array of step indices. Returns (n, TIME_EMBED_DIM),
    values in [-1, 1], injective over any practical step range.
    """
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = TIME_EMBED_DIM // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    ang = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def draw_noise(schedule: DiffusionSchedule, n: int, dim: int, rng) -> tuple:
    """The random part of one reverse-diffusion draw: (x_T, noise).

    x_T is (n, dim) standard normal; noise is the (T - 1, n, dim) block of
    every step's sigma-scaled noise (T = schedule.num_steps), row i going to
    step t = T - 1 - i with sigma_t = sqrt(beta_t); step 0 adds none. Drawn
    x_T first, then the whole block, which holds the values, in the order,
    that one (n, dim) draw per step would, so a caller that draws per step
    from the same rng gets the same numbers and the same final rng state.
    Both arrays are read-only, so a cached draw can be handed to any number
    of samplers.
    """
    num_steps = schedule.num_steps
    x_T = rng.standard_normal((n, dim))
    noise = rng.standard_normal((num_steps - 1, n, dim))
    noise *= np.sqrt(schedule.betas)[num_steps - 1:0:-1, None, None]
    x_T.flags.writeable = False
    noise.flags.writeable = False
    return x_T, noise


def ancestral_sample(clean_fn, schedule: DiffusionSchedule, x_T, noise) -> np.ndarray:
    """Run full reverse diffusion from x_T with `draw_noise`'s noise block.

    clean_fn(x, t) receives the whole current batch (n, dim) and the integer
    step t and returns the predicted clean sample as an array of the same
    shape, in any float dtype; x, the noise and every update stay float64.
    Each step moves x to the DDPM posterior mean, ct[t] * x + c0[t] * clean
    (`schedule.posterior_coefficients`), plus the step's row of noise, none
    on the final step. The clean prediction is read back into a float64
    scratch array and scaled there, which is bitwise c0[t] * float64(clean)
    without a converted copy, and x is checked for NaN/Inf after every step.
    Deterministic given (x_T, noise): neither is written, since x starts as
    a float64 copy of x_T. x is one array updated in place from step to
    step, so clean_fn must read it during its call and not keep it
    (returning x itself is fine); the array clean_fn returns is only read.
    """
    num_steps = schedule.num_steps
    x = np.array(x_T, dtype=np.float64)
    if np.shape(noise) != (num_steps - 1, *x.shape):
        raise ValueError(f"noise block {np.shape(noise)} does not match "
                         f"{(num_steps - 1, *x.shape)}")
    c0, ct = schedule.posterior_coefficients
    # scratch for c0 * clean
    buf = np.empty_like(x)
    for i, t in enumerate(range(num_steps - 1, -1, -1)):
        clean = clean_fn(x, t)
        if clean.shape != x.shape:
            raise ValueError(f"clean_fn returned {clean.shape}, expected {x.shape}")
        buf[...] = clean
        buf *= c0[t]
        x *= ct[t]
        x += buf
        if t > 0:
            x += noise[i]
        if has_nonfinite(x):
            raise NonFiniteError(f"sampler produced non-finite values at step {t}")
    return x
