"""Schedule tables, timestep features, ancestral sampler. The forward
process is checked where it runs, in test_policy's training-step tests.

The sampler oracle: for a Gaussian target the optimal noise predictor is
linear, so the sampler's output distribution has closed-form moments that we
can recurse exactly and compare against both Monte-Carlo draws and the
target itself. The sampler takes a clean-sample predictor; `as_clean_fn`
turns a noise predictor into the clean prediction it implies. Its x_T and
step noise come from `draw_noise`, which draws them from an rng in the order
a per-step loop would.
"""

import numpy as np
import pytest

from trackpolicy.diffusion import (
    DiffusionSchedule,
    ancestral_sample,
    draw_noise,
    timestep_embedding,
)
from trackpolicy.errors import NonFiniteError

# Terminal signal fraction ~2e-5: the forward process fully mixes, which an
# O(1)-variance target needs. The default beta_end=0.02 leaves ~0.37 of the
# signal after 100 steps and is only adequate for near-deterministic
# conditional targets (tested separately below).
SOUND = DiffusionSchedule(100, 1e-4, 0.2)


# ---------------------------------------------------------------------------
# schedule


def test_schedule_default_tables():
    s = DiffusionSchedule()
    assert s.num_steps == 100
    assert s.betas[0] == 1e-4 and s.betas[-1] == 0.02
    assert np.all(np.diff(s.betas) > 0)
    assert np.all((s.betas > 0) & (s.betas < 1))
    assert np.allclose(s.alphas, 1.0 - s.betas)
    assert np.allclose(s.alpha_bars, np.cumprod(1.0 - s.betas))
    assert np.all(np.diff(s.alpha_bars) < 0)
    assert np.all((s.alpha_bars > 0) & (s.alpha_bars < 1))


def test_schedule_tables_frozen():
    s = DiffusionSchedule()
    with pytest.raises(ValueError):
        s.betas[0] = 0.5
    # every table is read-only, the derived ones built once per schedule
    for name in ("betas", "alphas", "alpha_bars", "timestep_features", "timestep_cdf"):
        table = getattr(s, name)
        assert not table.flags.writeable, name
        assert getattr(s, name) is table, name
    # equal schedules compare and hash alike; each owns its tables
    twin = DiffusionSchedule()
    assert twin == s and hash(twin) == hash(s)
    assert twin.timestep_features is not s.timestep_features
    assert twin.timestep_features.tobytes() == s.timestep_features.tobytes()


def test_schedule_validation():
    with pytest.raises(ValueError):
        DiffusionSchedule(0)
    with pytest.raises(ValueError):
        DiffusionSchedule(10, 0.0, 0.02)
    with pytest.raises(ValueError):
        DiffusionSchedule(10, 0.05, 0.02)
    with pytest.raises(ValueError):
        DiffusionSchedule(10, 0.1, 1.0)
    # the step count sizes the tables and keys the policy's noise cache
    # and no bool: num_steps=True is no 1-step schedule
    for bad in (2.5, 10.0, float("nan"), True, False):
        with pytest.raises(ValueError, match="num_steps"):
            DiffusionSchedule(bad)
    assert DiffusionSchedule(np.int64(10)).betas.shape == (10,)


# ---------------------------------------------------------------------------
# timestep features


def test_timestep_embedding_contract():
    emb = timestep_embedding(np.arange(100))
    assert emb.shape == (100, 32)
    assert np.all(np.abs(emb) <= 1.0)
    # injective over the step range
    assert len({tuple(row.round(12)) for row in emb}) == 100
    single = timestep_embedding(7)
    assert single.shape == (1, 32)
    assert np.array_equal(single[0], emb[7])


@pytest.mark.parametrize("n", [1, 7, 32, 257])
def test_timestep_table_rows_equal_batched_embeddings_bitwise(n):
    # policy.train_step gathers its batch's timestep features from the
    # schedule's table, and the sampler reads one row per step
    for s in (DiffusionSchedule(), DiffusionSchedule(7)):
        table = s.timestep_features
        assert table.shape == (s.num_steps, 32)
        for t in range(s.num_steps):
            assert table[t].tobytes() == timestep_embedding(t)[0].tobytes(), t
    t = np.random.default_rng(n).integers(0, 100, size=n)
    got, want = DiffusionSchedule().timestep_features[t], timestep_embedding(t)
    assert got.shape == want.shape == (n, 32)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# ancestral sampler


def _gaussian_eps_fn(schedule, mu, cov):
    """Exact optimal noise predictor when x0 ~ N(mu, cov)."""
    I = np.eye(len(mu))

    def eps_fn(x, t):
        ab = schedule.alpha_bars[t]
        K = np.linalg.inv(ab * cov + (1 - ab) * I)
        return np.sqrt(1 - ab) * (x - np.sqrt(ab) * mu) @ K.T

    return eps_fn


def as_clean_fn(schedule, eps_fn):
    """The clean-sample predictor implied by a noise predictor:
    (x - sqrt(1 - abar) eps_hat) / sqrt(abar)."""

    def clean_fn(x, t):
        ab = schedule.alpha_bars[t]
        return (x - np.sqrt(1 - ab) * eps_fn(x, t)) / np.sqrt(ab)

    return clean_fn


def _closed_form_moments(schedule, mu, cov):
    """Mean/cov of the sampler's output under the optimal predictor.

    Every update is affine in x, so the marginal stays Gaussian; recursing
    its moments gives the exact distribution the sampler draws from.
    """
    I = np.eye(len(mu))
    m, S = np.zeros(len(mu)), I.copy()
    for t in range(schedule.num_steps - 1, -1, -1):
        a, ab, b = schedule.alphas[t], schedule.alpha_bars[t], schedule.betas[t]
        K = np.linalg.inv(ab * cov + (1 - ab) * I)
        A = (I - b * K) / np.sqrt(a)
        m = A @ m + (b / np.sqrt(a)) * K @ (np.sqrt(ab) * mu)
        S = A @ S @ A.T + (b if t > 0 else 0.0) * I
    return m, S


def test_sampler_matches_closed_form_gaussian():
    mu = np.array([0.5, -0.3])
    cov = np.array([[1.0, 0.48], [0.48, 0.64]])
    m, S = _closed_form_moments(SOUND, mu, cov)
    # the fully-mixing schedule makes the sampler's own bias negligible
    assert np.abs(m - mu).max() < 1e-4
    assert np.abs(S / cov - 1).max() < 0.02

    rng = np.random.default_rng(0)
    draws = ancestral_sample(as_clean_fn(SOUND, _gaussian_eps_fn(SOUND, mu, cov)),
                             SOUND, *draw_noise(SOUND, 4000, 2, rng))
    est_cov = np.cov(draws.T, bias=True)
    # Monte-Carlo agreement with the recursion (~3 standard errors at n=4000)
    assert np.abs(draws.mean(0) - m).max() < 0.05
    assert np.abs(est_cov - S).max() < 0.08


def test_sampler_recovers_deterministic_target_default_schedule():
    # Near-zero-variance targets are the policy's regime; the default
    # schedule recovers them exactly because the final low-noise steps have
    # unit predictor gain and wipe the initial-state mismatch.
    s = DiffusionSchedule()
    c = np.array([0.7, -1.2, 0.05])

    def eps_fn(x, t):
        ab = s.alpha_bars[t]
        return (x - np.sqrt(ab) * c) / np.sqrt(1 - ab)

    draws = ancestral_sample(as_clean_fn(s, eps_fn), s,
                             *draw_noise(s, 16, 3, np.random.default_rng(3)))
    assert np.abs(draws - c).max() < 1e-9


def test_sampler_determinism_and_seed_sensitivity():
    clean_fn = as_clean_fn(SOUND, _gaussian_eps_fn(SOUND, np.zeros(2), np.eye(2)))
    a = ancestral_sample(clean_fn, SOUND, *draw_noise(SOUND, 5, 2, np.random.default_rng(11)))
    b = ancestral_sample(clean_fn, SOUND, *draw_noise(SOUND, 5, 2, np.random.default_rng(11)))
    c = ancestral_sample(clean_fn, SOUND, *draw_noise(SOUND, 5, 2, np.random.default_rng(12)))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def reference_ancestral_sample(clean_fn, n, dim, schedule, rng):
    """The posterior-mean sampler written plainly: coefficients computed
    inside the loop, a fresh array for every update and a fresh (n, dim)
    noise draw on every step."""
    x = rng.standard_normal((n, dim))
    for t in range(schedule.num_steps - 1, -1, -1):
        abar, beta = schedule.alpha_bars[t], schedule.betas[t]
        abar_prev = schedule.alpha_bars[t - 1] if t > 0 else 1.0
        c0 = np.sqrt(abar_prev) * beta / (1.0 - abar)
        ct = np.sqrt(schedule.alphas[t]) * (1.0 - abar_prev) / (1.0 - abar)
        x = ct * x + c0 * clean_fn(x, t)
        if t > 0:
            x = x + np.sqrt(beta) * rng.standard_normal((n, dim))
    return x


def test_in_place_sampler_equals_the_allocating_loop_bitwise():
    s = DiffusionSchedule()
    c = np.array([0.7, -1.2, 0.05])

    def eps_target(x, t):
        return (x - np.sqrt(s.alpha_bars[t]) * c) / np.sqrt(1 - s.alpha_bars[t])

    clean_target = as_clean_fn(s, eps_target)
    cases = (
        (as_clean_fn(SOUND, _gaussian_eps_fn(SOUND, np.array([0.5, -0.3]), np.eye(2))),
         5, 2, SOUND),
        (clean_target, 1, 3, s),
        (clean_target, 4, 3, s),
        # returns the sampler's own x: the update must read it before writing
        (lambda x, t: x, 3, 4, s),
        (lambda x, t: 0.5 * x, 2, 6, DiffusionSchedule(7)),
    )
    for clean_fn, n, dim, schedule in cases:
        rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        got = ancestral_sample(clean_fn, schedule, *draw_noise(schedule, n, dim, rng))
        want = reference_ancestral_sample(clean_fn, n, dim, schedule, ref_rng)
        assert got.shape == want.shape == (n, dim)
        assert got.tobytes() == want.tobytes(), (n, dim)
        # the reused noise buffer draws the same values in the same order
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_float32_clean_fn_is_read_back_as_float64_bitwise():
    # the track policy's denoiser returns float32; the sampler must add
    # exactly c0 * float64(clean), as an explicit cast would
    w = np.random.default_rng(5).standard_normal((4, 4)).astype(np.float32)

    def clean_fn(x, t):
        return np.tanh(x.astype(np.float32) @ w) * np.float32(1.5)

    def cast_clean_fn(x, t):
        return clean_fn(x, t).astype(np.float64)

    x = np.random.default_rng(6).standard_normal((3, 4))
    assert clean_fn(x, 0).dtype == np.float32
    for n, schedule in ((1, DiffusionSchedule()), (3, SOUND), (2, DiffusionSchedule(7))):
        rng, ref_rng = np.random.default_rng(23), np.random.default_rng(23)
        got = ancestral_sample(clean_fn, schedule, *draw_noise(schedule, n, 4, rng))
        want = reference_ancestral_sample(cast_clean_fn, n, 4, schedule, ref_rng)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes(), n


def test_posterior_coefficients_are_the_inline_formula_cached_per_schedule():
    for s in (DiffusionSchedule(), SOUND, DiffusionSchedule(7), DiffusionSchedule(1)):
        c0, ct = s.posterior_coefficients
        assert type(c0) is tuple and type(ct) is tuple
        assert len(c0) == len(ct) == s.num_steps
        for t in range(s.num_steps):
            abar, beta = s.alpha_bars[t], s.betas[t]
            abar_prev = s.alpha_bars[t - 1] if t > 0 else 1.0
            want_c0 = np.sqrt(abar_prev) * beta / (1.0 - abar)
            want_ct = np.sqrt(s.alphas[t]) * (1.0 - abar_prev) / (1.0 - abar)
            assert np.float64(c0[t]).tobytes() == np.float64(want_c0).tobytes(), t
            assert np.float64(ct[t]).tobytes() == np.float64(want_ct).tobytes(), t
        assert ct[0] == 0.0
        # built once: every sampler call on this schedule reads the same pair
        assert s.posterior_coefficients is s.posterior_coefficients
    first = DiffusionSchedule(50, 1e-4, 0.02).posterior_coefficients
    assert DiffusionSchedule(50, 1e-4, 0.02).posterior_coefficients == first
    assert DiffusionSchedule(50, 1e-4, 0.03).posterior_coefficients != first


def test_sampler_only_reads_the_eps_fn_output():
    held = []

    def clean_fn(x, t):
        held.append(np.full_like(x, 0.25))
        held.append(held[-1].copy())
        return held[-2]

    s = DiffusionSchedule(5)
    ancestral_sample(clean_fn, s, *draw_noise(s, 2, 3, np.random.default_rng(0)))
    for returned, copy in zip(held[::2], held[1::2]):
        assert returned.tobytes() == copy.tobytes()


def test_sampler_rejects_bad_eps_fn():
    with pytest.raises(ValueError):
        ancestral_sample(lambda x, t: x[:, :1], SOUND,
                         *draw_noise(SOUND, 4, 2, np.random.default_rng(0)))
    with pytest.raises(NonFiniteError):
        ancestral_sample(lambda x, t: x * np.inf, SOUND,
                         *draw_noise(SOUND, 4, 2, np.random.default_rng(0)))


def test_sampler_leaves_its_noise_unchanged():
    # a cached noise draw serves every draw with its seed, so it must stay
    # read-only and the sampler must step on a copy of x_T
    s = DiffusionSchedule(6)
    x_T, noise = draw_noise(s, 2, 3, np.random.default_rng(4))
    assert not x_T.flags.writeable and not noise.flags.writeable
    before = x_T.copy(), noise.copy()
    first = ancestral_sample(lambda x, t: 0.5 * x, s, x_T, noise)
    again = ancestral_sample(lambda x, t: 0.5 * x, s, x_T, noise)
    assert first.flags.writeable
    assert first.tobytes() == again.tobytes()
    assert x_T.tobytes() == before[0].tobytes()
    assert noise.tobytes() == before[1].tobytes()


def test_sampler_rejects_a_noise_block_of_another_shape():
    s = DiffusionSchedule(6)
    x_T, noise = draw_noise(s, 2, 3, np.random.default_rng(4))
    for bad in (noise[:, :1], noise[1:], noise[..., :2]):
        with pytest.raises(ValueError, match="noise block"):
            ancestral_sample(lambda x, t: x, s, x_T, bad)
