"""MLP layer loop and reverse pass, losses and their gradients, Adam over
one flat weight vector, checkpoint round trips.

Oracles: per-sample naive matmul loop for the forward pass, central finite
differences for gradients, direct closed-form evaluation for the diagonal
Gaussian KL.
"""

import json
import struct

import numpy as np
import pytest

from trackpolicy import nn, policy, retarget, sim
from trackpolicy.errors import (
    BatchTooSmallError,
    NonFiniteError,
    SchemaMismatchError,
    ShapeMismatchError,
    has_nonfinite,
)
from trackpolicy.nn import tensor as T
from trackpolicy.nn.optim import BETA1, BETA2, BLOCK, EPS


# ---------------------------------------------------------------------------
# oracles


def oracle_mlp_forward(spec, params, x):
    """Per-sample loop with explicit dot products."""
    acts = {"relu": lambda v: np.maximum(v, 0.0), "tanh": np.tanh, "identity": lambda v: v}
    out = []
    for row in np.atleast_2d(x):
        h = row
        for i, act in enumerate(spec.activations):
            h = params[f"{spec.name}/w{i}"].T @ h + params[f"{spec.name}/b{i}"]
            h = acts[act](h)
        out.append(h)
    return np.asarray(out)


def reference_apply(spec, params, x):
    """The layer loop before it worked in place: a fresh array for the
    affine output and another for the activation."""
    acts = {"relu": lambda h: np.where(h > 0, h, 0.0), "tanh": np.tanh,
            "identity": lambda h: h}
    h = x
    cache = [h]
    for i, act in enumerate(spec.activations):
        h = acts[act](h @ params[f"{spec.name}/w{i}"] + params[f"{spec.name}/b{i}"])
        cache.append(h)
    return h, cache


def oracle_gaussian_kl(fa, fb):
    """Closed-form symmetrized diagonal-Gaussian KL, numpy only."""
    mu_a, mu_b = fa.mean(axis=0), fb.mean(axis=0)
    va = np.maximum(((fa - mu_a) ** 2).mean(axis=0), 1e-6)
    vb = np.maximum(((fb - mu_b) ** 2).mean(axis=0), 1e-6)

    def kl(mp, vp, mq, vq):
        return 0.5 * np.sum(vp / vq + (mq - mp) ** 2 / vq - 1 + np.log(vq / vp))

    return kl(mu_a, va, mu_b, vb) + kl(mu_b, vb, mu_a, va)


# ---------------------------------------------------------------------------
# forward


def test_mlp_spec_rejects_widths_it_would_truncate():
    # int() used to turn 3.7 into 3 and True into 1
    for widths in ((3.7, 4, 2), (3, True, 2), (3, 4, 2.0), (3, np.float32(4), 2),
                   (3, np.bool_(True), 2), (3, "4", 2)):
        with pytest.raises(ValueError, match="integers"):
            nn.MlpSpec(widths, ("relu", "identity"))
    for widths in ((3, 0, 2), (3, -1, 2)):
        with pytest.raises(ValueError, match="positive"):
            nn.MlpSpec(widths, ("relu", "identity"))
    spec = nn.MlpSpec((np.int64(3), 4, np.int32(2)), ("relu", "identity"))
    assert spec.widths == (3, 4, 2) and all(type(w) is int for w in spec.widths)
    # any iterable of widths, read once
    assert nn.MlpSpec(iter((3, 4, 2)), ("relu", "identity")).widths == (3, 4, 2)


def test_has_nonfinite_flags_exactly_the_nonfinite_arrays():
    for dtype in (np.float32, np.float64):
        clean = np.linspace(-3.0, 3.0, 12, dtype=dtype).reshape(3, 4)
        assert not has_nonfinite(clean)
        # the largest finite values are finite
        assert not has_nonfinite(np.array([np.finfo(dtype).max, -np.finfo(dtype).max,
                                           np.finfo(dtype).tiny], dtype=dtype))
        for bad in (np.nan, np.inf, -np.inf):
            for idx in ((0, 0), (1, 2), (2, 3)):
                a = clean.copy()
                a[idx] = bad
                assert has_nonfinite(a), (dtype, bad, idx)
                assert has_nonfinite(a[None]) and has_nonfinite(a.T)
            # 0-d arrays and numpy scalars
            assert has_nonfinite(np.array(bad, dtype=dtype))
            assert has_nonfinite(dtype(bad))
        assert not has_nonfinite(np.array(1.5, dtype=dtype))
        assert not has_nonfinite(dtype(1.5))
        # an empty array holds nothing non-finite
        assert not has_nonfinite(np.empty((0, 4), dtype=dtype))
        assert not has_nonfinite(np.empty(0, dtype=dtype))
    # it agrees with the reduction it replaced on random mixes
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.standard_normal(rng.integers(0, 6, size=2))
        a[rng.random(a.shape) < 0.05] = rng.choice([np.nan, np.inf, -np.inf])
        for arr in (a, a.astype(np.float32)):
            assert has_nonfinite(arr) == (not np.isfinite(arr).all())


def test_forward_identity_layer():
    spec = nn.MlpSpec((4, 4), ("identity",))
    params = {"mlp/w0": np.eye(4), "mlp/b0": np.zeros(4)}
    x = np.arange(8.0).reshape(2, 4)
    y = nn.forward(spec, params, x)
    assert np.array_equal(y, x)


def test_forward_zero_weights_gives_activated_bias():
    spec = nn.MlpSpec((3, 2), ("tanh",))
    b = np.array([0.5, -1.2])
    params = {"mlp/w0": np.zeros((3, 2)), "mlp/b0": b}
    y = nn.forward(spec, params, np.random.default_rng(0).normal(size=(6, 3)))
    assert np.allclose(y, np.tanh(b)[None, :])


def test_forward_matches_naive_oracle():
    rng = np.random.default_rng(1)
    spec = nn.MlpSpec((7, 11, 5, 3), ("relu", "tanh", "identity"))
    params = nn.init_params(spec, seed=42)
    x = rng.normal(size=(13, 7))
    y = nn.forward(spec, params, x)
    assert np.max(np.abs(y - oracle_mlp_forward(spec, params, x))) < 1e-12
    # forward returns the training layer loop's output, bit for bit
    for act in ("relu", "tanh", "identity"):
        spec = nn.MlpSpec((7, 11, 5, 3), (act, act, act))
        params = nn.init_params(spec, seed=43)
        for batch in (x, x[:1]):
            out, cache = nn.apply(spec, params, batch)
            assert np.array_equal(nn.forward(spec, params, batch), out), act
            assert len(cache) == 4 and cache[0] is batch and cache[-1] is out
        # a single (d_in,) row comes back as a (d_out,) row of the same values
        assert np.array_equal(nn.forward(spec, params, x[0]), out[0]), act


def test_apply_in_place_layers_equal_the_allocating_loop_bitwise():
    rng = np.random.default_rng(5)
    for act in ("relu", "tanh", "identity"):
        spec = nn.MlpSpec((7, 11, 5, 3), (act, act, act))
        params = nn.init_params(spec, seed=44)
        params = {k: v + rng.normal(scale=0.3, size=v.shape) for k, v in params.items()}
        for batch in (1, 13):
            x = rng.normal(size=(batch, 7))
            want_out, want_cache = reference_apply(spec, params, x.copy())
            out, cache = nn.apply(spec, params, x)
            assert out.tobytes() == want_out.tobytes(), (act, batch)
            assert len(cache) == len(want_cache) == 4
            for got, want in zip(cache, want_cache):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (act, batch)
            assert cache[0] is x and cache[-1] is out
            # each layer writes into its own matmul output: no entry is a view
            # of another, so backward reads every activation as it was made
            for i in range(len(cache)):
                for j in range(i + 1, len(cache)):
                    assert not np.shares_memory(cache[i], cache[j]), (act, batch, i, j)
    # signed zeros: an affine output of -0.0 leaves relu as +0.0, as np.where did
    spec = nn.MlpSpec((3, 4), ("relu",))
    params = {"mlp/w0": np.zeros((3, 4)), "mlp/b0": np.full(4, -0.0)}
    x = -np.ones((2, 3))
    assert nn.apply(spec, params, x)[0].tobytes() == reference_apply(spec, params, x)[0].tobytes()


def test_forward_shape_mismatch():
    spec = nn.MlpSpec((4, 2), ("relu",))
    with pytest.raises(ShapeMismatchError):
        nn.forward(spec, nn.init_params(spec, 0), np.zeros((3, 5)))


def test_forward_rejects_nan_input():
    spec = nn.MlpSpec((3, 4, 2), ("relu", "identity"))
    x = np.zeros((2, 3))
    x[1, 2] = np.nan
    with pytest.raises(NonFiniteError):
        nn.forward(spec, nn.init_params(spec, 0), x)


def test_forward_raises_when_a_layer_overflows():
    # finite weights whose first-layer product overflows to inf; relu would
    # pass +inf on and the second layer would turn it into nan or inf
    spec = nn.MlpSpec((2, 3, 1), ("relu", "identity"))
    params = nn.init_params(spec, 0)
    params["mlp/w0"] = np.full((2, 3), 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="layer 0"):
            nn.forward(spec, params, np.full((1, 2), 1e200))
        # a -inf pre-activation would come out of relu as 0: still caught
        with pytest.raises(NonFiniteError, match="layer 0"):
            nn.forward(spec, params, np.full((1, 2), -1e200))


def test_float32_apply_names_a_layer_0_pre_activation_of_minus_inf():
    # the sampler's dtype: float32 weights and input. relu would turn the
    # -inf into 0, so only the check on the pre-activation sees it
    spec = nn.MlpSpec((2, 3, 1), ("relu", "identity"))
    params = {name: arr.astype(np.float32) for name, arr in nn.init_params(spec, 0).items()}
    x = np.ones((1, 2), dtype=np.float32)
    assert np.isfinite(nn.apply(spec, params, x)[0]).all()
    params["mlp/b0"] = np.array([0.0, -np.inf, 0.0], dtype=np.float32)
    with pytest.raises(NonFiniteError, match="mlp: non-finite values produced by layer 0"):
        nn.apply(spec, params, x)
    # a NaN in the second layer is named as layer 1
    params["mlp/b0"] = np.zeros(3, dtype=np.float32)
    params["mlp/b1"] = np.array([np.nan], dtype=np.float32)
    with pytest.raises(NonFiniteError, match="layer 1"):
        nn.apply(spec, params, x)


def test_init_deterministic():
    spec = nn.MlpSpec((6, 8, 2), ("relu", "identity"))
    p1 = nn.init_params(spec, seed=7)
    p2 = nn.init_params(spec, seed=7)
    p3 = nn.init_params(spec, seed=8)
    for name in p1:
        assert np.array_equal(p1[name], p2[name])
    assert any(not np.array_equal(p1[n], p3[n]) for n in p1 if "w" in n)
    # fan-in bound respected
    assert np.max(np.abs(p1["mlp/w0"])) <= 1.0 / np.sqrt(6)


# ---------------------------------------------------------------------------
# backward


def zeroed_grads(spec):
    """An array per parameter of spec, for `tensor.backward` to write into."""
    return {name: np.zeros(shape) for name, shape in spec.param_shapes().items()}


def allocating_backward(spec, params, cache, g):
    """The reverse pass as it returned fresh arrays, (grads by name, input
    gradient): the reference for the one that writes into given arrays."""
    grads = {}
    for i in reversed(range(len(spec.activations))):
        act, y = spec.activations[i], cache[i + 1]
        if act == "relu":
            g = g * (y > 0)
        elif act == "tanh":
            g = g * (1.0 - y * y)
        grads[f"{spec.name}/b{i}"] = g.sum(axis=0)
        grads[f"{spec.name}/w{i}"] = cache[i].T @ g
        g = g @ params[f"{spec.name}/w{i}"].T
    return grads, g


def test_backward_linear_layer_input_grad_closed_form():
    rng = np.random.default_rng(2)
    spec = nn.MlpSpec((5, 4), ("identity",))
    params = nn.init_params(spec, seed=3)
    x = rng.normal(size=(6, 5))
    _, cache = nn.apply(spec, params, x)
    g = rng.normal(size=(6, 4))
    grads = zeroed_grads(spec)
    gx = T.backward(spec, params, cache, g, grads, input_grad=True)
    assert np.array_equal(gx, g @ params["mlp/w0"].T)
    assert np.array_equal(grads["mlp/b0"], g.sum(axis=0))
    assert np.allclose(grads["mlp/w0"], x.T @ g)
    assert T.backward(spec, params, cache, g, grads) is None


def test_backward_matches_finite_differences_two_layer():
    rng = np.random.default_rng(4)
    for act in ("relu", "tanh"):
        spec = nn.MlpSpec((6, 10, 3), (act, "identity"))
        params = nn.init_params(spec, seed=rng.integers(1 << 30))
        x = rng.normal(size=(8, 6))

        def fn(p):
            # loss = sum of outputs, so the output gradient is all ones
            out, cache = nn.apply(spec, p, x)
            grads = zeroed_grads(spec)
            T.backward(spec, p, cache, np.ones_like(out), grads)
            return out.sum(), grads

        worst = nn.finite_difference_check(fn, params, rng, n_probes=25)
        assert worst < 1e-5


def test_backward_into_flat_views_matches_the_allocating_pass_bitwise():
    # every net the package trains, at the benchmark's widths and batch:
    # gradients written into views of one flat vector are the bytes of the
    # fresh arrays the pass used to return, and so is the input gradient
    rng = np.random.default_rng(5)
    nets = (*policy._specs(policy.TrainConfig(), 3 * sim.RASTER_SIZE ** 2,
                           policy.TrainConfig().target_dim), retarget.NET_SPEC)
    for spec in nets:
        flat = nn.FlatParams(nn.init_params(spec, seed=6))
        x = rng.normal(size=(32, spec.widths[0]))
        out, cache = nn.apply(spec, flat.params, x)
        g = rng.normal(size=out.shape)
        ref, ref_in = allocating_backward(spec, flat.params, cache, g)
        got_in = T.backward(spec, flat.params, cache, g, flat.grads, input_grad=True)
        assert got_in.tobytes() == ref_in.tobytes(), spec.name
        assert flat.grads.keys() == ref.keys()
        for name, value in ref.items():
            assert flat.grads[name].tobytes() == value.tobytes(), name
        assert flat.grad.tobytes() == np.concatenate(
            [ref[name].reshape(-1) for name in flat.params]).tobytes()


# ---------------------------------------------------------------------------
# losses


def test_kl_same_batch_is_zero():
    f = np.random.default_rng(8).normal(size=(16, 4))
    loss, _, _ = nn.gaussian_kl_alignment(f, f)
    assert abs(loss) < 1e-12


def test_kl_mean_shift_closed_form():
    # batches with exactly unit sample variance and means 0 / mu
    base = np.array([[-1.0], [1.0]]) * np.ones((1, 3))
    mu = np.array([0.5, -0.3, 0.2])
    loss, _, _ = nn.gaussian_kl_alignment(base, base + mu)
    assert abs(loss - np.sum(mu ** 2)) < 1e-12


def test_kl_matches_closed_form_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        fa = rng.normal(loc=rng.normal(), scale=rng.uniform(0.5, 2), size=(12, 5))
        fb = rng.normal(loc=rng.normal(), scale=rng.uniform(0.5, 2), size=(9, 5))
        loss, _, _ = nn.gaussian_kl_alignment(fa, fb)
        assert abs(loss - oracle_gaussian_kl(fa, fb)) < 1e-10


def test_kl_batch_too_small():
    with pytest.raises(BatchTooSmallError):
        nn.gaussian_kl_alignment(np.zeros((1, 3)), np.zeros((4, 3)))


def test_kl_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    params = {"fa": rng.normal(size=(6, 4)), "fb": rng.normal(size=(5, 4))}

    def fn(p):
        loss, ga, gb = nn.gaussian_kl_alignment(p["fa"], p["fb"])
        return loss, {"fa": ga, "fb": gb}

    assert nn.finite_difference_check(fn, params, rng, n_probes=20) < 1e-5


def test_bce_matches_naive_and_stays_finite():
    rng = np.random.default_rng(11)
    z = rng.normal(size=(8,))
    y = (rng.random(8) > 0.5).astype(float)
    loss, _ = nn.bce_with_logits(z, y)
    p = 1 / (1 + np.exp(-z))
    naive = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
    assert abs(loss - naive) < 1e-12
    # huge logits must not overflow, in the value or the gradient
    big, g = nn.bce_with_logits(np.array([1000.0, -1000.0]), np.array([1.0, 0.0]))
    assert big < 1e-6
    assert np.array_equal(g, np.zeros(2))


def test_bce_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    y = (rng.random(10) > 0.5).astype(float)
    params = {"z": rng.normal(size=(10,))}

    def fn(p):
        loss, g = nn.bce_with_logits(p["z"], y)
        return loss, {"z": g}

    assert nn.finite_difference_check(fn, params, rng, n_probes=10) < 1e-5


def test_mse_loss_value():
    pred = np.array([[1.0, 2.0], [3.0, 4.0]])
    target = np.array([[1.0, 1.0], [3.0, 2.0]])
    loss, g = nn.mse_loss(pred, target)
    assert np.allclose(loss, (0 + 1 + 0 + 4) / 4)
    assert np.allclose(g, 2 * (pred - target) / 4)
    rng = np.random.default_rng(14)
    params = {"pred": rng.normal(size=(3, 4))}
    target = rng.normal(size=(3, 4))

    def fn(p):
        loss, g = nn.mse_loss(p["pred"], target)
        return loss, {"pred": g}

    assert nn.finite_difference_check(fn, params, rng, n_probes=10) < 1e-5


# ---------------------------------------------------------------------------
# optimizer


def test_flat_params_lay_the_weights_out_in_one_vector():
    rng = np.random.default_rng(20)
    params = {"a/w0": rng.normal(size=(5, 3)), "a/b0": rng.normal(size=3),
              "b/w0": rng.normal(size=(2, 2, 4))}
    flat = nn.FlatParams(params)
    assert flat.vector.tobytes() == np.concatenate(
        [p.reshape(-1) for p in params.values()]).tobytes()
    assert flat.grad.shape == flat.vector.shape and not flat.grad.any()
    for views, base in ((flat.params, flat.vector), (flat.grads, flat.grad)):
        assert list(views) == list(params)
        for name, p in params.items():
            assert views[name].shape == p.shape and views[name].base is base
            assert not np.shares_memory(views[name], p)
    for name, p in params.items():   # copies, not the given arrays
        assert flat.params[name].tobytes() == p.tobytes()
    flat.vector[:] = 0.0   # the views see every write to their vector
    assert not any(v.any() for v in flat.params.values())


def test_adam_zero_gradient_keeps_params():
    params = np.array([1.0, -2.0, 3.0])
    nn.Adam(learning_rate=0.1).step(params, np.zeros(3))
    assert np.array_equal(params, [1.0, -2.0, 3.0])


def test_adam_first_step_magnitude_is_learning_rate():
    lr = 1e-3
    params = np.zeros(4)
    nn.Adam(learning_rate=lr).step(params, np.ones(4))
    assert np.max(np.abs(np.abs(params) - lr)) < 1e-9
    assert np.all(params < 0)  # moves against the gradient


def test_adam_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        nn.Adam().step(np.zeros(3), np.zeros(4))
    with pytest.raises(ShapeMismatchError, match="one vector"):
        nn.Adam().step(np.zeros((2, 3)), np.zeros((2, 3)))


def test_adam_quadratic_bowl_convergence():
    # regression run: minimize 0.5|p|^2 for 200 steps at lr=0.01. Frozen
    # reference: final loss 1.8e-10; worst post-transient uptick 3.1e-9
    # (convergence-floor ripple), so monotonicity is asserted at 1e-8.
    params = np.array([0.5, -0.4, 0.3, 0.2])
    opt = nn.Adam(learning_rate=0.01)
    losses = []
    for _ in range(200):
        losses.append(0.5 * float(np.sum(params ** 2)))
        opt.step(params, params.copy())
    losses.append(0.5 * float(np.sum(params ** 2)))
    assert losses[-1] < 1e-6
    tail = np.array(losses[10:])
    assert np.all(np.diff(tail) <= 1e-8)


def test_adam_in_place_moments_match_reference_formula_bitwise():
    # References: the out-of-place update of each parameter alone, with
    # fresh arrays every step. The moments follow the textbook recurrence;
    # the parameters follow Kingma & Ba's efficient form, which folds both
    # bias corrections into alpha_t and eps_hat, and the textbook update is
    # tracked beside it. Adam steps the parameters laid out in one vector.
    def reference_step(params, grads, m, v, t, lr):
        efficient, textbook = {}, {}
        for name, (p, p_tb) in params.items():
            g = grads[name]
            m[name] = BETA1 * m[name] + (1 - BETA1) * g
            v[name] = BETA2 * v[name] + (1 - BETA2) * g * g
            c1, c2 = 1 - BETA1 ** t, 1 - BETA2 ** t
            alpha_t, eps_hat = lr * np.sqrt(c2) / c1, EPS * np.sqrt(c2)
            efficient[name] = p - alpha_t * m[name] / (np.sqrt(v[name]) + eps_hat)
            textbook[name] = p_tb - lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + EPS)
        return {name: (efficient[name], textbook[name]) for name in params}

    rng = np.random.default_rng(21)
    params = {"a/w0": rng.normal(size=(5, 3)), "a/b0": rng.normal(size=3),
              "b/w0": rng.normal(size=(3, 2, 4)),
              # the vector spans more than three of Adam's runs, the last
              # one ragged, and parameters straddle run boundaries
              "c/w0": rng.normal(size=(3, 11000)),
              "d/w0": rng.normal(size=(40, 500))}
    flat = nn.FlatParams(params)
    vector = flat.vector
    ref = {k: (p.copy(), p.copy()) for k, p in params.items()}
    ref_m = {k: np.zeros_like(p) for k, p in params.items()}
    ref_v = {k: np.zeros_like(p) for k, p in params.items()}
    opt = nn.Adam(learning_rate=1e-2)
    for t in range(1, 51):
        opt.learning_rate = 1e-2 / t ** 0.5   # a schedule, as training loops use
        grads = {k: rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 2)
                 for k, p in params.items()}
        for k, g in grads.items():
            flat.grads[k][...] = g
        # every other step reads the gradient through a strided view
        grad = flat.grad if t % 2 else np.repeat(flat.grad, 2)[::2]
        opt.step(vector, grad)
        ref = reference_step(ref, grads, ref_m, ref_v, t, opt.learning_rate)
        assert flat.vector is vector
        m, v = nn.FlatParams(ref_m).vector, nn.FlatParams(ref_v).vector
        assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()
        for k in params:
            assert np.array_equal(grads[k], flat.grads[k])  # the gradient is only read
            assert np.array_equal(flat.params[k], ref[k][0])
            # the two forms are equal in exact arithmetic; each step may round
            # the O(1) parameters one ulp (2.2e-16) apart, 50 steps stay < 1e-14
            np.testing.assert_allclose(flat.params[k], ref[k][1], rtol=0, atol=1e-14)
        if t == 1:
            moments = opt.m, opt.v
        assert opt.m is moments[0] and opt.v is moments[1]


def test_adam_step_leaves_its_gradient_and_shares_no_scratch():
    rng = np.random.default_rng(22)
    params = rng.normal(size=3 * BLOCK + 5)
    opt = nn.Adam(learning_rate=1e-2)
    scratch = opt._scratch
    for _ in range(3):
        grads = rng.normal(size=params.shape)
        before = params.copy(), grads.tobytes()
        opt.step(params, grads)
        assert grads.tobytes() == before[1]
        assert not np.array_equal(params, before[0])   # stepped in place
        for a, b in ((params, grads), (params, opt.m), (params, opt.v), (opt.m, opt.v),
                     (opt.m, grads), (opt.v, grads), *((params, s) for s in scratch)):
            assert not np.shares_memory(a, b)
        assert opt._scratch is scratch


def test_adam_flat_step_changes_no_bits_and_fixes_the_vector_length():
    # one vector holding several parameters, run boundaries falling inside
    # them: each parameter steps as it would alone in its own optimizer
    rng = np.random.default_rng(23)
    shapes = {"a": (7,), "big": (BLOCK + 5,), "u": (BLOCK - 3,), "c": (2, 5), "d": (3,)}
    flat = nn.FlatParams({k: rng.normal(size=s) for k, s in shapes.items()})
    singles = {k: p.reshape(-1).copy() for k, p in flat.params.items()}
    together, alone = nn.Adam(1e-2), {k: nn.Adam(1e-2) for k in shapes}
    for _ in range(3):
        grads = {k: rng.normal(size=s) for k, s in shapes.items()}
        for k, g in grads.items():
            flat.grads[k][...] = g
            alone[k].step(singles[k], g.reshape(-1))
        together.step(flat.vector, flat.grad)
        for k in shapes:
            assert flat.params[k].tobytes() == singles[k].tobytes(), k
    with pytest.raises(ShapeMismatchError, match="moments"):
        together.step(flat.vector[:-1], flat.grad[:-1])


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    arrays = {"enc/w0": rng.normal(size=(7, 5)), "enc/b0": rng.normal(size=5),
              "scalar": np.float64(3.25)}
    meta = {"widths": [7, 5], "seed": 13, "note": "round-trip"}
    path = tmp_path / "ck.bin"
    nn.save_checkpoint(path, "test-kind", meta, arrays)
    kind, meta2, arrays2 = nn.load_checkpoint(path)
    assert kind == "test-kind"
    assert meta2 == meta
    for name, a in arrays.items():
        assert np.array_equal(arrays2[name], np.asarray(a))
        assert arrays2[name].dtype == np.float64


def test_checkpoint_write_is_deterministic(tmp_path):
    arrays = {"a": np.arange(6.0).reshape(2, 3)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    nn.save_checkpoint(p1, "k", {"x": 1}, arrays)
    nn.save_checkpoint(p2, "k", {"x": 1}, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_corruption(tmp_path):
    path = tmp_path / "ck.bin"
    nn.save_checkpoint(path, "k", {}, {"a": np.zeros(3)})
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTMAGIC" + raw[8:])
    with pytest.raises(SchemaMismatchError):
        nn.load_checkpoint(bad)
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(raw[:-8])
    with pytest.raises(SchemaMismatchError):
        nn.load_checkpoint(trunc)
    extra = tmp_path / "extra.bin"
    extra.write_bytes(bytes(raw) + b"\x00" * 4)
    with pytest.raises(SchemaMismatchError):
        nn.load_checkpoint(extra)


def write_with_header(path, header: bytes, payload: bytes = b"") -> None:
    path.write_bytes(b"TRKPOLCK" + struct.pack("<I", 1) + struct.pack("<Q", len(header))
                     + header + payload)


@pytest.mark.parametrize("header", [
    {},
    [],
    "checkpoint",
    {"kind": "k", "meta": {}},
    {"kind": 3, "meta": {}, "arrays": []},
    {"kind": "k", "meta": [], "arrays": []},
    {"kind": "k", "meta": {}, "arrays": {"a": [3]}},
    {"kind": "k", "meta": {}, "arrays": ["a"]},
    {"kind": "k", "meta": {}, "arrays": [{"shape": [1]}]},
    {"kind": "k", "meta": {}, "arrays": [{"name": 7, "shape": [1]}]},
    {"kind": "k", "meta": {}, "arrays": [{"name": "a"}]},
    {"kind": "k", "meta": {}, "arrays": [{"name": "a", "shape": 1}]},
    {"kind": "k", "meta": {}, "arrays": [{"name": "a", "shape": [-1]}]},
    {"kind": "k", "meta": {}, "arrays": [{"name": "a", "shape": [0.5]}]},
    {"kind": "k", "meta": {}, "arrays": [{"name": "a", "shape": ["1"]}]},
    {"kind": "k", "meta": {}, "arrays": [{"name": "a", "shape": [True]}]},
    # a dim too large for int64: the file is merely too short for it
    {"kind": "k", "meta": {}, "arrays": [{"name": "a", "shape": [2 ** 70]}]},
])
def test_checkpoint_rejects_a_header_of_the_wrong_structure(tmp_path, header):
    path = tmp_path / "ck.bin"
    write_with_header(path, json.dumps(header).encode("utf-8"), b"\x00" * 8)
    with pytest.raises(SchemaMismatchError):
        nn.load_checkpoint(path)


def test_checkpoint_header_written_by_hand_loads(tmp_path):
    path = tmp_path / "ck.bin"
    header = {"kind": "k", "meta": {}, "arrays": [{"name": "a", "shape": [2]},
                                                  {"name": "s", "shape": []}]}
    write_with_header(path, json.dumps(header).encode("utf-8"),
                      np.array([1.5, -2.0, 4.0], dtype="<f8").tobytes())
    kind, meta, arrays = nn.load_checkpoint(path)
    assert (kind, meta) == ("k", {})
    assert np.array_equal(arrays["a"], [1.5, -2.0]) and arrays["s"].shape == ()
