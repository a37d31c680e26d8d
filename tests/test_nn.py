"""MLP layer loop and reverse pass, losses and their gradients, Adam,
checkpoint round trips.

Oracles: per-sample naive matmul loop for the forward pass, central finite
differences for gradients, direct closed-form evaluation for the diagonal
Gaussian KL.
"""

import numpy as np
import pytest

from trackpolicy import nn
from trackpolicy.errors import (
    BatchTooSmallError,
    NonFiniteError,
    SchemaMismatchError,
    ShapeMismatchError,
)
from trackpolicy.nn import tensor as T


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


def test_backward_linear_layer_input_grad_closed_form():
    rng = np.random.default_rng(2)
    spec = nn.MlpSpec((5, 4), ("identity",))
    params = nn.init_params(spec, seed=3)
    x = rng.normal(size=(6, 5))
    _, cache = nn.apply(spec, params, x)
    g = rng.normal(size=(6, 4))
    grads, gx = T.backward(spec, params, cache, g, input_grad=True)
    assert np.array_equal(gx, g @ params["mlp/w0"].T)
    assert np.array_equal(grads["mlp/b0"], g.sum(axis=0))
    assert np.allclose(grads["mlp/w0"], x.T @ g)
    assert T.backward(spec, params, cache, g)[1] is None


def test_backward_matches_finite_differences_two_layer():
    rng = np.random.default_rng(4)
    for act in ("relu", "tanh"):
        spec = nn.MlpSpec((6, 10, 3), (act, "identity"))
        params = nn.init_params(spec, seed=rng.integers(1 << 30))
        x = rng.normal(size=(8, 6))

        def fn(p):
            # loss = sum of outputs, so the output gradient is all ones
            out, cache = nn.apply(spec, p, x)
            return out.sum(), T.backward(spec, p, cache, np.ones_like(out))[0]

        worst = nn.finite_difference_check(fn, params, rng, n_probes=25)
        assert worst < 1e-5


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


def test_adam_zero_gradient_keeps_params():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    new = nn.Adam(learning_rate=0.1).step(params, {"w": np.zeros(3)})
    assert np.array_equal(new["w"], params["w"])


def test_adam_first_step_magnitude_is_learning_rate():
    lr = 1e-3
    params = {"w": np.zeros(4)}
    new = nn.Adam(learning_rate=lr).step(params, {"w": np.ones(4)})
    assert np.max(np.abs(np.abs(new["w"]) - lr)) < 1e-9
    assert np.all(new["w"] < 0)  # moves against the gradient


def test_adam_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        nn.Adam().step({"w": np.zeros(3)}, {"w": np.zeros(4)})


def test_adam_quadratic_bowl_convergence():
    # regression run: minimize 0.5|p|^2 for 200 steps at lr=0.01. Frozen
    # reference: final loss 1.8e-10; worst post-transient uptick 3.1e-9
    # (convergence-floor ripple), so monotonicity is asserted at 1e-8.
    params = {"p": np.array([0.5, -0.4, 0.3, 0.2])}
    opt = nn.Adam(learning_rate=0.01)
    losses = []
    for _ in range(200):
        grads = {"p": params["p"].copy()}
        losses.append(0.5 * float(np.sum(params["p"] ** 2)))
        params = opt.step(params, grads)
    losses.append(0.5 * float(np.sum(params["p"] ** 2)))
    assert losses[-1] < 1e-6
    tail = np.array(losses[10:])
    assert np.all(np.diff(tail) <= 1e-8)


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
