"""Keypoint retargeter: denoising quality, exactness properties, validation."""

import numpy as np
import pytest

from trackpolicy import data, retarget, sim
from trackpolicy.errors import (
    InsufficientDataError,
    NonFiniteError,
    ShapeMismatchError,
)
from trackpolicy.geometry import RigidTransform, project_points
from trackpolicy.nn import Adam, FlatParams, finite_difference_check, init_params
from trackpolicy.retarget import KeypointRetargeter


# band the end-effector actually visits across tasks: spawn box plus push
# travel laterally, grasp height up to home height vertically
WORKSPACE_LOW = np.array([-0.13, -0.09, 0.06])
WORKSPACE_HIGH = np.array([0.13, 0.09, 0.13])


def layout_corpus(kind, n_poses, seed):
    """Clean normalized 5-point layouts at random workspace poses, (n, 5, 2).

    One layout per (pose, default camera view), open/closed drawn 50/50, no
    tracker jitter: the layout distribution free of any task script.
    """
    emb = sim.embodiment(kind)
    cams = sim.default_cameras()
    subset = list(data.HAND_SUBSET_INDICES) if kind == "human" else slice(None)
    rng = np.random.default_rng([int(seed), 7331])
    out = []
    for _ in range(n_poses):
        pos = rng.uniform(WORKSPACE_LOW, WORKSPACE_HIGH)
        closed = bool(rng.integers(2))
        pts3 = RigidTransform(sim.HOME_POSE.rotation, pos).apply(emb.offsets_for(closed))
        for intr, pose in cams:
            out.append(data.normalize_keypoints(project_points(pts3, intr, pose)[subset], intr))
    return np.stack(out)


def template_distance(queries, templates):
    """Mean over queries of the nearest anchor-relative layout distance.

    Independent of the estimator: measures how far each query layout sits
    from the closest training layout, averaging per-point L2 after removing
    the anchor translation.
    """
    q = queries - queries[:, 0:1]
    t = templates - templates[:, 0:1]
    d = np.sqrt(((q[:, None] - t[None]) ** 2).sum(-1)).mean(-1)  # (nq, nt)
    return float(d.min(axis=1).mean())


def noisy_copy(clean, seed, bound=0.15):
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-bound, bound, size=clean.shape)
    noise[:, 0] = 0.0  # anchor is never corrupted
    return clean + noise


@pytest.fixture(scope="module")
def trained():
    frames = layout_corpus("human", 800, seed=0)
    return KeypointRetargeter.fit(frames), frames


# ---------------------------------------------------------------------------
# denoising quality


def test_denoises_held_out_layouts(trained):
    est, _ = trained
    clean = layout_corpus("human", 100, seed=7)
    noisy = noisy_copy(clean, seed=7)
    rmse = float(np.sqrt(np.mean((est.transform_batch(noisy) - clean) ** 2)))
    identity = float(np.sqrt(np.mean((noisy - clean) ** 2)))
    assert rmse < 0.02
    assert rmse < identity / 3  # far better than leaving the noise in
    assert abs(rmse - 0.0137227) < 2e-3  # regression pin


def test_denoise_bound_holds_across_eval_seeds(trained):
    est, _ = trained
    for seed in (13, 21, 99, 123):
        clean = layout_corpus("human", 100, seed=seed)
        den = est.transform_batch(noisy_copy(clean, seed=seed))
        assert float(np.sqrt(np.mean((den - clean) ** 2))) < 0.02


def test_clean_layouts_pass_through_nearly_unchanged(trained):
    est, _ = trained
    clean = layout_corpus("human", 100, seed=7)
    rmse = float(np.sqrt(np.mean((est.transform_batch(clean) - clean) ** 2)))
    assert rmse < 0.02
    assert abs(rmse - 0.0130622) < 2e-3  # regression pin


def test_untrained_net_is_no_better_than_identity():
    est = KeypointRetargeter(init_params(retarget.NET_SPEC, 0))
    clean = layout_corpus("human", 100, seed=7)
    noisy = noisy_copy(clean, seed=7)
    rmse0 = float(np.sqrt(np.mean((est.transform_batch(noisy) - clean) ** 2)))
    identity = float(np.sqrt(np.mean((noisy - clean) ** 2)))
    assert rmse0 > identity  # training, not architecture, does the denoising


def test_robot_layouts_move_toward_hand_templates(trained):
    est, templates = trained
    robot = layout_corpus("robot", 100, seed=11)
    before = template_distance(robot, templates)
    after = template_distance(est.transform_batch(robot), templates)
    assert after < 0.5 * before


def test_denoising_loss_gradient_matches_finite_differences():
    # the loss and gradient fit() steps on, on one epoch's noisy inputs
    clean = layout_corpus("human", 6, seed=3)
    noisy = noisy_copy(clean, seed=3)
    n, a = len(clean), retarget.ANCHOR_INDEX
    rel_in = (noisy - noisy[:, a:a + 1]).reshape(n, -1)
    mask = np.ones(rel_in.shape[1])
    mask[2 * a:2 * a + 2] = 0.0
    target = (clean - clean[:, a:a + 1]).reshape(n, -1) * mask
    rng = np.random.default_rng(4)

    def loss_fn(params):
        grads = {name: np.zeros_like(p) for name, p in params.items()}
        return retarget._denoising_loss(params, grads, rel_in, target, mask), grads

    for seed in (0, 1):
        worst = finite_difference_check(loss_fn, init_params(retarget.NET_SPEC, seed),
                                        rng, n_probes=30)
        assert worst < 1e-5


# ---------------------------------------------------------------------------
# exactness properties


def test_anchor_is_copied_bit_exactly(trained):
    est, _ = trained
    pts = np.array([[0.123456789, -0.987654321], [0.51, 0.52],
                    [-0.33, 0.74], [0.05, -0.11], [0.91, 0.27]])
    out = est.transform_batch(pts[None])
    assert np.array_equal(out[0, 0], pts[0])


def test_translation_equivariance(trained):
    est, _ = trained
    clean = layout_corpus("human", 4, seed=7)
    # Snap to multiples of 2^-6 and shift by a dyadic delta: the anchor-
    # relative inputs are then bitwise identical before and after the shift,
    # so only the final anchor re-add can round differently.
    for i in range(len(clean)):
        base = np.round(clean[i] * 64) / 64
        delta = np.array([0.25, -0.125])
        assert np.array_equal((base + delta) - (base + delta)[0], base - base[0])
        a = est.transform_batch(base[None])[0]
        b = est.transform_batch((base + delta)[None])[0]
        assert np.abs(b - (a + delta)).max() < 1e-12


def test_parameters_are_frozen_after_fit(trained):
    est, _ = trained
    arrays = est.to_arrays()
    assert arrays.keys() == retarget.NET_SPEC.param_shapes().keys()
    for arr in arrays.values():
        with pytest.raises(ValueError):
            arr[...] = 0.0


# ---------------------------------------------------------------------------
# validation


def test_fit_rejects_bad_corpora():
    good = layout_corpus("human", 60, seed=0)
    with pytest.raises(InsufficientDataError):
        KeypointRetargeter.fit(good[:99])
    with pytest.raises(ShapeMismatchError):
        KeypointRetargeter.fit(np.zeros((120, 21, 2)))
    bad = good.copy()
    bad[7, 2, 1] = np.nan
    with pytest.raises(NonFiniteError):
        KeypointRetargeter.fit(bad)


@pytest.mark.parametrize("seed", [True, False, 2.5, np.float64(1.0), -1, "3", None])
def test_fit_rejects_a_seed_that_is_not_an_integer_at_least_0(seed):
    # True trained as seed 1, and -1 failed in numpy without naming the seed
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got "):
        KeypointRetargeter.fit(layout_corpus("human", 60, seed=0), seed)


def test_fit_takes_numpy_integer_seeds():
    corpus = layout_corpus("human", 60, seed=0)
    a = KeypointRetargeter.fit(corpus, np.int64(2)).to_arrays()
    b = KeypointRetargeter.fit(corpus, 2).to_arrays()
    assert all(a[name].tobytes() == b[name].tobytes() for name in b)


def test_transform_rejects_wrong_k(trained):
    est, _ = trained
    with pytest.raises(ShapeMismatchError):
        est.transform_batch(np.zeros((1, 21, 2)))
    with pytest.raises(ShapeMismatchError):
        est.transform_batch(np.zeros((2, 21, 2)))


# ---------------------------------------------------------------------------
# persistence


def test_constructor_rejects_missing_and_misshapen_arrays():
    good = init_params(retarget.NET_SPEC, 0)
    missing = {name: arr for name, arr in good.items() if name != "retargeter/b1"}
    with pytest.raises(ShapeMismatchError, match="missing parameter retargeter/b1"):
        KeypointRetargeter(missing)
    misshapen = {**good, "retargeter/w2": np.zeros((64, 9))}
    with pytest.raises(ShapeMismatchError, match=r"retargeter/w2: expected shape \(64, 10\)"):
        KeypointRetargeter(misshapen)


def test_constructor_freezes_the_given_arrays_in_place():
    given = init_params(retarget.NET_SPEC, 1)
    est = KeypointRetargeter(given)
    arrays = est.to_arrays()
    assert arrays.keys() == given.keys()
    for name, arr in given.items():
        assert arrays[name] is arr and not arr.flags.writeable


def test_array_dicts_do_not_alias_the_retargeter(trained):
    est, _ = trained
    pts = layout_corpus("human", 4, seed=5)
    before, out = est.to_arrays(), est.transform_batch(pts)
    handed_out = est.to_arrays()
    del handed_out["retargeter/w0"]
    handed_out["extra"] = np.zeros(1)
    assert est.to_arrays().keys() == before.keys()
    assert np.array_equal(est.transform_batch(pts), out)

    given = dict(before)
    loaded = KeypointRetargeter(given)
    given["retargeter/w0"] = np.zeros_like(before["retargeter/w0"])
    del given["retargeter/b2"]
    assert loaded.to_arrays().keys() == before.keys()
    assert all(loaded.to_arrays()[k] is v for k, v in before.items())
    assert np.array_equal(loaded.transform_batch(pts), out)


# ---------------------------------------------------------------------------
# rows per step


def test_each_step_takes_batch_rows_of_the_corpus(monkeypatch):
    steps, loss = [], retarget._denoising_loss

    def recorded(params, grads, rel_in, target, mask):
        steps.append((rel_in, target))
        return loss(params, grads, rel_in, target, mask)

    monkeypatch.setattr(retarget, "_denoising_loss", recorded)
    frames = layout_corpus("human", 150, seed=2)   # 300 frames
    KeypointRetargeter.fit(frames)
    a = retarget.ANCHOR_INDEX
    targets = (frames - frames[:, a:a + 1]).reshape(len(frames), -1)
    targets[:, 2 * a:2 * a + 2] = 0.0
    assert len(steps) == retarget.STEPS
    seen = set()
    for rel_in, target in steps:
        assert rel_in.shape == target.shape == (retarget.BATCH_ROWS, targets.shape[1])
        hits = (target[:, None] == targets[None]).all(axis=-1)
        assert hits.any(axis=1).all()   # every target row is a corpus row
        seen.update(np.flatnonzero(hits.any(axis=0)))
    assert len(seen) == len(frames)     # and the steps cover the corpus


def test_fit_repeats_for_a_seed():
    frames = layout_corpus("human", 100, seed=4)
    given = frames.copy()
    first = KeypointRetargeter.fit(frames, seed=3).to_arrays()
    again = KeypointRetargeter.fit(frames.copy(), seed=3).to_arrays()
    other = KeypointRetargeter.fit(frames, seed=4).to_arrays()
    # the corpus is read, never written or frozen
    assert frames.flags.writeable and frames.tobytes() == given.tobytes()
    assert all(np.array_equal(again[k], v) for k, v in first.items())
    assert not np.array_equal(other["retargeter/w0"], first["retargeter/w0"])


def per_parameter_fit(frames, seed):
    """fit's loop with every parameter in its own array and its own Adam,
    and fresh gradient arrays every step: the reference the flat fit must
    equal byte for byte."""
    n, a, rows = len(frames), retarget.ANCHOR_INDEX, retarget.BATCH_ROWS
    params = init_params(retarget.NET_SPEC, seed)
    opts = {name: Adam(retarget.LEARNING_RATE) for name in params}
    rng = np.random.default_rng([seed, retarget._NOISE_STREAM])
    mask = np.ones(frames[0].size)
    mask[2 * a:2 * a + 2] = 0.0
    target = (frames - frames[:, a:a + 1]).reshape(n, -1) * mask
    for _ in range(retarget.STEPS):
        idx = rng.integers(n, size=rows)
        noise = rng.uniform(-retarget.NOISE_BOUND, retarget.NOISE_BOUND,
                            size=(rows, *frames.shape[1:]))
        noise[:, a] = 0.0
        noisy = frames[idx] + noise
        rel_in = (noisy - noisy[:, a:a + 1]).reshape(rows, -1)
        grads = {name: np.empty_like(p) for name, p in params.items()}
        retarget._denoising_loss(params, grads, rel_in, target[idx], mask)
        for name, p in params.items():
            opts[name].step(p.reshape(-1), grads[name].reshape(-1))
    return params


def test_fit_steps_each_parameter_as_it_would_alone():
    frames = layout_corpus("human", 60, seed=5)   # 120 frames
    fitted = KeypointRetargeter.fit(frames, seed=2).to_arrays()
    ref = per_parameter_fit(frames, seed=2)
    assert fitted.keys() == ref.keys()
    for name, value in ref.items():
        assert fitted[name].tobytes() == value.tobytes(), name


def full_batch_fit(frames, seed):
    """The fit with every row in every step, as it ran before rows were
    drawn per step: the reference the drawn rows are judged against."""
    n, a = len(frames), retarget.ANCHOR_INDEX
    flat = FlatParams(init_params(retarget.NET_SPEC, seed))
    rng = np.random.default_rng([seed, retarget._NOISE_STREAM])
    mask = np.ones(frames[0].size)
    mask[2 * a:2 * a + 2] = 0.0
    target = (frames - frames[:, a:a + 1]).reshape(n, -1) * mask
    opt = Adam(retarget.LEARNING_RATE)
    for _ in range(retarget.STEPS):
        noise = rng.uniform(-retarget.NOISE_BOUND, retarget.NOISE_BOUND, size=frames.shape)
        noise[:, a] = 0.0
        noisy = frames + noise
        rel_in = (noisy - noisy[:, a:a + 1]).reshape(n, -1)
        retarget._denoising_loss(flat.params, flat.grads, rel_in, target, mask)
        opt.step(flat.vector, flat.grad)
    return KeypointRetargeter(flat.params)


def test_drawn_rows_move_outputs_less_than_a_seed_change():
    # drawing rows is a cost cut, not a change of model: against the
    # full-batch fit, it moves the retargeted layouts less than a new seed
    frames = layout_corpus("human", 200, seed=6)   # 400 frames
    drawn = KeypointRetargeter.fit(frames, seed=0)
    full = [full_batch_fit(frames, s) for s in (0, 1)]
    for kind, seed in (("human", 7), ("robot", 11)):
        pts = layout_corpus(kind, 100, seed=seed)
        ref = full[0].transform_batch(pts)
        drawn_move = np.abs(drawn.transform_batch(pts) - ref).mean()
        seed_move = np.abs(full[1].transform_batch(pts) - ref).mean()
        assert drawn_move < seed_move, kind
