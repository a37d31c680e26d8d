"""Keypoint retargeter: denoising quality, exactness properties, validation."""

import numpy as np
import pytest

from trackpolicy import data, retarget, sim
from trackpolicy.errors import (
    InsufficientDataError,
    NonFiniteError,
    NotFittedError,
    ShapeMismatchError,
)
from trackpolicy.geometry import RigidTransform, project_points
from trackpolicy.nn import finite_difference_check, init_params
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
    return KeypointRetargeter().fit(frames), frames


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
    est = KeypointRetargeter.from_arrays(init_params(retarget.NET_SPEC, 0))
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
    for seed in (0, 1):
        worst = finite_difference_check(
            lambda p: retarget._denoising_loss(p, rel_in, target, mask),
            init_params(retarget.NET_SPEC, seed), rng, n_probes=30)
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
    arr = next(iter(est._params.values()))
    with pytest.raises(ValueError):
        arr[...] = 0.0


# ---------------------------------------------------------------------------
# validation


def test_transform_before_fit_raises():
    with pytest.raises(NotFittedError):
        KeypointRetargeter().transform_batch(np.zeros((1, 5, 2)))


def test_fit_rejects_bad_corpora():
    good = layout_corpus("human", 60, seed=0)
    with pytest.raises(InsufficientDataError):
        KeypointRetargeter().fit(good[:99])
    with pytest.raises(ShapeMismatchError):
        KeypointRetargeter().fit(np.zeros((120, 21, 2)))
    bad = good.copy()
    bad[7, 2, 1] = np.nan
    with pytest.raises(NonFiniteError):
        KeypointRetargeter().fit(bad)


def test_transform_rejects_wrong_k(trained):
    est, _ = trained
    with pytest.raises(ShapeMismatchError):
        est.transform_batch(np.zeros((1, 21, 2)))
    with pytest.raises(ShapeMismatchError):
        est.transform_batch(np.zeros((2, 21, 2)))


# ---------------------------------------------------------------------------
# persistence


def test_to_arrays_before_fit_raises():
    with pytest.raises(NotFittedError):
        KeypointRetargeter().to_arrays()
