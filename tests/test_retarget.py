"""Keypoint retargeter: denoising quality, exactness properties, persistence."""

import numpy as np
import pytest

from trackpolicy import data, sim
from trackpolicy.errors import (
    InsufficientDataError,
    NotFittedError,
    SchemaMismatchError,
    WrongDimensionError,
    WrongEmbodimentError,
)
from trackpolicy.retarget import KeypointRetargeter


def layout_corpus(kind, n_poses, seed):
    """Clean normalized 5-point layouts at random workspace poses."""
    cams = sim.default_cameras()
    return [data.normalize_keypoints(f, cams[f.view_id][0])
            for f in sim.random_keypoint_frames(kind, n_poses, seed)]


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
    clean = np.stack([f.points for f in layout_corpus("human", 100, seed=7)])
    noisy = noisy_copy(clean, seed=7)
    rmse = float(np.sqrt(np.mean((est.transform_batch(noisy) - clean) ** 2)))
    identity = float(np.sqrt(np.mean((noisy - clean) ** 2)))
    assert rmse < 0.02
    assert rmse < identity / 3  # far better than leaving the noise in
    assert abs(rmse - 0.0137227) < 2e-3  # regression pin


def test_denoise_bound_holds_across_eval_seeds(trained):
    est, _ = trained
    for seed in (13, 21, 99, 123):
        clean = np.stack([f.points for f in layout_corpus("human", 100, seed=seed)])
        den = est.transform_batch(noisy_copy(clean, seed=seed))
        assert float(np.sqrt(np.mean((den - clean) ** 2))) < 0.02


def test_clean_layouts_pass_through_nearly_unchanged(trained):
    est, _ = trained
    clean = np.stack([f.points for f in layout_corpus("human", 100, seed=7)])
    rmse = float(np.sqrt(np.mean((est.transform_batch(clean) - clean) ** 2)))
    assert rmse < 0.02
    assert abs(rmse - 0.0130622) < 2e-3  # regression pin


def test_untrained_net_is_no_better_than_identity():
    frames = layout_corpus("human", 200, seed=0)
    est = KeypointRetargeter(epochs=0).fit(frames)
    clean = np.stack([f.points for f in layout_corpus("human", 100, seed=7)])
    noisy = noisy_copy(clean, seed=7)
    rmse0 = float(np.sqrt(np.mean((est.transform_batch(noisy) - clean) ** 2)))
    identity = float(np.sqrt(np.mean((noisy - clean) ** 2)))
    assert rmse0 > identity  # training, not architecture, does the denoising


def test_robot_layouts_move_toward_hand_templates(trained):
    est, train_frames = trained
    templates = np.stack([f.points for f in train_frames])
    robot = np.stack([f.points for f in layout_corpus("robot", 100, seed=11)])
    before = template_distance(robot, templates)
    after = template_distance(est.transform_batch(robot), templates)
    assert after < 0.5 * before


# ---------------------------------------------------------------------------
# exactness properties


def test_anchor_is_copied_bit_exactly(trained):
    est, _ = trained
    pts = np.array([[0.123456789, -0.987654321], [0.51, 0.52],
                    [-0.33, 0.74], [0.05, -0.11], [0.91, 0.27]])
    out = est.transform(data.KeypointSet2D(pts, data.ROBOT, 0))
    assert np.array_equal(out.points[0], pts[0])
    batch = est.transform_batch(pts[None])
    assert np.array_equal(batch[0, 0], pts[0])
    # one inference path: the single-frame transform is the batch of one
    assert np.array_equal(out.points, batch[0])


def test_translation_equivariance(trained):
    est, _ = trained
    clean = np.stack([f.points for f in layout_corpus("human", 4, seed=7)])
    # Snap to multiples of 2^-6 and shift by a dyadic delta: the anchor-
    # relative inputs are then bitwise identical before and after the shift,
    # so only the final anchor re-add can round differently.
    for i in range(len(clean)):
        base = np.round(clean[i] * 64) / 64
        delta = np.array([0.25, -0.125])
        assert np.array_equal((base + delta) - (base + delta)[0], base - base[0])
        a = est.transform(data.KeypointSet2D(base, data.HUMAN, 0)).points
        b = est.transform(data.KeypointSet2D(base + delta, data.HUMAN, 0)).points
        assert np.abs(b - (a + delta)).max() < 1e-12


def test_parameters_are_frozen_after_fit(trained):
    est, _ = trained
    arr = next(iter(est._params.values()))
    with pytest.raises(ValueError):
        arr[...] = 0.0


# ---------------------------------------------------------------------------
# validation


def test_transform_before_fit_raises():
    est = KeypointRetargeter()
    kps = data.KeypointSet2D(np.zeros((5, 2)), data.ROBOT, 0)
    with pytest.raises(NotFittedError):
        est.transform(kps)
    with pytest.raises(NotFittedError):
        est.transform_batch(np.zeros((1, 5, 2)))


def test_fit_rejects_bad_corpora():
    good = layout_corpus("human", 60, seed=0)
    with pytest.raises(InsufficientDataError):
        KeypointRetargeter().fit(good[:99])
    robot = layout_corpus("robot", 60, seed=0)
    with pytest.raises(WrongEmbodimentError):
        KeypointRetargeter().fit(robot)
    full_hand = [data.KeypointSet2D(np.zeros((21, 2)), data.HUMAN, 0)] * 120
    with pytest.raises(WrongDimensionError):
        KeypointRetargeter().fit(full_hand)
    with pytest.raises(ValueError):
        KeypointRetargeter(noise_bound=0.0).fit(good)
    with pytest.raises(ValueError):
        KeypointRetargeter(anchor_index=5).fit(good)


def test_transform_rejects_wrong_k(trained):
    est, _ = trained
    with pytest.raises(WrongDimensionError):
        est.transform(data.KeypointSet2D(np.zeros((21, 2)), data.HUMAN, 0))
    with pytest.raises(WrongDimensionError):
        est.transform_batch(np.zeros((2, 21, 2)))


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(trained, tmp_path):
    est, _ = trained
    path = tmp_path / "retargeter.ckpt"
    est.save(path)
    loaded = KeypointRetargeter.load(path)
    assert loaded.get_params() == est.get_params()
    pts = np.stack([f.points for f in layout_corpus("robot", 20, seed=3)])
    assert np.array_equal(loaded.transform_batch(pts), est.transform_batch(pts))
    arr = next(iter(loaded._params.values()))
    with pytest.raises(ValueError):
        arr[...] = 0.0


def test_save_before_fit_raises(tmp_path):
    with pytest.raises(NotFittedError):
        KeypointRetargeter().save(tmp_path / "nothing.ckpt")


def test_load_rejects_other_checkpoint_kinds(trained, tmp_path):
    est, _ = trained
    path = tmp_path / "mislabeled.ckpt"
    from trackpolicy.nn import save_checkpoint

    save_checkpoint(path, "encoder", {}, est._params)
    with pytest.raises(SchemaMismatchError):
        KeypointRetargeter.load(path)
