"""Containers, hand subsetting (through `data.chunk`), chunking,
normalization, and dataset IO."""

import json

import numpy as np
import pytest

from trackpolicy import data, sim
from trackpolicy.errors import (
    DatasetCorruptError,
    EmptyDemoError,
    SchemaMismatchError,
)
from trackpolicy.geometry import CameraIntrinsics


def synthetic_demo(length=20, n_views=2, moving=True, embodiment=data.ROBOT):
    """Hand-built demo with linear keypoint motion and no simulator."""
    cameras = sim.default_cameras()[:n_views]
    emb_k = 5 if embodiment == data.ROBOT else 21
    frames = []
    for t in range(length):
        views = []
        for v in range(n_views):
            base = np.full((emb_k, 2), 40.0) + 2.0 * v
            pts = base + (np.array([1.5, -0.8]) * t if moving else 0.0)
            img = np.zeros((3, sim.RASTER_SIZE, sim.RASTER_SIZE))
            img[0, t % 16, v] = 1.0
            pts = pts + np.arange(emb_k)[:, None]  # keep points distinct
            views.append(data.FrameView(img, data.KeypointSet2D(pts, embodiment, v),
                                        grasp=int(t >= length // 2)))
        frames.append(tuple(views))
    return data.Demonstration(embodiment=embodiment, frames=tuple(frames),
                              task_name="push_right", seed=3, cameras=cameras)


def human_demo(points):
    """A human demo whose frame t, view v shows pixel keypoints points[t, v]."""
    img = np.zeros((3, sim.RASTER_SIZE, sim.RASTER_SIZE))
    frames = tuple(tuple(data.FrameView(img, data.KeypointSet2D(p, data.HUMAN, v), 0)
                         for v, p in enumerate(views)) for views in points)
    return data.Demonstration(data.HUMAN, frames, "push_right", 0,
                              sim.default_cameras()[:points.shape[1]])


# ---------------------------------------------------------------------------
# hand subset, as data.chunk takes it


def test_subset_copies_source_indices():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 128, size=(3, 2, 21, 2))
    rows = data.chunk(human_demo(pts), horizon=2)
    assert rows.keypoints.shape == (6, 5, 2)
    for v, (intr, _) in enumerate(sim.default_cameras()):
        for t in range(3):
            want = data.normalize_keypoints(pts[t, v, list(data.HAND_SUBSET_INDICES)], intr)
            assert np.array_equal(rows.keypoints[3 * v + t], want)


def test_subset_constant_points():
    rows = data.chunk(human_demo(np.full((2, 2, 21, 2), 10.0)), horizon=1)
    want = data.normalize_keypoints(np.full((5, 2), 10.0), sim.default_cameras()[0][0])
    assert np.array_equal(rows.keypoints, np.broadcast_to(want, (4, 5, 2)))


def test_subset_region_structure():
    # wrist=0 is one point; thumb occupies 1..4 and contributes 2 (base, tip);
    # the index finger occupies 5..8 and contributes 2
    idx = data.HAND_SUBSET_INDICES
    regions = {"wrist": [i for i in idx if i == 0],
               "thumb": [i for i in idx if 1 <= i <= 4],
               "index": [i for i in idx if 5 <= i <= 8]}
    assert len(regions["wrist"]) == 1
    assert len(regions["thumb"]) == 2
    assert len(regions["index"]) == 2
    assert sum(map(len, regions.values())) == 5


def test_subset_idempotent():
    # a human demo already cut to the 5-point subset chunks like its source
    rng = np.random.default_rng(1)
    full = rng.uniform(0, 128, size=(4, 2, 21, 2))
    once = data.chunk(human_demo(full), horizon=3)
    twice = data.chunk(human_demo(full[:, :, list(data.HAND_SUBSET_INDICES)]), horizon=3)
    assert np.array_equal(once.keypoints, twice.keypoints)
    assert np.array_equal(once.targets, twice.targets)


# ---------------------------------------------------------------------------
# normalization


def test_normalization_round_trip_and_range():
    intr = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=48.0, width=128, height=96)
    rng = np.random.default_rng(2)
    pts = rng.uniform((0, 0), (128, 96), size=(50, 2))
    normed = data.normalize_keypoints(pts, intr)
    assert np.array_equal(normed, (pts - (64.0, 48.0)) / (64.0, 48.0))
    assert np.all(normed >= -1) and np.all(normed <= 1)
    assert np.max(np.abs(data.denormalize_keypoints(normed, intr) - pts)) < 1e-12


# ---------------------------------------------------------------------------
# chunking


def steps(rows, horizon):
    """(offsets (n, H, 5, 2), grasps (n, H)) unpacked from the flat targets."""
    per_step = rows.targets.reshape(len(rows), horizon, -1)
    return per_step[..., :-1].reshape(len(rows), horizon, 5, 2), per_step[..., -1]


def test_chunk_count():
    rows = data.chunk(synthetic_demo(length=20, n_views=2), horizon=16)
    assert len(rows) == 40 and rows.n_human == 0
    assert rows.images.shape == (40, 3 * sim.RASTER_SIZE ** 2)
    human = data.chunk(synthetic_demo(length=20, embodiment=data.HUMAN), horizon=16)
    assert len(human) == human.n_human == 40


def test_chunk_static_demo_zero_offsets():
    for embodiment in (data.ROBOT, data.HUMAN):
        demo = synthetic_demo(moving=False, embodiment=embodiment)
        rows = data.chunk(demo, horizon=16)
        assert np.all(steps(rows, 16)[0] == 0)
        assert rows.keypoints.shape == (len(rows), 5, 2)


def test_chunk_edge_padding_constant_tail():
    demo = synthetic_demo(length=10, n_views=1)
    h = 16
    offsets, grasps = steps(data.chunk(demo, horizon=h), h)
    t = 7  # tail beyond the final frame must repeat it
    pad_from = demo.length - 1 - (t + 1)  # offsets index where idx hits last frame
    tail = offsets[t, pad_from:]
    assert np.allclose(tail, tail[0])
    assert np.allclose(grasps[t, pad_from:], grasps[t, pad_from])


def test_chunk_offsets_reconstruct_future():
    demo = sim.scripted_demo(sim.make_task("push_right"), sim.robot_embodiment(), 0)
    h = 16
    rows = data.chunk(demo, horizon=h)
    offsets, _ = steps(rows, h)
    track = np.array([data.normalize_keypoints(demo.frames[t][0].keypoints.points,
                                               demo.cameras[0][0])
                      for t in range(demo.length)])
    for t in (0, 3, demo.length - 1):
        # view-0 rows come first, ordered by t
        assert np.array_equal(rows.images[t], demo.frames[t][0].image.reshape(-1))
        for hh in range(h):
            idx = min(t + 1 + hh, demo.length - 1)
            assert np.max(np.abs(rows.keypoints[t] + offsets[t, hh] - track[idx])) < 1e-12
    assert len(rows) == 2 * demo.length


def test_chunk_flat_target_length_and_grasp_encoding():
    demo = synthetic_demo(length=12)
    rows = data.chunk(demo, horizon=16)
    assert rows.targets.shape == (24, 176)
    # per-step layout: 10 offset values then the grasp as +/-1
    assert np.all(np.isin(rows.targets[:, 10::11], (-1.0, 1.0)))
    assert rows.targets[0, 10] == -1.0 and rows.targets[11, 10] == 1.0


def test_chunk_empty_demo_raises():
    demo = synthetic_demo(length=1)
    object.__setattr__(demo, "frames", ())
    with pytest.raises(EmptyDemoError):
        data.chunk(demo, horizon=4)


# ---------------------------------------------------------------------------
# serialization


def _mixed_demos():
    task = sim.make_task("push_right")
    return [
        sim.scripted_demo(task, sim.robot_embodiment(), 0),
        sim.scripted_demo(task, sim.human_embodiment(), 1),
        sim.scripted_demo(sim.make_task("reach"), sim.human_embodiment(), 2),
    ]


def demos_equal(a, b) -> bool:
    if (a.embodiment != b.embodiment or a.task_name != b.task_name
            or a.seed != b.seed or a.length != b.length or a.n_views != b.n_views):
        return False
    for (ia, pa), (ib, pb) in zip(a.cameras, b.cameras):
        if (ia != ib or not np.array_equal(pa.rotation, pb.rotation)
                or not np.array_equal(pa.translation, pb.translation)):
            return False
    for fa, fb in zip(a.frames, b.frames):
        for va, vb in zip(fa, fb):
            if not (np.array_equal(va.image, vb.image)
                    and np.array_equal(va.keypoints.points, vb.keypoints.points)
                    and va.grasp == vb.grasp
                    and va.keypoints.view_id == vb.keypoints.view_id):
                return False
    if len(a.ee_poses) != len(b.ee_poses):
        return False
    for pa, pb in zip(a.ee_poses, b.ee_poses):
        if not (np.array_equal(pa.rotation, pb.rotation)
                and np.array_equal(pa.translation, pb.translation)):
            return False
    return True


def test_save_load_round_trip(tmp_path):
    demos = _mixed_demos()
    path = tmp_path / "demos.jsonl"
    data.save_dataset(demos, path)
    loaded = data.load_dataset(path)
    assert len(loaded) == len(demos)
    for d1, d2 in zip(demos, loaded):
        assert demos_equal(d1, d2)
    counts = {e: sum(d.embodiment == e for d in loaded) for e in data.EMBODIMENTS}
    assert counts == {"human": 2, "robot": 1}


def test_demo_rejects_frames_of_differing_keypoint_counts_or_image_shapes(tmp_path):
    # a hand demo whose frame 0 holds the 5-point subset and whose later
    # frames hold all 21 points would stack into a ragged array in chunk
    pts = np.random.default_rng(4).uniform(0, 128, size=(3, 2, 21, 2))
    demo = human_demo(pts)
    subset = [data.FrameView(fv.image, data.KeypointSet2D(
        fv.keypoints.points[list(data.HAND_SUBSET_INDICES)], data.HUMAN, v), 0)
        for v, fv in enumerate(demo.frames[0])]
    with pytest.raises(ValueError, match="frame 1 view 0 has 21 keypoints"):
        data.Demonstration(data.HUMAN, (tuple(subset),) + demo.frames[1:],
                           "push_right", 0, demo.cameras)
    wide = data.FrameView(np.zeros((3, 8, 8)), demo.frames[2][1].keypoints, 0)
    with pytest.raises(ValueError, match="frame 2 view 1 .* image"):
        data.Demonstration(data.HUMAN, demo.frames[:2] + ((demo.frames[2][0], wide),),
                           "push_right", 0, demo.cameras)
    # the same subset frame 0 written into a saved file fails on load
    path = tmp_path / "demos.jsonl"
    data.save_dataset([demo], path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    for view, fv in zip(rec["frame"]["views"], subset):
        view["keypoints"] = fv.keypoints.points.tolist()
    lines[2] = data._dump(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="frame 1 view 0 has 21 keypoints"):
        data.load_dataset(path)


def reference_encode_image(img):
    """Per-pixel sparse image encoder, the layout the dataset files use."""
    c, i, j = np.nonzero(img)
    return {"shape": list(img.shape),
            "nz": [[int(a), int(b), int(d), float(img[a, b, d])]
                   for a, b, d in zip(c, i, j)]}


def test_image_codec_matches_the_per_pixel_reference():
    images = [fv.image for d in _mixed_demos() for views in d.frames for fv in views]
    images.append(np.zeros((3, sim.RASTER_SIZE, sim.RASTER_SIZE)))
    for img in images:
        rec = data._encode_image(img)
        ref = reference_encode_image(img)
        assert data._dump(rec) == data._dump(ref)
        assert data._decode_image(json.loads(data._dump(rec))).tobytes() == img.tobytes()
    assert sum(len(data._encode_image(img)["nz"]) for img in images) > 100
    with pytest.raises(ValueError):
        data._decode_image({"shape": [3, 2, 2], "nz": [[0, 1, 1, 0.5], [0, 1, 0.5]]})


def test_truncated_file_reports_line(tmp_path):
    demos = _mixed_demos()[:1]
    path = tmp_path / "demos.jsonl"
    data.save_dataset(demos, path)
    lines = path.read_text().splitlines()
    truncated = tmp_path / "trunc.jsonl"
    truncated.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(DatasetCorruptError) as exc:
        data.load_dataset(truncated)
    assert exc.value.line_number == len(lines) - 1


def test_corrupt_line_reports_line(tmp_path):
    demos = _mixed_demos()[:1]
    path = tmp_path / "demos.jsonl"
    data.save_dataset(demos, path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3][: len(lines[3]) // 2]  # chop a frame record in half
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetCorruptError) as exc:
        data.load_dataset(bad)
    assert exc.value.line_number == 4


def test_version_mismatch(tmp_path):
    path = tmp_path / "demos.jsonl"
    path.write_text('{"schema":"trackpolicy-demos","version":99,"count":0}\n')
    with pytest.raises(SchemaMismatchError):
        data.load_dataset(path)


def test_unknown_schema(tmp_path):
    path = tmp_path / "demos.jsonl"
    path.write_text('{"schema":"something-else","version":1,"count":0}\n')
    with pytest.raises(SchemaMismatchError):
        data.load_dataset(path)
