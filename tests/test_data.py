"""Containers, hand subsetting (through `data.chunk`), chunking,
normalization, and dataset IO."""

import numpy as np
import pytest

from trackpolicy import data, nn, policy, sim
from trackpolicy.errors import EmptyDemoError, MissingArtifactError, SchemaMismatchError
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


@pytest.mark.parametrize("horizon", [2.5, True, False, 0, -1, np.float64(4.0), "4", None])
def test_chunk_rejects_a_horizon_that_is_not_an_integer_at_least_1(horizon):
    # 2.5 failed in numpy indexing and True with numpy's TypeError
    with pytest.raises(ValueError, match="horizon must be an integer >= 1, got "):
        data.chunk(synthetic_demo(length=4), horizon)


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
    # a zero-frame demo round-trips too, its arrays holding no rows
    empty = data.Demonstration(data.ROBOT, (), "reach", 5, sim.default_cameras())
    demos = _mixed_demos() + [empty]
    path = tmp_path / "demos.ckpt"
    data.save_dataset(demos, path)
    loaded = data.load_dataset(path)
    assert len(loaded) == len(demos)
    for d1, d2 in zip(demos, loaded):
        assert demos_equal(d1, d2)
    counts = {e: sum(d.embodiment == e for d in loaded) for e in data.EMBODIMENTS}
    assert counts == {"human": 2, "robot": 2}
    again = tmp_path / "again.ckpt"
    data.save_dataset(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_demo_rejects_frames_of_differing_keypoint_counts_or_image_shapes():
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


def test_demo_rejects_a_non_string_task_or_a_non_integer_seed(tmp_path):
    # save_dataset writes both to the file's meta, the seed as the plain int
    # the demo stores; a seed sim.reset would reject is rejected here too
    cams = sim.default_cameras()
    for task in (3, None):
        with pytest.raises(ValueError, match="task must be a string"):
            data.Demonstration(data.ROBOT, (), task, 0, cams)
    for seed in (1.5, "7", True, None, np.float64(2.0), -1, np.int64(-3)):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            data.Demonstration(data.ROBOT, (), "reach", seed, cams)
    assert data.Demonstration(data.ROBOT, (), "reach", 0, cams).seed == 0
    demo = data.Demonstration(data.ROBOT, (), "reach", np.int64(7), cams)
    assert type(demo.seed) is int
    data.save_dataset([demo], tmp_path / "demos.ckpt")
    assert data.load_dataset(tmp_path / "demos.ckpt")[0].seed == 7


def test_frame_view_rejects_a_grasp_outside_0_and_1():
    # the constructor accepts exactly what load_dataset accepts
    kps = data.KeypointSet2D(np.zeros((5, 2)), data.ROBOT)
    img = np.zeros((3, 4, 4))
    for bad in (0.7, 2, -1, np.nan, "1"):
        with pytest.raises(ValueError, match="grasp must be 0 or 1"):
            data.FrameView(img, kps, bad)
    for good in (0, 1, 1.0, True, np.int64(0), np.float64(1.0)):
        fv = data.FrameView(img, kps, good)
        assert fv.grasp == good and type(fv.grasp) is int


def test_keypoint_set_rejects_a_non_integer_view_id():
    # the package's one integer rule: no bool, no float (even 1.0), >= 0
    pts = np.zeros((5, 2))
    for bad in (0.7, np.nan, np.inf, "1", None, True, False, -3, np.int64(-1), 1.0,
                np.float64(1.0)):
        with pytest.raises(ValueError, match="view_id must be an integer >= 0"):
            data.KeypointSet2D(pts, data.ROBOT, bad)
    for good in (0, 3, np.int64(2), np.uint8(1)):
        kps = data.KeypointSet2D(pts, data.ROBOT, good)
        assert kps.view_id == good and type(kps.view_id) is int


@pytest.fixture
def saved(tmp_path):
    """A saved robot demo (with EE poses) followed by a human one."""
    path = tmp_path / "demos.ckpt"
    data.save_dataset(_mixed_demos()[:2], path)
    return path


def test_missing_file_raises_missing_artifact(tmp_path):
    path = tmp_path / "absent.ckpt"
    for load in (data.load_dataset, policy.load_policy):
        with pytest.raises(MissingArtifactError, match="checkpoint not found") as info:
            load(path)
        assert info.value.artifact == str(path)


def test_truncated_file_raises_schema_mismatch(saved, tmp_path):
    raw = saved.read_bytes()
    for size in (10, 40, len(raw) // 2, len(raw) - 8):
        cut = tmp_path / f"cut{size}.ckpt"
        cut.write_bytes(raw[:size])
        with pytest.raises(SchemaMismatchError):
            data.load_dataset(cut)


def test_corrupt_header_or_trailing_bytes_raise_schema_mismatch(saved, tmp_path):
    raw = saved.read_bytes()
    for name, bad in (("magic", b"X" + raw[1:]), ("header", raw[:21] + b"\xff" + raw[22:]),
                      ("trailing", raw + b"\0" * 8)):
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(bad)
        with pytest.raises(SchemaMismatchError):
            data.load_dataset(path)


def test_version_mismatch(saved):
    raw = saved.read_bytes()
    saved.write_bytes(raw[:8] + (99).to_bytes(4, "little") + raw[12:])
    with pytest.raises(SchemaMismatchError, match="version 99"):
        data.load_dataset(saved)


def test_unknown_schema(saved, tmp_path):
    # a policy checkpoint is not a dataset, and a dataset is not a policy
    path = tmp_path / "policy.ckpt"
    cfg = policy.TrainConfig(embed_dim=4, encoder_hidden=(4,), denoiser_hidden=(4,),
                             disc_hidden=(4,))
    policy.save_policy(path, policy.build_model(cfg, image_dim=12))
    with pytest.raises(SchemaMismatchError, match="'trackpolicy-demos'"):
        data.load_dataset(path)
    with pytest.raises(SchemaMismatchError, match="'track-policy'"):
        policy.load_policy(saved)


def _drop(rec, key):
    return {k: v for k, v in rec.items() if k != key}


# (what the rewrite does, meta edit, array edit, message); demo 0 is the
# robot demo, demo 1 the human one
MALFORMED = [
    ("no demo list", lambda m: {}, None, "dataset meta needs a 'demos' list"),
    ("demos not a list", lambda m: {"demos": 2}, None, "dataset meta needs a 'demos' list"),
    ("no seed", lambda m: {"demos": [_drop(m["demos"][0], "seed"), m["demos"][1]]}, None,
     r"demo 0 lacks \['seed'\]"),
    ("no fx", lambda m: {"demos": [m["demos"][0], {**m["demos"][1], "intrinsics": [
        _drop(m["demos"][1]["intrinsics"][0], "fx"), m["demos"][1]["intrinsics"][1]]}]},
     None, r"demo 1 intrinsics lacks \['fx'\]"),
    ("one view's intrinsics", lambda m: {"demos": [
        {**m["demos"][0], "intrinsics": m["demos"][0]["intrinsics"][:1]}, m["demos"][1]]},
     None, "one intrinsics record per view"),
    ("no grasps", None, lambda a: _drop(a, "1/grasps"), r"missing arrays \['1/grasps'\]"),
    ("extra array", None, lambda a: {**a, "2/images": np.zeros(1)},
     r"unexpected arrays \['2/images'\]"),
    ("flat images", None, lambda a: {**a, "0/images": a["0/images"].reshape(-1)},
     r"images has shape \(\d+,\), expected dims TVCHW"),
    ("short keypoints", None, lambda a: {**a, "1/keypoints": a["1/keypoints"][:-1]},
     r"keypoints has shape \(\d+, 2, 21, 2\), expected dims TVk2 with \{'T': \d+, 'V': 2"),
    ("extra camera", None,
     lambda a: {**a, "0/camera_rotations": np.concatenate([a["0/camera_rotations"]] * 2)},
     r"camera_rotations has shape \(4, 3, 3\), expected dims V33 with \{.*'V': 2"),
    ("short EE translations", None,
     lambda a: {**a, "0/ee_translations": a["0/ee_translations"][1:]},
     r"ee_translations has shape \(\d+, 3\), expected dims E3"),
    ("EE translations only", None,
     lambda a: {**a, "0/ee_rotations": np.zeros((0, 3, 3))},
     r"ee_translations has shape \(\d+, 3\), expected dims E3 with \{.*'E': 0"),
    ("EE poses for half the frames", None,
     lambda a: {**a, "0/ee_rotations": a["0/ee_rotations"][::2],
                "0/ee_translations": a["0/ee_translations"][::2]}, r"\d+ EE poses for \d+ frames"),
    # the stored floats are checked before any cast, so a view id of 1.5 is
    # not read as 1; grasps reach their constructor as floats
    ("half grasp", None, lambda a: {**a, "0/grasps": a["0/grasps"] * 0.5},
     "demo 0: grasp must be 0 or 1"),
    ("grasp of 2", None, lambda a: {**a, "1/grasps": a["1/grasps"] + 2.0},
     "demo 1: grasp must be 0 or 1"),
    ("fractional view id", None, lambda a: {**a, "1/view_ids": a["1/view_ids"] + 0.5},
     "demo 1: view_id must be an integer"),
    ("NaN view id", None, lambda a: {**a, "0/view_ids": a["0/view_ids"] * np.nan},
     "demo 0: view_id must be an integer"),
    ("infinite view id", None, lambda a: {**a, "0/view_ids": a["0/view_ids"] - np.inf},
     "demo 0: view_id must be an integer"),
    ("huge view id", None, lambda a: {**a, "1/view_ids": a["1/view_ids"] + 1e300},
     "demo 1: view_id must be an integer"),
    ("negative view id", None, lambda a: {**a, "1/view_ids": a["1/view_ids"] - 2.0},
     "demo 1: view_id must be an integer >= 0"),
    *[(f"fx of {value!r}", lambda m, value=value: {"demos": [m["demos"][0], {
        **m["demos"][1], "intrinsics": [{**m["demos"][1]["intrinsics"][0], "fx": value},
                                        m["demos"][1]["intrinsics"][1]]}]}, None, message)
      for value, message in (("abc", "demo 1: fx must be a real number"),
                             (None, "demo 1: fx must be a real number"),
                             ([1], "demo 1: fx must be a real number"),
                             (True, "demo 1: fx must be a real number"),
                             (float("nan"), "demo 1: focal lengths must be finite and positive"),
                             (float("inf"), "demo 1: focal lengths must be finite and positive"),
                             (0.0, "demo 1: focal lengths must be finite and positive"))],
    ("unknown embodiment", lambda m: {"demos": [{**m["demos"][0], "embodiment": "alien"},
                                                m["demos"][1]]}, None,
     "demo 0: unknown embodiment 'alien'"),
    ("task not a string", lambda m: {"demos": [m["demos"][0], {**m["demos"][1], "task": 3}]},
     None, "demo 1: task must be a string"),
    *[(f"seed of {value!r}", lambda m, value=value: {"demos": [
        {**m["demos"][0], "seed": value}, m["demos"][1]]}, None,
       "demo 0: seed must be an integer >= 0")
      for value in (1.5, "7", True, None, -1)],
]


@pytest.mark.parametrize("edit_meta, edit_arrays, message",
                         [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED])
def test_load_dataset_rejects_malformed_meta_and_arrays(saved, edit_meta, edit_arrays, message):
    kind, meta, arrays = nn.load_checkpoint(saved)
    nn.save_checkpoint(saved, kind, edit_meta(meta) if edit_meta else meta,
                       edit_arrays(arrays) if edit_arrays else arrays)
    with pytest.raises(SchemaMismatchError, match=message):
        data.load_dataset(saved)
