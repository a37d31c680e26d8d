"""Containers, hand subsetting (through `data.chunk`), chunking,
normalization, and dataset IO. A demonstration is stacked arrays, checked
once and read-only, with its per-frame records derived from them and a view
numbered by its index; the bytes of a fixed dataset file are pinned."""

import hashlib

import numpy as np
import pytest

from trackpolicy import data, nn, policy, sim
from trackpolicy.errors import EmptyDemoError, MissingArtifactError, SchemaMismatchError
from trackpolicy.geometry import CameraIntrinsics


R = sim.RASTER_SIZE


def blank(length=0, n_views=2, k=5):
    """(images, keypoints, grasps) of a demo with blank images, keypoints at
    the origin and an open grasp throughout."""
    return (np.zeros((length, n_views, 3, R, R)), np.zeros((length, n_views, k, 2)),
            np.zeros((length, n_views), dtype=int))


def with_nan(arr):
    """A copy of arr with a NaN in its first cell."""
    arr = np.array(arr)
    arr.flat[0] = np.nan
    return arr


def synthetic_demo(length=20, n_views=2, moving=True, embodiment=data.ROBOT):
    """Hand-built demo with linear keypoint motion and no simulator."""
    k = 5 if embodiment == data.ROBOT else 21
    t = np.arange(length)[:, None, None, None]
    v = np.arange(n_views)[None, :, None, None]
    points = np.full((1, 1, k, 2), 40.0) + 2.0 * v
    points = points + (np.array([1.5, -0.8]) if moving else np.zeros(2)) * t
    points = points + np.arange(k)[:, None]  # keep points distinct
    images = np.zeros((length, n_views, 3, R, R))
    ts, vs = np.meshgrid(np.arange(length), np.arange(n_views), indexing="ij")
    images[ts, vs, 0, ts % 16, vs] = 1.0
    grasps = (ts >= length // 2).astype(int)
    return data.Demonstration(embodiment, images, points, grasps, "push_right", 3,
                              sim.default_cameras()[:n_views])


def human_demo(points):
    """A human demo whose frame t, view v shows pixel keypoints points[t, v]."""
    images, _, grasps = blank(*points.shape[:2])
    return data.Demonstration(data.HUMAN, images, points, grasps, "push_right", 0,
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
    track = np.array([data.normalize_keypoints(demo.keypoints[t, 0], demo.cameras[0][0])
                      for t in range(demo.length)])
    for t in (0, 3, demo.length - 1):
        # view-0 rows come first, ordered by t
        assert np.array_equal(rows.images[t], demo.images[t, 0].reshape(-1))
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
    with pytest.raises(EmptyDemoError):
        data.chunk(synthetic_demo(length=0), horizon=4)


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
    for name in ("images", "keypoints", "grasps"):
        x, y = getattr(a, name), getattr(b, name)
        if x.dtype != y.dtype or not np.array_equal(x, y):
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
    empty = data.Demonstration(data.ROBOT, *blank(), "reach", 5, sim.default_cameras())
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
    # the zero-frame demo is stored with its real raster size and k
    arrays = nn.load_checkpoint(path)[2]
    assert arrays["3/images"].shape == (0, 2, 3, R, R)
    assert arrays["3/keypoints"].shape == (0, 2, 5, 2)


# dataset file bytes for _mixed_demos(): a robot demo with EE poses, a
# 21-point hand and a hand on reach. How a demo is built may change; the
# file it writes changes only with the layout, data._LAYOUT
DATASET_FILE_SHA256 = "6b210c6254cbfde82656e0b11b88f607cc9baaf57fcda9459eaef4f7fcf03e68"


def test_dataset_file_bytes_are_pinned(tmp_path):
    path = tmp_path / "demos.ckpt"
    data.save_dataset(_mixed_demos(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DATASET_FILE_SHA256


def test_demo_arrays_are_read_only_and_frames_agree_with_them():
    demo = sim.scripted_demo(sim.make_task("push_right"), sim.human_embodiment(), 1)
    for arr, dtype in ((demo.images, np.float64), (demo.keypoints, np.float64),
                       (demo.grasps, np.int64)):
        assert arr.dtype == dtype and not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    assert len(demo.frames) == demo.length and demo.frames is demo.frames
    for t, views in enumerate(demo.frames):
        assert len(views) == demo.n_views
        for v, fv in enumerate(views):
            # plain records of the demo's own values, numbered by view index
            assert fv.keypoints.view_id == v
            assert fv.image.tobytes() == demo.images[t, v].tobytes()
            assert fv.keypoints.points.tobytes() == demo.keypoints[t, v].tobytes()
            assert fv.grasp == demo.grasps[t, v] and type(fv.grasp) is np.int64
    # float64 arrays are frozen in place, not copied; grasps become ints
    images, keypoints, grasps = blank(3)
    built = data.Demonstration(data.ROBOT, images, keypoints, grasps * 1.0, "reach", 0,
                               sim.default_cameras())
    assert built.images is images and built.keypoints is keypoints
    assert not images.flags.writeable and built.grasps.dtype == np.int64


def test_demo_rejects_arrays_of_disagreeing_shapes_or_keypoint_counts():
    # chunk and save_dataset slice and write the arrays as they are, so a
    # ragged or mislabelled demo is refused when it is built
    images, keypoints, grasps = blank(3)
    cams = sim.default_cameras()
    shapes = r"\(T, V\) for V = 2 cameras; got"
    for embodiment, arrays, cameras, message in (
            (data.ROBOT, (images[:2], keypoints, grasps), cams, shapes),
            (data.ROBOT, (images, keypoints[:, :1], grasps), cams, shapes),
            (data.ROBOT, (images, keypoints, grasps[:, 0]), cams, shapes),
            (data.ROBOT, (images[:, :, 0], keypoints, grasps), cams, shapes),
            (data.ROBOT, (images, np.zeros((3, 2, 5, 3)), grasps), cams, shapes),
            (data.ROBOT, (images, keypoints[..., 0], grasps), cams, shapes),
            (data.ROBOT, blank(3), cams[:1], r"\(T, V\) for V = 1 cameras; got"),
            (data.ROBOT, blank(3, k=21), cams, "robot keypoint sets have 5 points, got 21"),
            (data.HUMAN, blank(3, k=7), cams,
             r"human keypoint sets have 21 \(full\) or 5 \(subset\) points, got 7"),
            (data.HUMAN, blank(3, k=0), cams, "human keypoint sets .* got 0"),
            ("alien", blank(3), cams, "unknown embodiment 'alien'"),
            (data.ROBOT, (with_nan(images), keypoints, grasps), cams, "images must be finite"),
            (data.ROBOT, (images, keypoints + np.nan, grasps), cams, "keypoints must be finite"),
            (data.ROBOT, (images, keypoints, grasps + 0.5), cams, "grasp must be 0 or 1, got 0.5"),
            (data.ROBOT, (images, keypoints, grasps - 1), cams, "grasp must be 0 or 1, got -1")):
        with pytest.raises(ValueError, match=message):
            data.Demonstration(embodiment, *arrays, "reach", 0, cameras)
    with pytest.raises(ValueError, match="ee_poses length must match frame count"):
        data.Demonstration(data.ROBOT, *blank(3), "reach", 0, cams, (sim.HOME_POSE,) * 2)


def test_demo_rejects_a_non_string_task_or_a_non_integer_seed(tmp_path):
    # save_dataset writes both to the file's meta, the seed as the plain int
    # the demo stores; a seed sim.reset would reject is rejected here too
    cams = sim.default_cameras()
    for task in (3, None):
        with pytest.raises(ValueError, match="task must be a string"):
            data.Demonstration(data.ROBOT, *blank(), task, 0, cams)
    for seed in (1.5, "7", True, None, np.float64(2.0), -1, np.int64(-3)):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            data.Demonstration(data.ROBOT, *blank(), "reach", seed, cams)
    assert data.Demonstration(data.ROBOT, *blank(), "reach", 0, cams).seed == 0
    demo = data.Demonstration(data.ROBOT, *blank(), "reach", np.int64(7), cams)
    assert type(demo.seed) is int
    data.save_dataset([demo], tmp_path / "demos.ckpt")
    assert data.load_dataset(tmp_path / "demos.ckpt")[0].seed == 7


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
    # the stored arrays reach the demo constructor as they are, grasps as
    # floats
    ("half grasp", None, lambda a: {**a, "0/grasps": a["0/grasps"] * 0.5},
     "demo 0: grasp must be 0 or 1"),
    ("grasp of 2", None, lambda a: {**a, "1/grasps": a["1/grasps"] + 2.0},
     "demo 1: grasp must be 0 or 1"),
    ("hand with 7 keypoints", None, lambda a: {**a, "1/keypoints": a["1/keypoints"][:, :, :7]},
     r"demo 1: human keypoint sets have 21 \(full\) or 5 \(subset\) points, got 7"),
    ("image with a NaN", None, lambda a: {**a, "1/images": with_nan(a["1/images"])},
     "demo 1: images must be finite"),
    # a zero-frame demo as files once stored it: (3, 0, 0) rasters, k = 0
    ("old zero-frame layout", None, lambda a: {**a, **{
        f"0/{name}": np.zeros(shape) for name, shape in (
            ("images", (0, 2, 3, 0, 0)), ("keypoints", (0, 2, 0, 2)), ("grasps", (0, 2)),
            ("ee_rotations", (0, 3, 3)), ("ee_translations", (0, 3)))}},
     "demo 0: robot keypoint sets have 5 points, got 0"),
    # a file in the older layout, which also stored each view's index as
    # i/view_ids (T, V), is refused
    ("older layout with view ids", None, lambda a: {**a, **{
        f"{i}/view_ids": np.zeros(a[f"{i}/grasps"].shape) + np.arange(2) for i in (0, 1)}},
     r"unexpected arrays \['0/view_ids', '1/view_ids'\]"),
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
