"""Demonstration containers, pixel normalization, horizon chunking, and
dataset files (one `nn.checkpoint` file per dataset).

Demonstrations: a `Demonstration` is stacked (T, V, ...) arrays, the ones
`sim.scripted_demo` renders, `save_dataset` writes, `load_dataset` reads
back and `chunk` slices. A camera view is its index v on the V axis, the
same index as in the demo's cameras. Its per-(t, v) `frames` are plain
records (`FrameView`, `KeypointSet2D`) of views into those arrays, derived
on demand and not checked again.

Normalization: `normalize_keypoints` maps a camera's pixel keypoints to
(p - c) / c, with c half its image size, so in-image points land in
[-1, 1]; `denormalize_keypoints` is its inverse, p * c + c. Both take plain
(..., 2) arrays.

Training rows: `chunk` turns a demo into one `TrainingRows` value, one row
per (view, t), view-major (all of view 0 in time order, then view 1). Each
view's keypoints over time are cut to the 5-point hand subset for 21-point
hands and normalized in one call. A track target holds H steps of
2k+1 values: the 2k normalized offsets from the row's keypoints to the
keypoints at t+h+1 (the last frame past the end), then the grasp as +/-1;
176 values for k=5, H=16. The 6DoF baseline's rows
(`inference.baseline_samples`) keep view 0 only, with 7 values per step.
`policy.train` joins every demo's rows into one human-first pool and fits
the retargeter on that pool's human keypoints.

Keypoint ordering convention (index -> role), shared across embodiments so a
single policy can condition on either source:

    0  center (robot) / wrist (human subset)     <- retargeting anchor
    1  left finger base  / thumb base
    2  left finger tip   / thumb tip
    3  right finger base / index base
    4  right finger tip  / index tip

The full 21-point hand stores the wrist at 0 followed by five fingers
(thumb, index, middle, ring, pinky) with four points each in base-to-tip
order, so the gripper-equivalent subset is indices (0, 2, 4, 6, 8).
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import (EmptyDemoError, MixedShapesError, SchemaMismatchError, check_int,
                     has_nonfinite)
from .geometry import CameraIntrinsics, RigidTransform
from .nn import check_array_names, check_keys, load_checkpoint, save_checkpoint

HUMAN = "human"
ROBOT = "robot"
EMBODIMENTS = (HUMAN, ROBOT)

# wrist, thumb base, thumb tip, index base, index tip within the 21-point hand
HAND_SUBSET_INDICES = (0, 2, 4, 6, 8)

N_TRACK_KEYPOINTS = 5


class KeypointSet2D(NamedTuple):
    """One view's (k, 2) pixel keypoints and that view's index."""

    points: np.ndarray
    view_id: int


class FrameView(NamedTuple):
    """One camera's (C, R, R) feature image, keypoints and 0/1 grasp at one
    timestep; built only by `Demonstration.frames`, from checked arrays."""

    image: np.ndarray
    keypoints: KeypointSet2D
    grasp: np.int64


@dataclass(frozen=True, eq=False)
class Demonstration:
    """A full episode as arrays over time t and camera view v: images
    (T, V, C, R, R) and pixel keypoints (T, V, k, 2), float64, and grasps
    (T, V) of 0 or 1, stored as ints, with V = len(cameras); a view is its
    index v. Checked once (shapes agree, images and keypoints finite, k fits
    the embodiment, 0 or T EE poses) and made read-only in place, not
    copied. The task name is a string and the seed an integer >= 0, not a
    bool (the seed `sim.reset` built the episode from), stored as a plain
    int, as the file's meta records them.
    """

    embodiment: str
    images: np.ndarray
    keypoints: np.ndarray
    grasps: np.ndarray
    task_name: str
    seed: int
    cameras: tuple  # one (CameraIntrinsics, RigidTransform world->camera) per view
    ee_poses: tuple = ()  # optional, one RigidTransform per frame

    def __post_init__(self):
        object.__setattr__(self, "cameras", tuple(self.cameras))
        object.__setattr__(self, "ee_poses", tuple(self.ee_poses))
        # save_dataset writes both to the file's meta
        if not isinstance(self.task_name, str):
            raise ValueError(f"task must be a string, got {self.task_name!r}")
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0))
        images = np.asarray(self.images, dtype=np.float64)
        keypoints = np.asarray(self.keypoints, dtype=np.float64)
        grasps = np.asarray(self.grasps)
        tv = images.shape[:1] + (self.n_views,)
        if (images.ndim, images.shape[:2], keypoints.shape[:2] + keypoints.shape[3:],
                grasps.shape) != (5, tv, tv + (2,), tv) or keypoints.ndim != 4:
            raise ValueError(
                f"images, keypoints and grasps must be (T, V, C, R, R), (T, V, k, 2) and "
                f"(T, V) for V = {self.n_views} cameras; got {images.shape}, "
                f"{keypoints.shape} and {grasps.shape}")
        if has_nonfinite(images):
            raise ValueError("images must be finite")
        if has_nonfinite(keypoints):
            raise ValueError("keypoints must be finite")
        k = keypoints.shape[2]
        if self.embodiment not in EMBODIMENTS:
            raise ValueError(f"unknown embodiment {self.embodiment!r}")
        if self.embodiment == ROBOT and k != 5:
            raise ValueError(f"robot keypoint sets have 5 points, got {k}")
        if self.embodiment == HUMAN and k not in (5, 21):
            raise ValueError(f"human keypoint sets have 21 (full) or 5 (subset) points, got {k}")
        valid = np.isin(grasps, (0, 1))
        if not valid.all():
            raise ValueError(f"grasp must be 0 or 1, got {grasps[~valid][0].item()!r}")
        if self.ee_poses and len(self.ee_poses) != tv[0]:
            raise ValueError("ee_poses length must match frame count")
        grasps = grasps.astype(np.int64)
        for name, arr in (("images", images), ("keypoints", keypoints), ("grasps", grasps)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def length(self) -> int:
        return self.images.shape[0]

    @property
    def n_views(self) -> int:
        return len(self.cameras)

    @functools.cached_property
    def frames(self) -> tuple:
        """frames[t][v]: view v at time t as a `FrameView` of views into the
        demo's arrays, with view id v, built on first use for callers that
        compare demos frame by frame."""
        return tuple(tuple(FrameView(self.images[t, v], KeypointSet2D(
            self.keypoints[t, v], v), self.grasps[t, v])
            for v in range(self.n_views)) for t in range(self.length))


@dataclass(frozen=True)
class TrainingRows:
    """Stacked supervision rows: the one format training reads.

    Row i pairs an observation (flattened feature image, normalized
    keypoints) with a flat target; the first n_human rows come from human
    demos, the rest from robot demos.
    """

    images: np.ndarray     # (n, 3*R*R)
    keypoints: np.ndarray  # (n, 5, 2), normalized
    targets: np.ndarray    # (n, d)
    n_human: int

    def __len__(self) -> int:
        return self.images.shape[0]

    @staticmethod
    def join(parts) -> "TrainingRows":
        """Every part's human rows, in part order, then every part's robot
        rows, copied once into fresh arrays. Parts whose image rows differ in
        width (demos of different raster sizes) raise MixedShapesError."""
        parts = list(parts)
        for i, part in enumerate(parts):
            if part.images.shape[1:] != parts[0].images.shape[1:]:
                raise MixedShapesError(f"part {i}: image rows {part.images.shape[1:]}, "
                                       f"expected {parts[0].images.shape[1:]}")
        return TrainingRows(*(
            np.concatenate([getattr(p, name)[:p.n_human] for p in parts]
                           + [getattr(p, name)[p.n_human:] for p in parts])
            for name in ("images", "keypoints", "targets")), sum(p.n_human for p in parts))

    def take(self, idx) -> "TrainingRows":
        """The rows at idx, human rows first, each group in idx order."""
        idx = np.asarray(idx)
        human = idx < self.n_human
        idx = np.concatenate([idx[human], idx[~human]])
        return TrainingRows(self.images[idx], self.keypoints[idx], self.targets[idx],
                            int(np.count_nonzero(human)))


def normalize_keypoints(points, intr: CameraIntrinsics) -> np.ndarray:
    """A camera's (..., 2) pixel keypoints -> normalized units, (p - c) / c
    with c half its image size. The one place the package normalizes."""
    c = np.array([intr.width / 2.0, intr.height / 2.0])
    return (np.asarray(points, dtype=np.float64) - c) / c


def denormalize_keypoints(points, intr: CameraIntrinsics) -> np.ndarray:
    """Inverse of `normalize_keypoints`: normalized (..., 2) -> pixels, p * c + c."""
    c = np.array([intr.width / 2.0, intr.height / 2.0])
    return np.asarray(points, dtype=np.float64) * c + c


def chunk(demo: Demonstration, horizon: int) -> TrainingRows:
    """One training row per (view, t), end-of-demo targets edge-padded.

    Row (v, t) holds view v's image and normalized keypoints at t; its
    target step h is the offset from those keypoints to view v's at
    min(t + 1 + h, T - 1), then the grasp there as +/-1.
    """
    if demo.length == 0:
        raise EmptyDemoError("cannot chunk an empty demonstration")
    horizon = check_int("horizon", horizon, 1)
    n_views, length = demo.n_views, demo.length
    n = n_views * length
    images = demo.images.swapaxes(0, 1).reshape(n, -1)
    grasps = demo.grasps.T.astype(np.float64)
    pts = demo.keypoints
    if pts.shape[2] != N_TRACK_KEYPOINTS:   # a 21-point hand
        # take returns C order; pts[:, :, idx] would not, slowing what follows
        pts = pts.take(HAND_SUBSET_INDICES, axis=2)
    track = np.stack([normalize_keypoints(pts[:, v], intr)
                      for v, (intr, _) in enumerate(demo.cameras)])   # (V, T, 5, 2)
    keypoints = track.reshape(n, N_TRACK_KEYPOINTS, 2)
    idx = np.minimum(np.arange(length)[:, None] + 1 + np.arange(horizon), length - 1)
    offsets = track[:, idx] - track[:, :, None]   # (V, T, H, 5, 2)
    targets = np.concatenate([offsets.reshape(n_views, length, horizon, -1),
                              (2.0 * grasps[:, idx] - 1.0)[..., None]], axis=-1)
    return TrainingRows(images, keypoints, targets.reshape(n, -1),
                        n if demo.embodiment == HUMAN else 0)


# ---------------------------------------------------------------------------
# serialization

DATASET_KIND = "trackpolicy-demos"

# demo i's arrays, stored as "i/<name>", and their dims: T frames, V views
# (view v is index v on the V axis), C x H x W feature rasters, k keypoints,
# E EE poses (0 or T)
_LAYOUT = {"images": "TVCHW", "keypoints": "TVk2", "grasps": "TV",
           "camera_rotations": "V33", "camera_translations": "V3",
           "ee_rotations": "E33", "ee_translations": "E3"}
_INTRINSICS = tuple(f.name for f in fields(CameraIntrinsics))


def save_dataset(demos, path) -> None:
    """One `nn.checkpoint` file: meta["demos"] holds each demo's embodiment,
    task, seed and per-view intrinsics; demo i's arrays are i/images
    (T, V, 3, R, R), i/keypoints (T, V, k, 2) and i/grasps (T, V), the
    world->camera i/camera_rotations (V, 3, 3) and i/camera_translations
    (V, 3), each indexed by view as the demo's cameras are, and
    i/ee_rotations (T, 3, 3) and i/ee_translations (T, 3), which have no
    rows without EE poses. Equal demos give byte-identical files."""
    meta, arrays = [], {}
    for i, demo in enumerate(demos):
        meta.append({"embodiment": demo.embodiment, "task": demo.task_name, "seed": demo.seed,
                     "intrinsics": [asdict(intr) for intr, _ in demo.cameras]})
        dims = dict(zip("TVCHW", demo.images.shape), k=demo.keypoints.shape[2],
                    E=len(demo.ee_poses))
        values = {"images": demo.images, "keypoints": demo.keypoints, "grasps": demo.grasps,
                  "camera_rotations": [pose.rotation for _, pose in demo.cameras],
                  "camera_translations": [pose.translation for _, pose in demo.cameras],
                  "ee_rotations": [p.rotation for p in demo.ee_poses],
                  "ee_translations": [p.translation for p in demo.ee_poses]}
        for name, letters in _LAYOUT.items():
            arrays[f"{i}/{name}"] = np.array(values[name], dtype=np.float64).reshape(
                [dims[c] if c.isalpha() else int(c) for c in letters])
    save_checkpoint(path, DATASET_KIND, {"demos": meta}, arrays)


def load_dataset(path) -> list:
    """Inverse of save_dataset: each demo's arrays go to the checked
    `Demonstration` constructor as they are. The wrong kind, a missing or
    malformed meta value or array (dims that disagree, a value a
    constructor rejects, such as a grasp of 0.5, a NaN image or a hand with
    7 keypoints), an array the layout does not name (such as the i/view_ids
    of older files) or a corrupt container raise SchemaMismatchError."""
    kind, meta, arrays = load_checkpoint(path)
    if kind != DATASET_KIND:
        raise SchemaMismatchError(f"{path}: expected a {DATASET_KIND!r} file, got {kind!r}")
    if not isinstance(meta.get("demos"), list):
        raise SchemaMismatchError(f"{path}: dataset meta needs a 'demos' list")
    check_array_names(arrays, [f"{i}/{name}" for i in range(len(meta["demos"]))
                               for name in _LAYOUT], f"{path}: dataset")
    demos = []
    for i, rec in enumerate(meta["demos"]):
        what = f"{path}: demo {i}"
        check_keys(rec, ("embodiment", "task", "seed", "intrinsics"), what)
        a = {name: arrays[f"{i}/{name}"] for name in _LAYOUT}
        dims = {}   # each dim letter bound by its first array
        for name, letters in _LAYOUT.items():
            shape = a[name].shape
            if len(shape) != len(letters) or any(dims.setdefault(c, d) != d if c.isalpha()
                                                 else d != int(c) for c, d in zip(letters, shape)):
                raise SchemaMismatchError(f"{what}: {name} has shape {shape}, "
                                          f"expected dims {letters} with {dims}")
        if dims["E"] not in (0, dims["T"]):
            raise SchemaMismatchError(f"{what}: {dims['E']} EE poses for {dims['T']} frames")
        intrinsics = rec["intrinsics"]
        if not isinstance(intrinsics, list) or len(intrinsics) != dims["V"]:
            raise SchemaMismatchError(f"{what}: needs one intrinsics record per view")
        for intr in intrinsics:
            check_keys(intr, _INTRINSICS, f"{what} intrinsics")
        try:
            cameras = tuple((CameraIntrinsics(**{name: intr[name] for name in _INTRINSICS}),
                             RigidTransform(r, t)) for intr, r, t in
                            zip(intrinsics, a["camera_rotations"], a["camera_translations"]))
            ee_poses = tuple(map(RigidTransform, a["ee_rotations"], a["ee_translations"]))
            demos.append(Demonstration(rec["embodiment"], a["images"], a["keypoints"],
                                       a["grasps"], rec["task"], rec["seed"], cameras, ee_poses))
        except (TypeError, ValueError) as err:
            raise SchemaMismatchError(f"{what}: {err}") from err
    return demos
