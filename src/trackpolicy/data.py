"""Demonstration containers, pixel normalization, horizon chunking, and
JSONL dataset (de)serialization.

Normalization: `normalize_keypoints` maps a camera's pixel keypoints to
(p - c) / c, with c half its image size, so in-image points land in
[-1, 1]; `denormalize_keypoints` is its inverse, p * c + c. Both take plain
(..., 2) arrays.

Training rows: `chunk` turns a demo into one `TrainingRows` value, one row
per (view, t), view-major (all of view 0 in time order, then view 1). Each
view's keypoints are stacked over time, cut to the 5-point hand subset for
21-point hands, and normalized in one call. A track target holds H steps of
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

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DatasetCorruptError,
    EmptyDemoError,
    MixedShapesError,
    SchemaMismatchError,
)
from .geometry import CameraIntrinsics, RigidTransform

HUMAN = "human"
ROBOT = "robot"
EMBODIMENTS = (HUMAN, ROBOT)

# wrist, thumb base, thumb tip, index base, index tip within the 21-point hand
HAND_SUBSET_INDICES = (0, 2, 4, 6, 8)

N_TRACK_KEYPOINTS = 5


@dataclass(frozen=True)
class KeypointSet2D:
    """Ordered 2D keypoints for one view. points: (k, 2) pixels."""

    points: np.ndarray
    embodiment: str
    view_id: int = 0

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] != 2:
            raise ValueError(f"points must be (k, 2), got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("keypoints must be finite")
        if self.embodiment not in EMBODIMENTS:
            raise ValueError(f"unknown embodiment {self.embodiment!r}")
        k = p.shape[0]
        if self.embodiment == ROBOT and k != 5:
            raise ValueError(f"robot keypoint sets have 5 points, got {k}")
        if self.embodiment == HUMAN and k not in (5, 21):
            raise ValueError(f"human keypoint sets have 21 (full) or 5 (subset) points, got {k}")
        object.__setattr__(self, "points", p.copy())

    @property
    def k(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class FrameView:
    """One camera's record at one timestep."""

    image: np.ndarray  # (3, R, R) feature raster
    keypoints: KeypointSet2D
    grasp: int

    def __post_init__(self):
        img = np.asarray(self.image, dtype=np.float64)
        if img.ndim != 3:
            raise ValueError(f"feature image must be (C, R, R), got {img.shape}")
        object.__setattr__(self, "image", img)
        object.__setattr__(self, "grasp", int(self.grasp))


@dataclass(frozen=True)
class Demonstration:
    """A full episode: frames[t][v] over time t and camera view v.

    Every frame view has frame 0's keypoint count and image shape, so the
    views stack over time.
    """

    embodiment: str
    frames: tuple  # tuple over t of tuple over views of FrameView
    task_name: str
    seed: int
    cameras: tuple  # one (CameraIntrinsics, RigidTransform world->camera) per view
    ee_poses: tuple = ()  # optional, one RigidTransform per frame

    def __post_init__(self):
        frames = tuple(tuple(fv for fv in views) for views in self.frames)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "cameras", tuple(self.cameras))
        object.__setattr__(self, "ee_poses", tuple(self.ee_poses))
        if self.embodiment not in EMBODIMENTS:
            raise ValueError(f"unknown embodiment {self.embodiment!r}")
        n_views = len(self.cameras)
        for t, views in enumerate(frames):
            if len(views) != n_views:
                raise ValueError(f"frame {t} has {len(views)} views, expected {n_views}")
            for v, fv in enumerate(views):
                if fv.keypoints.embodiment != self.embodiment:
                    raise ValueError("frame embodiment tag disagrees with demonstration")
                first = frames[0][0]
                if fv.keypoints.k != first.keypoints.k or fv.image.shape != first.image.shape:
                    raise ValueError(
                        f"frame {t} view {v} has {fv.keypoints.k} keypoints and a "
                        f"{fv.image.shape} image; frame 0 has {first.keypoints.k} "
                        f"and {first.image.shape}")
        if self.ee_poses and len(self.ee_poses) != len(frames):
            raise ValueError("ee_poses length must match frame count")

    @property
    def length(self) -> int:
        return len(self.frames)

    @property
    def n_views(self) -> int:
        return len(self.cameras)


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
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    n_views, length = demo.n_views, demo.length
    obs = [views[v] for v in range(n_views) for views in demo.frames]
    images = np.array([fv.image for fv in obs]).reshape(len(obs), -1)
    grasps = np.array([fv.grasp for fv in obs], dtype=np.float64).reshape(n_views, length)
    track = np.empty((n_views, length, N_TRACK_KEYPOINTS, 2))
    for v in range(n_views):
        pts = np.array([views[v].keypoints.points for views in demo.frames])
        if pts.shape[1] != N_TRACK_KEYPOINTS:   # a 21-point hand
            pts = pts[:, list(HAND_SUBSET_INDICES)]
        track[v] = normalize_keypoints(pts, demo.cameras[v][0])
    keypoints = track.reshape(len(obs), N_TRACK_KEYPOINTS, 2)
    idx = np.minimum(np.arange(length)[:, None] + 1 + np.arange(horizon), length - 1)
    offsets = track[:, idx] - track[:, :, None]   # (V, T, H, 5, 2)
    targets = np.concatenate([offsets.reshape(n_views, length, horizon, -1),
                              (2.0 * grasps[:, idx] - 1.0)[..., None]], axis=-1)
    return TrainingRows(images, keypoints, targets.reshape(len(obs), -1),
                        len(obs) if demo.embodiment == HUMAN else 0)


# ---------------------------------------------------------------------------
# serialization

SCHEMA = "trackpolicy-demos"
SCHEMA_VERSION = 1


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _encode_image(img: np.ndarray) -> dict:
    """Sparse image record: one (channel, row, column, value) per nonzero,
    written as a JSON array."""
    nz = np.nonzero(img)
    return {"shape": list(img.shape),
            "nz": list(zip(*(i.tolist() for i in nz), img[nz].tolist()))}


def _decode_image(rec: dict) -> np.ndarray:
    img = np.zeros(tuple(rec["shape"]))
    # a per-pixel loop beats one fancy index at a few dozen nonzeros: the
    # index arrays cost more to build than the assignments they replace
    for a, b, d, val in rec["nz"]:
        img[a, b, d] = val
    return img


def _encode_pose(rot: np.ndarray, trans: np.ndarray) -> dict:
    return {"rotation": [float(x) for x in np.asarray(rot).reshape(9)],
            "translation": [float(x) for x in np.asarray(trans).reshape(3)]}


def _encode_camera(cam) -> dict:
    intr, pose = cam
    return {"fx": intr.fx, "fy": intr.fy, "cx": intr.cx, "cy": intr.cy,
            "width": intr.width, "height": intr.height,
            "pose": _encode_pose(pose.rotation, pose.translation)}


def _decode_camera(rec: dict):
    intr = CameraIntrinsics(rec["fx"], rec["fy"], rec["cx"], rec["cy"],
                            rec["width"], rec["height"])
    pose = RigidTransform(np.asarray(rec["pose"]["rotation"]).reshape(3, 3),
                          rec["pose"]["translation"])
    return (intr, pose)


def save_dataset(demos, path) -> None:
    """Line-delimited JSON, one record per line.

    Layout: a file header, then for each demo a demo header followed by one
    record per frame. Floats round-trip exactly (shortest-repr JSON).
    """
    demos = list(demos)
    with open(path, "w", encoding="utf-8") as f:
        f.write(_dump({"schema": SCHEMA, "version": SCHEMA_VERSION,
                       "count": len(demos)}) + "\n")
        for demo in demos:
            f.write(_dump({"demo": {
                "embodiment": demo.embodiment,
                "task": demo.task_name,
                "seed": int(demo.seed),
                "n_frames": demo.length,
                "n_views": demo.n_views,
                "cameras": [_encode_camera(c) for c in demo.cameras],
                "has_ee_poses": bool(demo.ee_poses),
            }}) + "\n")
            for t, views in enumerate(demo.frames):
                rec = {"t": t, "views": [{
                    "image": _encode_image(fv.image),
                    "keypoints": [[float(u), float(v)] for u, v in fv.keypoints.points],
                    "grasp": int(fv.grasp),
                    "view_id": fv.keypoints.view_id,
                } for fv in views]}
                if demo.ee_poses:
                    pose = demo.ee_poses[t]
                    rec["ee_pose"] = _encode_pose(pose.rotation, pose.translation)
                f.write(_dump({"frame": rec}) + "\n")


def load_dataset(path) -> list:
    """Inverse of save_dataset. Corrupt lines raise with their line number."""
    demos = []
    with open(path, "r", encoding="utf-8") as f:
        lines = f.readlines()

    def parse(line_no: int) -> dict:
        if line_no > len(lines):
            raise DatasetCorruptError(f"line {line_no}: unexpected end of file",
                                      line_number=line_no)
        try:
            return json.loads(lines[line_no - 1])
        except json.JSONDecodeError as exc:
            raise DatasetCorruptError(f"line {line_no}: invalid record ({exc.msg})",
                                      line_number=line_no) from exc

    header = parse(1)
    if header.get("schema") != SCHEMA:
        raise SchemaMismatchError(f"unknown dataset schema: {header.get('schema')!r}")
    if header.get("version") != SCHEMA_VERSION:
        raise SchemaMismatchError(f"unsupported dataset version {header.get('version')!r}")
    line_no = 2
    for _ in range(header["count"]):
        rec = parse(line_no)
        if "demo" not in rec:
            raise DatasetCorruptError(f"line {line_no}: expected demo header",
                                      line_number=line_no)
        meta = rec["demo"]
        line_no += 1
        cameras = tuple(_decode_camera(c) for c in meta["cameras"])
        frames = []
        ee_poses = []
        for t in range(meta["n_frames"]):
            frec = parse(line_no)
            if "frame" not in frec or frec["frame"]["t"] != t:
                raise DatasetCorruptError(f"line {line_no}: expected frame {t}",
                                          line_number=line_no)
            fr = frec["frame"]
            if len(fr["views"]) != meta["n_views"]:
                raise DatasetCorruptError(
                    f"line {line_no}: expected {meta['n_views']} views",
                    line_number=line_no)
            views = tuple(FrameView(
                image=_decode_image(v["image"]),
                keypoints=KeypointSet2D(np.asarray(v["keypoints"]),
                                        meta["embodiment"], v["view_id"]),
                grasp=v["grasp"],
            ) for v in fr["views"])
            frames.append(views)
            if meta["has_ee_poses"]:
                p = fr["ee_pose"]
                ee_poses.append(RigidTransform(
                    np.asarray(p["rotation"]).reshape(3, 3), p["translation"]))
            line_no += 1
        demos.append(Demonstration(
            embodiment=meta["embodiment"], frames=tuple(frames),
            task_name=meta["task"], seed=meta["seed"], cameras=cameras,
            ee_poses=tuple(ee_poses)))
    return demos
