"""Demonstration containers, hand->gripper keypoint subsetting, pixel
normalization, horizon chunking, and JSONL dataset (de)serialization.

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

import gzip
import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DatasetCorruptError,
    EmptyDemoError,
    SchemaMismatchError,
    WrongEmbodimentError,
)
from .geometry import CameraIntrinsics, CameraPose, RigidTransform

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


def select_hand_subset(kps: KeypointSet2D) -> KeypointSet2D:
    """Project a 21-point hand to the 5 gripper-equivalent points
    (HAND_SUBSET_INDICES).

    Idempotent: a 5-point human set passes through unchanged, so chunking
    pipelines can apply it unconditionally.
    """
    if kps.embodiment != HUMAN:
        raise WrongEmbodimentError(f"hand subset needs human keypoints, got {kps.embodiment}")
    if kps.k == 5:
        return kps
    return KeypointSet2D(kps.points[list(HAND_SUBSET_INDICES)], HUMAN, kps.view_id)


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
    """A full episode: frames[t][v] over time t and camera view v."""

    embodiment: str
    frames: tuple  # tuple over t of tuple over views of FrameView
    task_name: str
    seed: int
    cameras: tuple  # one (CameraIntrinsics, CameraPose) per view
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
            for fv in views:
                if fv.keypoints.embodiment != self.embodiment:
                    raise ValueError("frame embodiment tag disagrees with demonstration")
        if self.ee_poses and len(self.ee_poses) != len(frames):
            raise ValueError("ee_poses length must match frame count")

    @property
    def length(self) -> int:
        return len(self.frames)

    @property
    def n_views(self) -> int:
        return len(self.cameras)


@dataclass(frozen=True)
class NormalizationStats:
    """Affine pixel <-> [-1, 1] map; shift/scale per coordinate (u, v)."""

    shift: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        shift = np.asarray(self.shift, dtype=np.float64).reshape(2)
        scale = np.asarray(self.scale, dtype=np.float64).reshape(2)
        if np.any(scale <= 0):
            raise ValueError("scale must be positive")
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "scale", scale)

    @staticmethod
    def for_image(width: int, height: int) -> "NormalizationStats":
        return NormalizationStats(np.array([width / 2.0, height / 2.0]),
                                  np.array([width / 2.0, height / 2.0]))

    def normalize(self, points) -> np.ndarray:
        return (np.asarray(points, dtype=np.float64) - self.shift) / self.scale

    def denormalize(self, points) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) * self.scale + self.shift


@dataclass(frozen=True)
class TrainingSample:
    """One (t, view) supervision item.

    offsets[h] is the normalized displacement from the current keypoints to
    the keypoints at t+h+1 (future minus current, not consecutive diffs), so
    a static demo yields all-zero targets. Flattened with the grasp row the
    target has (2k+1)*H entries: 176 for k=5, H=16.
    """

    image: np.ndarray            # (3, R, R)
    keypoints_norm: np.ndarray   # (5, 2)
    offsets: np.ndarray          # (H, 5, 2)
    grasps: np.ndarray           # (H,) in {0, 1}
    embodiment: str
    view_id: int

    def flat_target(self) -> np.ndarray:
        """(2k+1)*H vector: offsets then grasps as +/-1, per step."""
        h = self.offsets.shape[0]
        flat = np.concatenate(
            [self.offsets.reshape(h, -1), (2.0 * self.grasps - 1.0)[:, None]], axis=1)
        return flat.reshape(-1)


def stats_for_camera(intr: CameraIntrinsics) -> NormalizationStats:
    return NormalizationStats.for_image(intr.width, intr.height)


def normalize_keypoints(kps: KeypointSet2D, intr: CameraIntrinsics) -> KeypointSet2D:
    """Pixel keypoints seen by a camera -> its normalized 5-point set.

    Hand sets get the 5-point subset first; coordinates land in [-1, 1] for
    in-image points. The one place the package normalizes keypoints.
    """
    if kps.embodiment == HUMAN:
        kps = select_hand_subset(kps)
    return KeypointSet2D(stats_for_camera(intr).normalize(kps.points),
                         kps.embodiment, kps.view_id)


def normalized_keypoint_frames(demo: Demonstration) -> list:
    """Every keypoint frame of a demo, normalized, view-major (all of view 0
    in time order, then view 1). This is the retargeter's training food."""
    return [normalize_keypoints(views[v].keypoints, demo.cameras[v][0])
            for v in range(demo.n_views) for views in demo.frames]


def chunk(demo: Demonstration, horizon: int) -> list:
    """One TrainingSample per (t, view), end-of-demo targets edge-padded."""
    if demo.length == 0:
        raise EmptyDemoError("cannot chunk an empty demonstration")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    samples = []
    for v in range(demo.n_views):
        intr = demo.cameras[v][0]
        track = np.asarray([normalize_keypoints(views[v].keypoints, intr).points
                            for views in demo.frames])   # (T, 5, 2)
        grasps = np.asarray([views[v].grasp for views in demo.frames], dtype=np.float64)
        last = demo.length - 1
        for t in range(demo.length):
            idx = np.minimum(t + 1 + np.arange(horizon), last)
            samples.append(TrainingSample(
                image=demo.frames[t][v].image,
                keypoints_norm=track[t],
                offsets=track[idx] - track[t],
                grasps=grasps[idx],
                embodiment=demo.embodiment,
                view_id=v,
            ))
    return samples


# ---------------------------------------------------------------------------
# serialization

SCHEMA = "trackpolicy-demos"
SCHEMA_VERSION = 1


def _open_for_read(path):
    path = str(path)
    if path.endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _open_for_write(path):
    path = str(path)
    if path.endswith(".gz"):
        # mtime=0 keeps the compressed bytes reproducible across runs
        return io.TextIOWrapper(gzip.GzipFile(path, "wb", mtime=0), encoding="utf-8")
    return open(path, "w", encoding="utf-8")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _encode_image(img: np.ndarray) -> dict:
    c, i, j = np.nonzero(img)
    return {"shape": list(img.shape),
            "nz": [[int(a), int(b), int(d), float(img[a, b, d])]
                   for a, b, d in zip(c, i, j)]}


def _decode_image(rec: dict) -> np.ndarray:
    img = np.zeros(tuple(rec["shape"]))
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
    pose = CameraPose(np.asarray(rec["pose"]["rotation"]).reshape(3, 3),
                      rec["pose"]["translation"])
    return (intr, pose)


def save_dataset(demos, path) -> None:
    """Line-delimited JSON, one record per line; `.gz` paths are compressed.

    Layout: a file header, then for each demo a demo header followed by one
    record per frame. Floats round-trip exactly (shortest-repr JSON).
    """
    demos = list(demos)
    with _open_for_write(path) as f:
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
    with _open_for_read(path) as f:
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
