"""Pinhole camera math, two-view triangulation, and rigid point-set fitting.

Conventions used throughout the package:

* World and camera frames are right-handed. Camera frames follow the usual
  computer-vision layout: x right, y down, z forward along the optical axis.
* ``CameraPose`` stores the world->camera map, so ``X_cam = R @ X_world + t``.
* Pixels are continuous ``(u, v)`` with u along image width, v along height.
* Everything runs in float64; triangulation at ~10 cm baselines needs it.
* Projection, triangulation, residuals and Kabsch take stacks of points or
  frames. Every 3x3 product and 3-vector dot is a stacked ``np.matmul``, so
  each row of a stack is bit-identical to computing that row alone.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BehindCameraError, DegenerateConfigurationError, DegenerateRaysError

_ORTHO_TOL = 1e-9
_MIN_CAMERA_Z = 1e-6
_MIN_BASELINE = 1e-6
_PARALLEL_TOL = 1e-9
_UP = np.array([0.0, 0.0, 1.0])   # world up, fixes look_at's roll


def _vec3(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    return v


def _check_rotation(r: np.ndarray, name: str) -> np.ndarray:
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3, got shape {r.shape}")
    if np.max(np.abs(r.T @ r - np.eye(3))) > _ORTHO_TOL:
        raise ValueError(f"{name} is not orthonormal within {_ORTHO_TOL}")
    if abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL:
        raise ValueError(f"{name} must have det +1 (got {np.linalg.det(r)})")
    return r


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixel units."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


@dataclass(frozen=True)
class CameraPose:
    """World->camera rigid map: X_cam = rotation @ X_world + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _check_rotation(self.rotation, "rotation").copy())
        object.__setattr__(self, "translation", _vec3(self.translation, "translation").copy())

    def camera_center(self) -> np.ndarray:
        """Camera origin expressed in world coordinates."""
        return -self.rotation.T @ self.translation


@dataclass(frozen=True, slots=True)
class RigidTransform:
    """Element of SE(3): y = rotation @ x + translation."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "rotation", _check_rotation(self.rotation, "rotation").copy())
        object.__setattr__(self, "translation", _vec3(self.translation, "translation").copy())

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self o other: apply ``other`` first, then ``self``."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def apply(self, points) -> np.ndarray:
        """Transform one (3,) point or an (n, 3) stack."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation


Camera = tuple[CameraIntrinsics, CameraPose]


def rotation_angle(r: np.ndarray) -> float:
    """Rotation angle in radians of a 3x3 rotation matrix."""
    c = (np.trace(r) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def axis_angle_to_matrix(v) -> np.ndarray:
    """Rodrigues map from an axis-angle 3-vector (angle = norm)."""
    v = _vec3(v, "axis_angle")
    theta = np.linalg.norm(v)
    if theta < 1e-12:
        return np.eye(3)
    k = v / theta
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(theta) * kx + (1.0 - np.cos(theta)) * (kx @ kx)


def matrix_to_axis_angle(r: np.ndarray) -> np.ndarray:
    """Inverse Rodrigues map; returns the zero vector for the identity."""
    theta = rotation_angle(r)
    if theta < 1e-12:
        return np.zeros(3)
    if theta > np.pi - 1e-6:
        # Near pi the off-diagonal extraction is ill-conditioned; recover
        # the axis from the symmetric part instead.
        m = (r + np.eye(3)) / 2.0
        axis = np.sqrt(np.clip(np.diag(m), 0.0, None))
        # Fix signs using the largest component.
        i = int(np.argmax(axis))
        if axis[i] > 0:
            axis = axis.copy()
            axis[(i + 1) % 3] = m[i, (i + 1) % 3] / axis[i]
            axis[(i + 2) % 3] = m[i, (i + 2) % 3] / axis[i]
        axis = axis / np.linalg.norm(axis)
        return theta * axis
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return theta * w / (2.0 * np.sin(theta))


def look_at(eye, target) -> CameraPose:
    """World->camera pose for a camera at ``eye`` looking toward ``target``,
    image x axis level with the world's xy plane (world +z is up)."""
    eye = _vec3(eye, "eye")
    target = _vec3(target, "target")
    forward = target - eye
    n = np.linalg.norm(forward)
    if n < 1e-12:
        raise ValueError("eye and target coincide")
    z = forward / n
    x = np.cross(z, _UP)
    nx = np.linalg.norm(x)
    if nx < 1e-12:
        raise ValueError("view direction parallel to up vector")
    x = x / nx
    y = np.cross(z, x)
    r = np.stack([x, y, z])
    return CameraPose(r, -r @ eye)


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v[i] for every row of an (n, 3) stack, as one stacked matmul.

    Each row goes through the same BLAS matrix-vector call as a lone
    ``m @ v[i]``, so the result is bit-identical to the per-row product; a
    flat ``v @ m.T`` (one matrix-matrix call) is not.
    """
    return np.matmul(m, v[..., None])[..., 0]


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row of two (..., d) stacks, bit-identical to the
    per-row dot for the same reason as _matvec."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _rownorm(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row: sqrt of the row's own dot product."""
    return np.sqrt(_rowdot(a, a))


def project_points(points, intrinsics: CameraIntrinsics, pose: CameraPose) -> np.ndarray:
    """Project an (n, 3) stack of world points through a pinhole camera.

    Returns (n, 2) pixels. Rotations are stacked matrix-vector products, so
    each row's pixels are bit-identical to projecting that point alone.
    Raises BehindCameraError, naming the row, when any point has camera-frame
    z <= 1e-6 m.
    """
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    p_cam = _matvec(pose.rotation, p) + pose.translation
    z = p_cam[:, 2]
    behind = z <= _MIN_CAMERA_Z
    if behind.any():
        i = int(np.argmax(behind))
        raise BehindCameraError(
            f"point {i} at camera-frame z={z[i]:.3e} m is not in front of the camera")
    uv = np.empty((p.shape[0], 2))
    uv[:, 0] = intrinsics.fx * p_cam[:, 0] / z + intrinsics.cx
    uv[:, 1] = intrinsics.fy * p_cam[:, 1] / z + intrinsics.cy
    return uv


def project(point, intrinsics: CameraIntrinsics, pose: CameraPose) -> np.ndarray:
    """Project one world point through a pinhole camera. Returns pixel (u, v)."""
    return project_points(_vec3(point, "point"), intrinsics, pose)[0]


def pixel_ray(pixel, intrinsics: CameraIntrinsics, pose: CameraPose):
    """Back-project pixels to world-frame rays: (origin, unit directions).

    pixel is one (2,) pixel or an (n, 2) stack; the directions take the same
    leading shape with 3 columns. All rays share the camera center as origin.
    """
    px = np.asarray(pixel, dtype=np.float64)
    d_cam = np.stack([(px[..., 0] - intrinsics.cx) / intrinsics.fx,
                      (px[..., 1] - intrinsics.cy) / intrinsics.fy,
                      np.ones(px.shape[:-1])], axis=-1)
    d_world = _matvec(pose.rotation.T, d_cam)
    return pose.camera_center(), d_world / _rownorm(d_world)[..., None]


def triangulate(px1, px2, cam1: Camera, cam2: Camera) -> np.ndarray:
    """Two-view triangulation: midpoint of closest approach between rays.

    px1/px2: one (2,) pixel per view, giving a (3,) point, or matching
    (n, 2) stacks, giving (n, 3) points. Raises DegenerateRaysError when the
    cameras coincide (baseline < 1e-6 m) or a pair of rays is parallel within
    1e-9 rad (the message names the row).
    """
    o1, d1 = pixel_ray(px1, *cam1)
    o2, d2 = pixel_ray(px2, *cam2)
    if d1.shape != d2.shape:
        raise ValueError(f"pixel stacks disagree: {d1.shape[:-1]} vs {d2.shape[:-1]}")
    if np.linalg.norm(o2 - o1) < _MIN_BASELINE:
        raise DegenerateRaysError("camera centers coincide; baseline below 1e-6 m")
    parallel = _rownorm(np.cross(d1, d2)) < _PARALLEL_TOL
    if parallel.any():
        i = int(np.argmax(parallel.reshape(-1)))
        raise DegenerateRaysError(
            f"back-projected rays of row {i} are parallel within 1e-9 rad")
    # Closest points: solve for the ray parameters s, t minimizing
    # |(o1 + s d1) - (o2 + t d2)|^2.
    r = o2 - o1
    a = _rowdot(d1, d1)
    b = _rowdot(d1, d2)
    c = _rowdot(d2, d2)
    d1r = _rowdot(d1, np.broadcast_to(r, d1.shape))
    d2r = _rowdot(d2, np.broadcast_to(r, d2.shape))
    det = a * c - b * b
    s = ((c * d1r - b * d2r) / det)[..., None]
    t = ((b * d1r - a * d2r) / det)[..., None]
    return 0.5 * ((o1 + s * d1) + (o2 + t * d2))


def reprojection_residual_px(point3, px1, px2, cam1: Camera, cam2: Camera):
    """Mean pixel distance between 3D points' projections and the inputs.

    One (3,) point with (2,) pixels gives a float; (n, 3) points with (n, 2)
    pixel stacks give an (n,) array. Zero iff the two pixels are exactly
    consistent with the point.
    """
    p = np.asarray(point3, dtype=np.float64)
    lead = p.shape[:-1]
    e1 = _rownorm(project_points(p, *cam1) - np.asarray(px1, dtype=np.float64).reshape(-1, 2))
    e2 = _rownorm(project_points(p, *cam2) - np.asarray(px2, dtype=np.float64).reshape(-1, 2))
    res = (0.5 * (e1 + e2)).reshape(lead)
    return float(res) if res.ndim == 0 else res


def project_rotation(r) -> np.ndarray:
    """Nearest rotation matrix in the Frobenius sense (polar decomposition).

    Long pose-composition chains amplify float drift multiplicatively when
    conjugated (the pose's own error folds into the conjugate and back);
    projecting once per composition keeps the chain at the ulp level.
    """
    u, _, vt = np.linalg.svd(np.asarray(r, dtype=np.float64))
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def _kabsch(a: np.ndarray, b: np.ndarray):
    """Kabsch over (m, k, 3) source/target stacks, one fit per leading index.

    Returns (rotations (m, 3, 3), translations (m, 3), rank_ok (m,), source
    singular values (m, 3)). Every product is a stacked matmul and the SVDs
    and determinants are batched LAPACK calls, so each fit is bit-identical
    to fitting that frame alone. Fits with rank_ok False are meaningless;
    the caller raises or falls back to translation_fit.
    """
    ca = a.mean(axis=1)
    cb = b.mean(axis=1)
    a0 = a - ca[:, None]
    b0 = b - cb[:, None]
    sv = np.linalg.svd(a0, compute_uv=False)
    rank_ok = ~((sv[:, 1] <= 1e-9) | (sv[:, 2] <= 1e-9))
    h = np.matmul(a0.swapaxes(1, 2), b0)
    u, _, vt = np.linalg.svd(h)
    v, ut = vt.swapaxes(1, 2), u.swapaxes(1, 2)
    flip = np.zeros_like(h)
    flip[:, 0, 0] = flip[:, 1, 1] = 1.0
    flip[:, 2, 2] = np.sign(np.linalg.det(np.matmul(v, ut)))
    r = np.matmul(np.matmul(v, flip), ut)
    return r, cb - _matvec(r, ca), rank_ok, sv


def _point_stacks(src, dst):
    a = np.asarray(src, dtype=np.float64).reshape(-1, 3)
    b = np.asarray(dst, dtype=np.float64).reshape(-1, 3)
    if a.shape != b.shape:
        raise ValueError(f"src/dst shapes disagree: {a.shape} vs {b.shape}")
    return a, b


def fit_rigid_transform(src, dst) -> RigidTransform:
    """Least-squares rigid alignment (Kabsch): minimizes sum |R src + t - dst|^2.

    Uses the SVD sign correction so the result is a proper rotation even when
    the optimal orthogonal map would be a reflection. Raises
    DegenerateConfigurationError for k < 3 or rank-deficient source points
    (two smallest singular values of the centered source <= 1e-9); callers
    needing liveness fall back to ``translation_fit``.
    """
    a, b = _point_stacks(src, dst)
    if a.shape[0] < 3:
        raise DegenerateConfigurationError(f"need at least 3 points, got {a.shape[0]}")
    r, t, rank_ok, sv = _kabsch(a[None], b[None])
    if not rank_ok[0]:
        raise DegenerateConfigurationError(
            f"source points are rank-deficient (singular values {sv[0]})")
    return RigidTransform(r[0], t[0])


def translation_fit(src, dst) -> RigidTransform:
    """Translation-only fallback: identity rotation, centroid shift."""
    a, b = _point_stacks(src, dst)
    return RigidTransform(np.eye(3), b.mean(axis=0) - a.mean(axis=0))


def tracks_to_actions(frames, allow_fallback: bool = True) -> list[RigidTransform]:
    """Per-step rigid deltas for an (H+1, k, 3) stack of keypoint frames.

    Element h maps frame h onto frame h+1 in the world frame; all H fits run
    as one batched Kabsch, each bit-identical to ``fit_rigid_transform`` on
    that pair. With ``allow_fallback`` a degenerate fit degrades to
    ``translation_fit`` instead of raising; otherwise the first degenerate
    fit raises DegenerateConfigurationError naming its frame index.
    """
    f = np.asarray(frames, dtype=np.float64)
    if f.ndim != 3 or f.shape[2] != 3 or f.shape[0] < 2:
        raise ValueError(f"expected (H+1, k, 3) frames with H >= 1, got {f.shape}")
    n = f.shape[0] - 1
    if f.shape[1] < 3:
        if not allow_fallback:
            raise DegenerateConfigurationError(
                f"frame 0: need at least 3 points, got {f.shape[1]}")
        return [translation_fit(f[h], f[h + 1]) for h in range(n)]
    r, t, rank_ok, sv = _kabsch(f[:-1], f[1:])
    if not allow_fallback and not rank_ok.all():
        h = int(np.argmin(rank_ok))
        raise DegenerateConfigurationError(
            f"frame {h}: source points are rank-deficient (singular values {sv[h]})")
    return [RigidTransform(r[h], t[h]) if rank_ok[h]
            else translation_fit(f[h], f[h + 1]) for h in range(n)]
