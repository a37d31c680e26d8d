"""Pinhole camera math, two-view triangulation, and rigid point-set fitting.

Conventions used throughout the package:

* World and camera frames are right-handed. Camera frames follow the usual
  computer-vision layout: x right, y down, z forward along the optical axis.
* A camera is a ``(CameraIntrinsics, RigidTransform)`` pair whose transform
  is the world->camera map, so ``X_cam = R @ X_world + t``.
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

from .errors import BehindCameraError, DegenerateRaysError, check_int, check_real

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
    """Accept 3x3 r iff max|R^T R - I| and |det R - 1| are <= _ORTHO_TOL; NaN fails both."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3, got shape {r.shape}")
    # Plain floats: a 3x3 through numpy costs more in call overhead than in
    # arithmetic, and this runs on every transform the sim and the fits build.
    (a, b, c), (d, e, f), (g, h, i) = r.tolist()
    tol = _ORTHO_TOL
    # R^T R entry (j, k) is the dot product of columns j and k.
    if not (abs(a * a + d * d + g * g - 1.0) <= tol
            and abs(b * b + e * e + h * h - 1.0) <= tol
            and abs(c * c + f * f + i * i - 1.0) <= tol
            and abs(a * b + d * e + g * h) <= tol
            and abs(a * c + d * f + g * i) <= tol
            and abs(b * c + e * f + h * i) <= tol):
        raise ValueError(f"{name} is not orthonormal within {tol}")
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if not abs(det - 1.0) <= tol:
        raise ValueError(f"{name} must have det +1 (got {det})")
    return r


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixel units: finite positive focal lengths, an
    image size of integers >= 1 with the principal point inside it, and no
    bool in any field (ValueError); stored as the plain floats and ints a
    dataset file's JSON meta records."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        for name in ("width", "height"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 1))
        # written so that NaN fails them
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValueError(f"focal lengths must be finite and positive, got {self.fx}, {self.fy}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


@dataclass(frozen=True, slots=True)
class RigidTransform:
    """Element of SE(3): y = rotation @ x + translation."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "rotation", _check_rotation(self.rotation, "rotation").copy())
        object.__setattr__(self, "translation", _vec3(self.translation, "translation").copy())

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


Camera = tuple[CameraIntrinsics, RigidTransform]   # world->camera


def rotation_angle(r: np.ndarray) -> float:
    """Rotation angle in radians of a 3x3 rotation matrix: arccos of
    (trace - 1) / 2, clipped to [-1, 1] first because a matrix that passes
    the orthonormality tolerance can put it just outside.

    The trace and the clip run on plain floats from one `tolist()` (numpy
    calls on a 3x3 cost more than the arithmetic, and `sim.step` calls this
    on every action); the trace adds the diagonal left to right as
    `np.trace` does, and a NaN passes through the clip as in `np.clip`.
    `np.arccos` stays: `math.acos` rounds differently on some inputs, so
    the angle is bit-identical to the `np.trace` / `np.clip` / `np.arccos`
    formula.
    """
    (a, _, _), (_, e, _), (_, _, i) = r.tolist()
    c = (a + e + i - 1.0) / 2.0
    if c > 1.0:
        c = 1.0
    elif c < -1.0:
        c = -1.0
    return float(np.arccos(c))


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


def look_at(eye, target) -> RigidTransform:
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
    return RigidTransform(r, -r @ eye)


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


def project_points(points, intrinsics: CameraIntrinsics, pose: RigidTransform) -> np.ndarray:
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


def pixel_ray(pixel, intrinsics: CameraIntrinsics, pose: RigidTransform):
    """Back-project pixels to world-frame rays: (origin, unit directions).

    pixel is one (2,) pixel or an (n, 2) stack; the directions take the same
    leading shape with 3 columns. All rays share the camera center as origin.
    """
    px = np.asarray(pixel, dtype=np.float64)
    d_cam = np.stack([(px[..., 0] - intrinsics.cx) / intrinsics.fx,
                      (px[..., 1] - intrinsics.cy) / intrinsics.fy,
                      np.ones(px.shape[:-1])], axis=-1)
    d_world = _matvec(pose.rotation.T, d_cam)
    center = -pose.rotation.T @ pose.translation
    return center, d_world / _rownorm(d_world)[..., None]


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

    Returns (rotations (m, 3, 3), translations (m, 3), rank_ok (m,)). Every
    product is a stacked matmul and the SVDs and determinants are batched
    LAPACK calls, so each fit is bit-identical to fitting that frame alone.
    Uses the SVD sign correction, so a fit is a proper rotation even when the
    optimal orthogonal map would be a reflection. A fit whose centered source
    has its two smallest singular values <= 1e-9 is rank-deficient and has
    rank_ok False; its rotation is meaningless, and the caller always
    replaces it with the centroid shift.
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
    return r, cb - _matvec(r, ca), rank_ok


def tracks_to_actions(frames):
    """Per-step rigid deltas for an (H+1, k, 3) stack of keypoint frames.

    Returns (rotations (H, 3, 3), translations (H, 3)); row h is the
    least-squares rigid map (Kabsch) of frame h onto frame h+1 in the world
    frame, minimizing sum |R f[h] + t - f[h+1]|^2. All H fits run as one
    batched Kabsch. A step with fewer than 3 points or a rank-deficient
    source frame falls back to the identity rotation and the centroid shift
    f[h+1].mean - f[h].mean. The rows are not checked here: whoever builds
    transforms from them checks each rotation (``RigidTransform``,
    ``inference.ActionChunk``).
    """
    f = np.asarray(frames, dtype=np.float64)
    if f.ndim != 3 or f.shape[2] != 3 or f.shape[0] < 2:
        raise ValueError(f"expected (H+1, k, 3) frames with H >= 1, got {f.shape}")
    n = f.shape[0] - 1
    if f.shape[1] < 3:
        r, t, rank_ok = np.empty((n, 3, 3)), np.empty((n, 3)), np.zeros(n, dtype=bool)
    else:
        r, t, rank_ok = _kabsch(f[:-1], f[1:])
    for h in np.flatnonzero(~rank_ok):
        r[h] = np.eye(3)
        t[h] = f[h + 1].mean(axis=0) - f[h].mean(axis=0)
    return r, t
