"""Camera/triangulation/rigid-fit tests.

The kernels take stacks of points or frames; every stacked result must be
bit-identical to computing each row alone (`array_equal`, not `allclose`),
both through the public n=1 call and through a row-wise reference written
with plain 1-D/2-D products, because closed-loop rollouts are compared bit
for bit.

Independent oracles used here:
  * 4x4 homogeneous matrix product for pinhole projection,
  * Gauss-Newton minimization of squared pixel residuals for triangulation
    under pixel noise,
  * exhaustive 2-degree Euler-angle grid search for the optimal rotation in
    the noisy rigid-fit case.
"""

from dataclasses import replace

import numpy as np
import pytest

from trackpolicy.errors import BehindCameraError, DegenerateRaysError
from trackpolicy.geometry import (
    _ORTHO_TOL,
    CameraIntrinsics,
    RigidTransform,
    axis_angle_to_matrix,
    look_at,
    matrix_to_axis_angle,
    project_points,
    reprojection_residual_px,
    rotation_angle,
    triangulate,
    tracks_to_actions,
)
from trackpolicy.sim import MAX_ROTATION

INTR = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=64.0, width=128, height=128)
IDENTITY_POSE = RigidTransform()


def random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def random_camera_pair(rng):
    """Two cameras on a shell around the origin, baseline >= 1 cm."""
    while True:
        eyes = rng.uniform(-1.0, 1.0, size=(2, 3))
        eyes /= np.linalg.norm(eyes, axis=1, keepdims=True)
        eyes *= rng.uniform(0.6, 1.0, size=(2, 1))
        if np.linalg.norm(eyes[0] - eyes[1]) >= 0.01:
            break
    target = rng.uniform(-0.05, 0.05, size=3)
    return ((INTR, look_at(eyes[0], target)), (INTR, look_at(eyes[1], target)))


# ---------------------------------------------------------------------------
# oracles


def oracle_project_homogeneous(p, intr, pose):
    """Projection via the 3x4 homogeneous camera matrix K [R|t]."""
    k = np.array([[intr.fx, 0, intr.cx], [0, intr.fy, intr.cy], [0, 0, 1.0]])
    rt = np.hstack([pose.rotation, pose.translation[:, None]])
    ph = np.append(np.asarray(p, dtype=float), 1.0)
    uvw = k @ rt @ ph
    return uvw[:2] / uvw[2]


def oracle_triangulate_gauss_newton(px1, px2, cam1, cam2, x0, iters=25):
    """Minimize summed squared reprojection error over the 3D point."""
    px1 = np.asarray(px1, dtype=float)
    px2 = np.asarray(px2, dtype=float)

    def residual(x):
        return np.concatenate([project_points(x, *cam1)[0] - px1,
                               project_points(x, *cam2)[0] - px2])

    x = np.asarray(x0, dtype=float).copy()
    h = 1e-7
    for _ in range(iters):
        r = residual(x)
        jac = np.empty((4, 3))
        for j in range(3):
            dx = np.zeros(3)
            dx[j] = h
            jac[:, j] = (residual(x + dx) - residual(x - dx)) / (2 * h)
        step = np.linalg.solve(jac.T @ jac, jac.T @ r)
        x = x - step
        if np.linalg.norm(step) < 1e-14:
            break
    return x


def oracle_best_rotation_rmsd_grid(src, dst, step_deg=2.0):
    """Best-achievable RMSD over a dense Euler-angle grid (ZYX convention).

    For a fixed rotation the optimal translation matches centroids, so
    RMSD^2(R) = base - (2/k) trace(R C) with C = a0^T b0 over centered points.
    """
    a0 = src - src.mean(axis=0)
    b0 = dst - dst.mean(axis=0)
    k = src.shape[0]
    c = a0.T @ b0
    base = (np.sum(a0 ** 2) + np.sum(b0 ** 2)) / k
    alphas = np.deg2rad(np.arange(0.0, 360.0, step_deg))
    betas = np.deg2rad(np.arange(-90.0, 90.0 + step_deg, step_deg))
    gammas = np.deg2rad(np.arange(0.0, 360.0, step_deg))
    cb, sb = np.cos(betas)[:, None], np.sin(betas)[:, None]
    cg, sg = np.cos(gammas)[None, :], np.sin(gammas)[None, :]
    best = -np.inf
    for ca, sa in zip(np.cos(alphas), np.sin(alphas)):
        # R = Rz(alpha) Ry(beta) Rx(gamma); trace(R C) as elementwise sums over
        # the (beta, gamma) plane to avoid materializing (n, 3, 3) stacks.
        f = (
            (ca * cb) * c[0, 0]
            + (ca * sb * sg - sa * cg) * c[1, 0]
            + (ca * sb * cg + sa * sg) * c[2, 0]
            + (sa * cb) * c[0, 1]
            + (sa * sb * sg + ca * cg) * c[1, 1]
            + (sa * sb * cg - ca * sg) * c[2, 1]
            + (-sb) * c[0, 2]
            + (cb * sg) * c[1, 2]
            + (cb * cg) * c[2, 2]
        )
        best = max(best, float(f.max()))
    return float(np.sqrt(max(base - 2.0 * best / k, 0.0)))


def rowwise_triangulate(px1, px2, cam1, cam2):
    """Midpoint triangulation of one pixel pair, written with 1-D products."""
    def ray(px, intr, pose):
        d = pose.rotation.T @ np.array([(px[0] - intr.cx) / intr.fx,
                                        (px[1] - intr.cy) / intr.fy, 1.0])
        return -pose.rotation.T @ pose.translation, d / np.linalg.norm(d)

    (o1, d1), (o2, d2) = ray(px1, *cam1), ray(px2, *cam2)
    r = o2 - o1
    a, b, c = d1 @ d1, d1 @ d2, d2 @ d2
    det = a * c - b * b
    s = (c * (d1 @ r) - b * (d2 @ r)) / det
    t = (b * (d1 @ r) - a * (d2 @ r)) / det
    return 0.5 * ((o1 + s * d1) + (o2 + t * d2))


def rowwise_kabsch(src, dst):
    """(R, t) of one frame pair, written with 2-D products."""
    ca, cb = src.mean(axis=0), dst.mean(axis=0)
    u, _, vt = np.linalg.svd((src - ca).T @ (dst - cb))
    r = vt.T @ np.diag([1.0, 1.0, np.sign(np.linalg.det(vt.T @ u.T))]) @ u.T
    return r, cb - r @ ca


def rigid_fit(src, dst) -> RigidTransform:
    """The rigid fit of src onto dst: tracks_to_actions on a 2-frame stack."""
    rotations, translations = tracks_to_actions(np.stack([src, dst]))
    return RigidTransform(rotations[0], translations[0])


def assert_centroid_shift(src, dst):
    """The fallback fit: identity rotation and dst's centroid minus src's."""
    rotations, translations = tracks_to_actions(np.stack([src, dst]))
    assert np.array_equal(rotations[0], np.eye(3))
    assert np.array_equal(translations[0], dst.mean(axis=0) - src.mean(axis=0))


def rmsd(transform, src, dst):
    return float(np.sqrt(np.mean(np.sum((transform.apply(src) - dst) ** 2, axis=1))))


# ---------------------------------------------------------------------------
# projection


def test_intrinsics_reject_non_finite_or_non_positive_focal_lengths():
    for fx, fy in ((0.0, 100.0), (-1.0, 100.0), (100.0, np.nan), (np.nan, 100.0),
                   (np.inf, 100.0), (100.0, -np.inf)):
        with pytest.raises(ValueError, match="focal lengths must be finite and positive"):
            replace(INTR, fx=fx, fy=fy)
    assert replace(INTR, fx=1e-9).fx == 1e-9


def test_intrinsics_reject_bools_and_non_integer_image_sizes():
    for name in ("fx", "fy", "cx", "cy"):
        for bad in (True, np.bool_(False), "abc", None):
            with pytest.raises(ValueError, match=f"{name} must be a real number"):
                replace(INTR, **{name: bad})
    for name, bad in (("width", 128.5), ("height", 128.0), ("width", "128"),
                      ("height", np.float64(96.0)), ("width", 0), ("height", -3),
                      ("width", True), ("height", True)):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            replace(INTR, **{name: bad})
    intr = replace(INTR, width=np.int64(130), height=1, cy=0.5, fx=np.float32(320))
    assert (intr.width, intr.fx) == (130, 320.0)
    assert type(intr.width) is int and type(intr.fx) is float


def test_project_on_axis():
    assert np.allclose(project_points((0, 0, 1), INTR, IDENTITY_POSE)[0], (64, 64))


def test_project_translated_camera():
    # Camera moved to world x=+0.1; the point lands 0.1 m left in camera frame.
    pose = RigidTransform(np.eye(3), [-0.1, 0, 0])
    assert np.allclose(project_points((0, 0, 1), INTR, pose)[0], (54, 64))


def test_project_behind_camera_raises():
    with pytest.raises(BehindCameraError):
        project_points((0, 0, -0.5), INTR, IDENTITY_POSE)
    with pytest.raises(BehindCameraError):
        project_points((0, 0, 0), INTR, IDENTITY_POSE)
    pts = np.array([[0.0, 0.0, 1.0], [0.1, 0.0, 2.0], [0.0, 0.1, -0.5], [0.0, 0.0, 3.0]])
    with pytest.raises(BehindCameraError, match="point 2"):
        project_points(pts, INTR, IDENTITY_POSE)


def test_project_matches_homogeneous_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        (_, pose), _ = random_camera_pair(rng)
        p = rng.uniform(-0.2, 0.2, size=3)
        uv = project_points(p, INTR, pose)[0]
        assert np.max(np.abs(uv - oracle_project_homogeneous(p, INTR, pose))) < 1e-10


def test_project_points_matches_scalar():
    rng = np.random.default_rng(1)
    (_, pose), _ = random_camera_pair(rng)
    pts = rng.uniform(-0.2, 0.2, size=(17, 3))
    batch = project_points(pts, INTR, pose)
    for i, p in enumerate(pts):
        assert np.array_equal(batch[i], project_points(p, INTR, pose)[0])
        # and bit-equal to the textbook per-row product R @ p + t
        pc = pose.rotation @ p + pose.translation
        row = (INTR.fx * pc[0] / pc[2] + INTR.cx, INTR.fy * pc[1] / pc[2] + INTR.cy)
        assert np.array_equal(batch[i], row)


# ---------------------------------------------------------------------------
# triangulation


def test_triangulate_inverts_projection_examples():
    cam1 = (INTR, IDENTITY_POSE)
    cam2 = (INTR, RigidTransform(np.eye(3), [-0.1, 0, 0]))
    p = triangulate((64, 64), (54, 64), cam1, cam2)
    assert np.max(np.abs(p - np.array([0, 0, 1.0]))) < 1e-9


def test_triangulate_zero_baseline_raises():
    cam = (INTR, IDENTITY_POSE)
    with pytest.raises(DegenerateRaysError):
        triangulate((64, 64), (64, 64), cam, cam)


def test_triangulate_parallel_rays_raises():
    cam1 = (INTR, IDENTITY_POSE)
    cam2 = (INTR, RigidTransform(np.eye(3), [-0.1, 0, 0]))
    # Same pixel in two translated-but-parallel cameras -> parallel rays.
    with pytest.raises(DegenerateRaysError):
        triangulate((64, 64), (64, 64), cam1, cam2)


def pixel_stacks(rng, n):
    cam1, cam2 = random_camera_pair(rng)
    pts = rng.uniform(-0.2, 0.2, size=(n, 3))
    px1 = project_points(pts, *cam1) + rng.normal(scale=0.5, size=(n, 2))
    px2 = project_points(pts, *cam2) + rng.normal(scale=0.5, size=(n, 2))
    return cam1, cam2, px1, px2


def test_triangulate_stack_matches_per_point_bitwise():
    rng = np.random.default_rng(20)
    for _ in range(20):
        cam1, cam2, px1, px2 = pixel_stacks(rng, 85)
        batch = triangulate(px1, px2, cam1, cam2)
        assert batch.shape == (85, 3)
        for i in range(85):
            assert np.array_equal(batch[i], triangulate(px1[i], px2[i], cam1, cam2))
            assert np.array_equal(batch[i], rowwise_triangulate(px1[i], px2[i], cam1, cam2))


def test_residual_stack_matches_per_point_bitwise():
    rng = np.random.default_rng(21)
    for _ in range(20):
        cam1, cam2, px1, px2 = pixel_stacks(rng, 85)
        pts = triangulate(px1, px2, cam1, cam2)
        batch = reprojection_residual_px(pts, px1, px2, cam1, cam2)
        assert batch.shape == (85,)
        for i in range(85):
            single = reprojection_residual_px(pts[i], px1[i], px2[i], cam1, cam2)
            assert isinstance(single, float)
            assert batch[i] == single
            e1 = np.linalg.norm(project_points(pts[i], *cam1)[0] - px1[i])
            e2 = np.linalg.norm(project_points(pts[i], *cam2)[0] - px2[i])
            assert batch[i] == 0.5 * (e1 + e2)


def test_triangulate_stack_with_one_parallel_row_raises():
    cam1 = (INTR, IDENTITY_POSE)
    cam2 = (INTR, RigidTransform(np.eye(3), [-0.1, 0, 0]))
    px1 = np.array([[64.0, 64.0], [70.0, 60.0], [64.0, 64.0]])
    px2 = np.array([[54.0, 64.0], [60.0, 60.0], [64.0, 64.0]])
    triangulate(px1[:2], px2[:2], cam1, cam2)
    with pytest.raises(DegenerateRaysError, match="row 2"):
        triangulate(px1, px2, cam1, cam2)
    with pytest.raises(DegenerateRaysError):
        triangulate(px1, px2, cam1, cam1)


def test_residual_stack_with_one_point_behind_camera_raises():
    cam1 = (INTR, IDENTITY_POSE)
    cam2 = (INTR, RigidTransform(np.eye(3), [-0.1, 0, 0]))
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.05, 0.0, 1.5]])
    px = np.full((3, 2), 64.0)
    with pytest.raises(BehindCameraError, match="point 1"):
        reprojection_residual_px(pts, px, px, cam1, cam2)


def test_triangulate_round_trip_exact():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        cam1, cam2 = random_camera_pair(rng)
        p = rng.uniform(-0.2, 0.2, size=3)
        p_hat = triangulate(project_points(p, *cam1)[0], project_points(p, *cam2)[0],
                            cam1, cam2)
        worst = max(worst, float(np.max(np.abs(p_hat - p))))
    assert worst < 1e-9


def test_triangulate_noisy_matches_gauss_newton_oracle():
    rng = np.random.default_rng(3)
    err_mid, err_gn = [], []
    for _ in range(1000):
        cam1, cam2 = random_camera_pair(rng)
        p = rng.uniform(-0.2, 0.2, size=3)
        px1 = project_points(p, *cam1)[0] + rng.normal(scale=0.5, size=2)
        px2 = project_points(p, *cam2)[0] + rng.normal(scale=0.5, size=2)
        p_mid = triangulate(px1, px2, cam1, cam2)
        p_gn = oracle_triangulate_gauss_newton(px1, px2, cam1, cam2, x0=p)
        err_mid.append(np.linalg.norm(p_mid - p))
        err_gn.append(np.linalg.norm(p_gn - p))
    med_mid = float(np.median(err_mid))
    med_gn = float(np.median(err_gn))
    assert abs(med_mid - med_gn) <= 0.2 * med_gn


# ---------------------------------------------------------------------------
# rigid fitting, through tracks_to_actions on 2-frame stacks


def test_fit_identity():
    rng = np.random.default_rng(4)
    src = rng.normal(size=(5, 3))
    t = rigid_fit(src, src)
    assert np.allclose(t.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(t.translation, 0, atol=1e-12)


def test_fit_pure_translation():
    rng = np.random.default_rng(5)
    src = rng.normal(size=(5, 3))
    t = rigid_fit(src, src + np.array([0.1, 0, 0]))
    assert np.max(np.abs(t.rotation - np.eye(3))) < 1e-10
    assert np.max(np.abs(t.translation - np.array([0.1, 0, 0]))) < 1e-10


def test_fit_exact_recovery():
    rng = np.random.default_rng(6)
    for _ in range(100):
        src = rng.normal(size=(5, 3))
        r0 = random_rotation(rng)
        t0 = rng.normal(size=3)
        fit = rigid_fit(src, src @ r0.T + t0)
        assert np.max(np.abs(fit.rotation - r0)) < 1e-8
        assert np.max(np.abs(fit.translation - t0)) < 1e-8


def test_fit_too_few_points_falls_back():
    frames = np.random.default_rng(18).normal(size=(4, 2, 3))
    for h in range(3):
        assert_centroid_shift(frames[h], frames[h + 1])


def test_fit_collinear_falls_back():
    src = np.outer(np.arange(5.0), [1.0, 0, 0])
    rng = np.random.default_rng(19)
    assert_centroid_shift(src, src)
    assert_centroid_shift(src, src @ random_rotation(rng).T + rng.normal(size=3))


def test_fit_noisy_beats_rotation_grid_oracle():
    rng = np.random.default_rng(7)
    src = rng.normal(scale=0.05, size=(5, 3))
    r0 = random_rotation(rng)
    t0 = rng.normal(scale=0.1, size=3)
    dst = src @ r0.T + t0 + rng.normal(scale=1e-3, size=src.shape)
    fit = rigid_fit(src, dst)
    grid_best = oracle_best_rotation_rmsd_grid(src, dst)
    assert rmsd(fit, src, dst) <= grid_best + 1e-12


def test_fit_reflection_gets_proper_rotation():
    rng = np.random.default_rng(8)
    src = rng.normal(size=(6, 3))
    mirrored = src * np.array([-1.0, 1.0, 1.0]) + rng.normal(scale=1e-4, size=src.shape)
    fit = rigid_fit(src, mirrored)
    assert abs(np.linalg.det(fit.rotation) - 1.0) < 1e-9
    assert np.max(np.abs(fit.rotation.T @ fit.rotation - np.eye(3))) < 1e-9


def test_fit_left_invariance():
    rng = np.random.default_rng(9)
    src = rng.normal(size=(5, 3))
    dst = src @ random_rotation(rng).T + rng.normal(size=3) + rng.normal(scale=0.01, size=src.shape)
    base = rigid_fit(src, dst)
    for _ in range(20):
        q = random_rotation(rng)
        rotated = rigid_fit(src @ q.T, dst @ q.T)
        assert np.max(np.abs(rotated.rotation - q @ base.rotation @ q.T)) < 1e-9
        assert np.max(np.abs(rotated.translation - q @ base.translation)) < 1e-9


# ---------------------------------------------------------------------------
# transforms and track recovery


def test_rigid_transform_compose_inverse():
    rng = np.random.default_rng(10)
    for _ in range(50):
        a = RigidTransform(random_rotation(rng), rng.normal(size=3))
        b = RigidTransform(random_rotation(rng), rng.normal(size=3))
        p = rng.normal(size=3)
        assert np.allclose(a.compose(b).apply(p), a.apply(b.apply(p)), atol=1e-12)
        ident = a.compose(a.inverse())
        assert np.max(np.abs(ident.rotation - np.eye(3))) < 1e-12
        assert np.max(np.abs(ident.translation)) < 1e-12


@pytest.mark.parametrize("make", [RigidTransform])
def test_rotation_with_nan_rejected(make):
    with pytest.raises(ValueError):
        make(np.full((3, 3), np.nan), np.zeros(3))
    for idx in [(0, 0), (1, 2), (2, 1)]:
        r = np.eye(3)
        r[idx] = np.nan
        with pytest.raises(ValueError):
            make(r, np.zeros(3))


def test_reflection_rejected_for_det():
    with pytest.raises(ValueError, match=r"det \+1"):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


def test_scaled_identity_rejected_as_not_orthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        RigidTransform(1.001 * np.eye(3), np.zeros(3))


def test_non_3x3_rotation_rejected():
    with pytest.raises(ValueError, match="3x3"):
        RigidTransform(np.zeros((2, 3)), np.zeros(3))


def test_random_and_composed_rotations_accepted():
    rng = np.random.default_rng(14)
    total = RigidTransform()
    for _ in range(50):
        step = RigidTransform(random_rotation(rng), rng.normal(size=3))
        total = total.compose(step)
    assert np.max(np.abs(total.rotation.T @ total.rotation - np.eye(3))) < 1e-13


def _reference_rotation_verdict(r):
    """The numpy formulation of both checks, as the package once computed
    them: (verdict, orthonormality error, det error)."""
    ortho = np.max(np.abs(r.T @ r - np.eye(3)))
    det = abs(np.linalg.det(r) - 1.0)
    if ortho > _ORTHO_TOL:
        return "orthonormal", ortho, det
    if det > _ORTHO_TOL:
        return "det", ortho, det
    return None, ortho, det


def _verdict(r):
    try:
        RigidTransform(r, np.zeros(3))
    except ValueError as e:
        return "orthonormal" if "orthonormal" in str(e) else "det"
    return None


def test_rotation_check_decides_like_numpy_reference():
    """The plain-float check accepts and rejects what the numpy formula
    does; the two round differently in the last bits, so inputs whose error
    lies within 1e-15 of the tolerance are skipped."""
    rng = np.random.default_rng(15)
    inputs = []
    for _ in range(400):
        r = random_rotation(rng)
        inputs.append(r)
        inputs.append(r + rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-11, -7))
        scale = 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10, -8)
        inputs.append(r * scale)
        inputs.append(-r)
        inputs.append(r @ np.diag([1.0, 1.0, -1.0]))
    seen = {}
    for r in inputs:
        expected, ortho, det = _reference_rotation_verdict(r)
        if min(abs(ortho - _ORTHO_TOL), abs(det - _ORTHO_TOL)) < 1e-15:
            continue
        assert _verdict(r) == expected, (ortho, det)
        seen[expected] = seen.get(expected, 0) + 1
    # every verdict is exercised, not just the easy accepts
    assert min(seen.get(v, 0) for v in (None, "orthonormal", "det")) >= 50, seen


def _reference_rotation_angle(r):
    c = (np.trace(r) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def test_rotation_angle_equals_the_numpy_reference_bitwise():
    """rotation_angle traces and clips on plain floats; it must give the
    np.trace / np.clip / np.arccos bytes on random rotations, the identity,
    angles one ulp either side of the sim's rotation cap, and accepted
    matrices whose scaled trace leaves [-1, 1]."""
    rng = np.random.default_rng(16)
    inputs = [random_rotation(rng) for _ in range(10_000)]
    inputs += [axis_angle_to_matrix(rng.normal(size=3) * 10.0 ** rng.uniform(-9, 0))
               for _ in range(2_000)]
    inputs.append(np.eye(3))
    cap = MAX_ROTATION
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        for angle in (np.nextafter(cap, 0.0), cap, np.nextafter(cap, 1.0)):
            inputs.append(axis_angle_to_matrix(axis * angle))
    # half turns and the identity scaled by 1 +- 3e-10 still pass the
    # RigidTransform check, but put (trace - 1) / 2 past -1 or +1
    clipped = 0
    for base in (np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]), np.eye(3),
                 axis_angle_to_matrix([0.0, np.pi, 0.0])):
        for scale in (1.0 + 3e-10, 1.0 - 3e-10, 1.0 + 1e-10):
            r = base * scale
            RigidTransform(r, np.zeros(3))
            clipped += abs((np.trace(r) - 1.0) / 2.0) > 1.0
            inputs.append(r)
    assert clipped >= 6
    got = np.array([rotation_angle(r) for r in inputs])
    want = np.array([_reference_rotation_angle(r) for r in inputs])
    assert got.tobytes() == want.tobytes()
    assert rotation_angle(np.eye(3)) == 0.0


def test_axis_angle_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rng.normal(size=3)
        v *= rng.uniform(0, np.pi - 1e-3) / np.linalg.norm(v)
        assert np.max(np.abs(matrix_to_axis_angle(axis_angle_to_matrix(v)) - v)) < 1e-8
    # Near-pi branch: the matrix round trip must still reproduce the rotation.
    v = np.array([1.0, -2.0, 0.5])
    v *= (np.pi - 1e-8) / np.linalg.norm(v)
    r = axis_angle_to_matrix(v)
    r2 = axis_angle_to_matrix(matrix_to_axis_angle(r))
    assert np.max(np.abs(r2 - r)) < 1e-6


def test_tracks_identity():
    frames = np.tile(np.random.default_rng(12).normal(size=(4, 3)), (6, 1, 1))
    for r, t in zip(*tracks_to_actions(frames)):
        assert np.max(np.abs(r - np.eye(3))) < 1e-9
        assert np.max(np.abs(t)) < 1e-9


def test_tracks_constant_delta():
    rng = np.random.default_rng(13)
    r0 = axis_angle_to_matrix(rng.normal(scale=0.1, size=3))
    t0 = rng.normal(scale=0.02, size=3)
    step = RigidTransform(r0, t0)
    frames = [rng.normal(size=(5, 3))]
    for _ in range(8):
        frames.append(step.apply(frames[-1]))
    for r, t in zip(*tracks_to_actions(np.asarray(frames))):
        assert np.max(np.abs(r - r0)) < 1e-8
        assert np.max(np.abs(t - t0)) < 1e-8


def test_tracks_composition_maps_first_to_last():
    rng = np.random.default_rng(14)
    frames = [rng.normal(size=(5, 3))]
    for _ in range(10):
        step = RigidTransform(axis_angle_to_matrix(rng.normal(scale=0.2, size=3)),
                              rng.normal(scale=0.05, size=3))
        frames.append(step.apply(frames[-1]))
    frames = np.asarray(frames)
    total = RigidTransform()
    for r, t in zip(*tracks_to_actions(frames)):
        total = RigidTransform(r, t).compose(total)
    assert np.max(np.abs(total.apply(frames[0]) - frames[-1])) < 1e-8


def test_tracks_stack_matches_per_frame_fits_bitwise():
    rng = np.random.default_rng(17)
    frames = [rng.normal(scale=0.05, size=(5, 3))]
    for _ in range(16):
        step = RigidTransform(axis_angle_to_matrix(rng.normal(scale=0.1, size=3)),
                              rng.normal(scale=0.02, size=3))
        frames.append(step.apply(frames[-1]) + rng.normal(scale=1e-4, size=(5, 3)))
    # frame 6 collapses onto a line: its fit (6 -> 7) is rank-deficient
    frames[6] = np.outer(np.linspace(-1, 1, 5), [0.03, 0.01, 0.02])
    frames = np.asarray(frames)
    rotations, translations = tracks_to_actions(frames)
    assert rotations.shape == (16, 3, 3) and translations.shape == (16, 3)
    for h, (rot, trans) in enumerate(zip(rotations, translations)):
        want = rigid_fit(frames[h], frames[h + 1])
        assert np.array_equal(rot, want.rotation)
        assert np.array_equal(trans, want.translation)
        if h == 6:
            assert_centroid_shift(frames[h], frames[h + 1])
        else:
            r, t = rowwise_kabsch(frames[h], frames[h + 1])
            assert np.array_equal(rot, r) and np.array_equal(trans, t)


def test_tracks_too_few_points_fall_back():
    # the 2-point fits of test_fit_too_few_points_falls_back, from one stacked call
    frames = np.random.default_rng(18).normal(size=(4, 2, 3))
    rotations, translations = tracks_to_actions(frames)
    for h in range(3):
        assert np.array_equal(rotations[h], np.eye(3))
        assert np.array_equal(translations[h], frames[h + 1].mean(axis=0) - frames[h].mean(axis=0))


def test_translation_fit_matches_centroids():
    # every keypoint on one spot: the source has rank 0
    rng = np.random.default_rng(16)
    assert_centroid_shift(np.tile(rng.normal(size=3), (5, 1)), rng.normal(size=(5, 3)))
