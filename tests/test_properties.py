"""Property tests for the two-view action-recovery path.

Random camera pairs watch the robot's keypoints ride a random end-effector
trajectory. `chunk_from_tracks` must (a) give, bit for bit, what the
per-point `triangulate`/`reprojection_residual_px` calls and per-frame
`tracks_to_actions` calls give, and (b) recover the motion from exact
projections: executing its deltas through `world_to_ee_delta` retraces the
end-effector. Examples are derandomized so the suite is repeatable.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trackpolicy import inference, sim
from trackpolicy.geometry import (
    CameraIntrinsics,
    RigidTransform,
    axis_angle_to_matrix,
    look_at,
    project_points,
    reprojection_residual_px,
    tracks_to_actions,
    triangulate,
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
TARGET = np.array([0.0, 0.0, 0.08])
OFFSETS = sim.robot_embodiment().offsets_for(False)


def vec3(bound):
    return st.tuples(*[st.floats(-bound, bound)] * 3).map(np.array)


@st.composite
def camera_pairs(draw):
    """Two cameras 0.5-2 m from the workspace, 0.3-2 rad apart in azimuth."""
    az = draw(st.floats(0.0, 2 * np.pi))
    gap = draw(st.floats(0.3, 2.0)) * draw(st.sampled_from((-1.0, 1.0)))
    cams = []
    for a in (az, az + gap):
        el = draw(st.floats(0.15, 1.2))
        radius = draw(st.floats(0.5, 2.0))
        f = draw(st.floats(150.0, 600.0))
        eye = TARGET + radius * np.array([np.cos(el) * np.cos(a),
                                          np.cos(el) * np.sin(a), np.sin(el)])
        intr = CameraIntrinsics(fx=f, fy=f, cx=64.0, cy=64.0, width=128, height=128)
        cams.append((intr, look_at(eye, TARGET)))
    return tuple(cams)


@st.composite
def poses(draw, rot_bound, trans_bound, center=np.zeros(3)):
    return RigidTransform(axis_angle_to_matrix(draw(vec3(rot_bound))),
                          center + draw(vec3(trans_bound)))


@st.composite
def trajectories(draw):
    """(EE poses, world-frame step motions) with ee[h+1] = step[h] o ee[h]."""
    ee = [draw(poses(np.pi / 2, 0.15, TARGET))]
    steps = draw(st.lists(poses(0.15, 0.02), min_size=1, max_size=8))
    for w in steps:
        ee.append(w.compose(ee[-1]))
    return ee, steps


def tracks_of(ee, cams):
    pts = np.stack([pose.apply(OFFSETS) for pose in ee])  # (H+1, k, 3)
    grasps = np.zeros(len(ee) - 1, dtype=bool)
    return [(project_points(pts.reshape(-1, 3), *cam).reshape(*pts.shape[:2], 2), grasps)
            for cam in cams]


@SETTINGS
@given(cams=camera_pairs(), traj=trajectories())
def test_chunk_from_tracks_matches_per_point_calls_bitwise(cams, traj):
    ee, _ = traj
    (px0, g), (px1, _) = tracks_of(ee, cams)
    chunk = inference.chunk_from_tracks((px0, g), (px1, g), cams)
    n_frames, k = px0.shape[:2]
    pts3 = np.empty((n_frames, k, 3))
    for f in range(n_frames):
        for j in range(k):
            pts3[f, j] = triangulate(px0[f, j], px1[f, j], *cams)
            res = reprojection_residual_px(pts3[f, j], px0[f, j], px1[f, j], *cams)
            if f > 0:
                assert chunk.residuals_px[f - 1, j] == res
    for h, delta in enumerate(chunk.deltas):
        rotations, translations = tracks_to_actions(pts3[h:h + 2])
        assert np.array_equal(delta.rotation, rotations[0])
        assert np.array_equal(delta.translation, translations[0])


@SETTINGS
@given(cams=camera_pairs(), traj=trajectories())
def test_exact_projections_round_trip_through_world_to_ee_delta(cams, traj):
    ee, steps = traj
    chunk = inference.chunk_from_tracks(*tracks_of(ee, cams), cams)
    assert chunk.horizon == len(steps)
    assert chunk.residuals_px.max() < 1e-6
    pose = ee[0]
    for h, (delta, truth) in enumerate(zip(chunk.deltas, steps)):
        assert np.max(np.abs(delta.rotation - truth.rotation)) < 1e-8
        assert np.max(np.abs(delta.translation - truth.translation)) < 1e-8
        pose = pose.compose(inference.world_to_ee_delta(pose, delta))
        assert np.max(np.abs(pose.rotation - ee[h + 1].rotation)) < 1e-8
        assert np.max(np.abs(pose.translation - ee[h + 1].translation)) < 1e-8


@SETTINGS
@given(ee=poses(np.pi, 0.3), world=poses(np.pi, 0.3))
def test_world_to_ee_delta_realizes_the_world_motion(ee, world):
    local = inference.world_to_ee_delta(ee, world)
    moved = ee.compose(local)
    want = world.compose(ee)
    assert np.max(np.abs(moved.rotation - want.rotation)) < 1e-12
    assert np.max(np.abs(moved.translation - want.translation)) < 1e-12
