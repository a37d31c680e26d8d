"""Simulator tests: determinism, clamping, attachment, observation raster,
grasp heuristics, scripted demonstrators, and the full geometry round trip
(recovered deltas replayed through the simulator).

The expert and `step` compute their 3-vector math on plain floats and
`dot`; a reference kept here with the numpy formulas they replaced
(`np.linalg.norm`, `np.eye(3)`, array waypoints, the attached ride through
`inverse().compose()`) must give the same bytes on every expert state.
The built-in embodiments and cameras are shared, read-only objects.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from trackpolicy import sim
from trackpolicy.data import HUMAN, ROBOT
from trackpolicy.errors import BehindCameraError
from trackpolicy.geometry import (
    RigidTransform,
    axis_angle_to_matrix,
    matrix_to_axis_angle,
    project_points,
    rotation_angle,
    tracks_to_actions,
)


def box_at(position):
    return RigidTransform(np.eye(3), position)


# resting on the table at the world origin
BOX_AT_ORIGIN = box_at([0.0, 0.0, 0.03])


def make_state(ee_pose=None, gripper_closed=False, box_pose=BOX_AT_ORIGIN,
               box_attached=False, goal=(0.1, 0.0, 0.1)):
    return sim.SimState(
        ee_pose=ee_pose if ee_pose is not None else RigidTransform(),
        gripper_closed=gripper_closed, box_pose=box_pose, box_attached=box_attached,
        goal_center=goal)


def states_equal(a: sim.SimState, b: sim.SimState) -> bool:
    poses = ((a.ee_pose, b.ee_pose), (a.box_pose, b.box_pose))
    return (all(np.array_equal(p.rotation, q.rotation)
                and np.array_equal(p.translation, q.translation) for p, q in poses)
            and a.gripper_closed == b.gripper_closed and a.box_attached == b.box_attached
            and np.array_equal(a.goal_center, b.goal_center))


def hold_action(grasp=0):
    return sim.Action6DoF(RigidTransform(), grasp)


def translate_action(v, grasp=0):
    return sim.Action6DoF(RigidTransform(np.eye(3), v), grasp)


# ---------------------------------------------------------------------------
# reset


def test_reset_deterministic():
    task = sim.make_task("push_right")
    assert states_equal(sim.reset(task, 123), sim.reset(task, 123))


@pytest.mark.parametrize("seed", [True, False, 2.5, np.float64(1.0), -1, "3", None])
def test_reset_rejects_a_seed_that_is_not_an_integer_at_least_0(seed):
    # a bool ran as seed 0 or 1; 2.5 and -1 failed inside numpy
    with pytest.raises(ValueError, match=r"seed must be an integer >= 0, got "):
        sim.reset(sim.make_task("push_right"), seed)


def test_reset_takes_numpy_integer_seeds():
    task = sim.make_task("push_right")
    assert states_equal(sim.reset(task, np.int64(7)), sim.reset(task, 7))
    assert states_equal(sim.reset(task, np.uint32(0)), sim.reset(task, 0))


def test_reset_object_inside_box():
    task = sim.make_task("push_left")
    for seed in range(1000):
        p = sim.reset(task, seed).box_pose.translation
        assert np.all(p >= task.object_box_low - 1e-12)
        assert np.all(p <= task.object_box_high + 1e-12)


def test_reset_distribution_uniform_chi_squared():
    task = sim.make_task("push_right")
    xs = np.array([sim.reset(task, s).box_pose.translation[:2] for s in range(1000)])
    for axis in range(2):
        counts, _ = np.histogram(xs[:, axis],
                                 bins=8,
                                 range=(task.object_box_low[axis], task.object_box_high[axis]))
        assert stats.chisquare(counts).pvalue > 0.01


# ---------------------------------------------------------------------------
# step


def test_step_zero_action_only_advances_counter():
    state = sim.reset(sim.make_task("reach"), 0)
    nxt = sim.step(state, hold_action())
    assert states_equal(state, nxt)
    assert nxt.step_count == state.step_count + 1


def test_step_translation_clamped_to_5cm():
    state = sim.reset(sim.make_task("reach"), 0)
    nxt = sim.step(state, translate_action([0.10, 0.0, 0.0]))
    moved = nxt.ee_pose.translation - state.ee_pose.translation
    assert abs(np.linalg.norm(moved) - 0.05) < 1e-12


def test_step_rotation_clamped():
    state = sim.reset(sim.make_task("reach"), 0)
    big = RigidTransform(axis_angle_to_matrix([0.0, 0.0, 0.5]), np.zeros(3))
    nxt = sim.step(state, sim.Action6DoF(big, 0))
    rel = state.ee_pose.inverse().compose(nxt.ee_pose)
    assert abs(rotation_angle(rel.rotation) - sim.MAX_ROTATION) < 1e-12


def test_clamp_delta_within_limits_returns_the_same_transform():
    delta = RigidTransform(axis_angle_to_matrix([0.0, 0.1, 0.0]), [0.03, -0.02, 0.01])
    assert sim._clamp_delta(delta) is delta


def test_clamp_delta_caps_translation_and_keeps_rotation():
    delta = RigidTransform(axis_angle_to_matrix([0.05, 0.0, 0.1]), [0.2, 0.0, 0.0])
    clamped = sim._clamp_delta(delta)
    assert abs(np.linalg.norm(clamped.translation) - sim.MAX_TRANSLATION) < 1e-15
    assert np.array_equal(clamped.rotation, delta.rotation)


def test_step_attach_detach_cycle():
    palm = RigidTransform(sim.HOME_POSE.rotation, np.array([0.0, 0.0, 0.065]))
    state = make_state(ee_pose=palm)
    grabbed = sim.step(state, hold_action(grasp=1))
    assert grabbed.box_attached and grabbed.gripper_closed
    # attached box rides rigidly
    moved = sim.step(grabbed, translate_action([0.03, 0.01, 0.0], grasp=1))
    box_delta = moved.box_pose.translation - grabbed.box_pose.translation
    ee_delta = moved.ee_pose.translation - grabbed.ee_pose.translation
    assert np.allclose(box_delta, ee_delta, atol=1e-15)
    released = sim.step(moved, hold_action(grasp=0))
    assert not released.box_attached and not released.gripper_closed
    after = sim.step(released, translate_action([0.02, 0.0, 0.0]))
    assert np.array_equal(after.box_pose.translation, released.box_pose.translation)


def test_step_no_attach_when_far():
    state = make_state(ee_pose=sim.HOME_POSE, box_pose=box_at([0.2, 0.0, 0.03]))
    nxt = sim.step(state, hold_action(grasp=1))
    assert not nxt.box_attached
    assert nxt.gripper_closed  # gripper state still follows the command


def test_action_grasp_must_be_0_or_1():
    # a grasp is a binary command: int() would read 0.7 as open, and step
    # closes the gripper for any other non-zero value, 2 included
    for bad in (0.7, 2, -1, np.int64(2), np.nan):
        with pytest.raises(ValueError, match="grasp must be 0 or 1"):
            sim.Action6DoF(RigidTransform(), bad)
    for good, want in ((0, 0), (1, 1), (True, 1), (False, 0), (np.True_, 1),
                       (np.False_, 0), (np.int64(1), 1), (int(np.bool_(True)), 1)):
        grasp = sim.Action6DoF(RigidTransform(), good).grasp
        assert type(grasp) is int and grasp == want


def test_closed_gripper_attaches_on_the_step_that_reaches_the_box():
    # closed 6 cm above the box's top face: nothing to hold yet
    state = sim.step(make_state(ee_pose=sim.HOME_POSE), hold_action(grasp=1))
    assert state.gripper_closed and not state.box_attached
    # still closed, down 4 cm (EE +z is world -z): 2 cm off, still free
    state = sim.step(state, translate_action([0.0, 0.0, 0.04], grasp=1))
    assert sim.surface_distance(state.ee_pose.translation, state.box_pose) > sim.ATTACH_DISTANCE
    assert not state.box_attached
    # down 1.5 cm more: within ATTACH_DISTANCE, so this step attaches the
    # box, which has not moved yet
    reached = sim.step(state, translate_action([0.0, 0.0, 0.015], grasp=1))
    assert sim.surface_distance(reached.ee_pose.translation,
                                reached.box_pose) <= sim.ATTACH_DISTANCE
    assert reached.box_attached
    assert reached.box_pose.translation.tobytes() == BOX_AT_ORIGIN.translation.tobytes()
    dragged = sim.step(reached, translate_action([0.02, 0.0, 0.0], grasp=1))
    assert dragged.box_attached and dragged.box_pose.translation[0] > 0.019


def test_attached_box_rides_beyond_the_attach_distance():
    # a held box keeps its EE-frame pose whatever the EE's distance to it
    ee = RigidTransform(sim.HOME_POSE.rotation, np.array([0.0, 0.0, 0.2]))
    state = make_state(ee_pose=ee, gripper_closed=True, box_attached=True)
    assert sim.surface_distance(ee.translation, state.box_pose) > 10 * sim.ATTACH_DISTANCE
    turn = RigidTransform(axis_angle_to_matrix([0.0, 0.1, 0.05]), [0.03, 0.0, -0.02])
    nxt = sim.step(state, sim.Action6DoF(turn, 1))
    assert nxt.box_attached
    want = nxt.ee_pose.compose(ee.inverse().compose(state.box_pose))
    assert nxt.box_pose.rotation.tobytes() == want.rotation.tobytes()
    assert nxt.box_pose.translation.tobytes() == want.translation.tobytes()
    assert not np.array_equal(nxt.box_pose.translation, state.box_pose.translation)
    with pytest.raises(ValueError, match="closed gripper"):
        make_state(ee_pose=ee, box_attached=True)


def test_attachment_conservation_under_drag():
    task = sim.make_task("push_right")
    state = sim.reset(task, 5)
    phase = 0
    rel_poses = []
    for _ in range(task.horizon):
        action, phase = sim.scripted_policy(task, state, phase)
        state = sim.step(state, action)
        if state.box_attached:
            rel = state.ee_pose.inverse().compose(state.box_pose)
            rel_poses.append(np.concatenate([rel.rotation.ravel(), rel.translation]))
        if sim.success(task, state):
            break
    rel_poses = np.asarray(rel_poses)
    assert len(rel_poses) >= 3
    drift = np.abs(rel_poses - rel_poses[0]).max()
    assert drift <= 1e-12


# ---------------------------------------------------------------------------
# keypoints and grasp labels


def test_keypoints3d_identity_pose_equals_offsets():
    emb = sim.robot_embodiment()
    state = make_state()
    assert np.array_equal(sim.keypoints3d(state, emb), emb.keypoint_offsets)


def test_keypoints3d_translation_equivariance():
    emb = sim.human_embodiment()
    t = np.array([0.05, -0.02, 0.11])
    s0 = make_state()
    s1 = make_state(ee_pose=RigidTransform(np.eye(3), t))
    assert np.allclose(sim.keypoints3d(s1, emb) - sim.keypoints3d(s0, emb), t, atol=1e-15)


def test_closure_shrinks_fingertip_gap_by_fraction():
    for emb in (sim.robot_embodiment(), sim.human_embodiment()):
        open_pts = sim.keypoints3d(make_state(), emb)
        closed_pts = sim.keypoints3d(make_state(gripper_closed=True), emb)
        if emb.kind == ROBOT:
            tip_l, tip_r = 2, 4
        else:
            tip_l, tip_r = 4, 8  # thumb tip, index tip
        open_gap = abs(open_pts[tip_l, 0] - open_pts[tip_r, 0])
        closed_gap = abs(closed_pts[tip_l, 0] - closed_pts[tip_r, 0])
        assert abs(closed_gap - (1 - sim.CLOSURE_FRACTION) * open_gap) < 1e-12


def test_builtin_embodiments_and_cameras_are_shared_and_read_only():
    for build in (sim.robot_embodiment, sim.human_embodiment):
        emb = build()
        assert build() is emb
        assert sim.embodiment(emb.kind) is emb
        for arr in (emb.keypoint_offsets, emb.finger_mask, emb.offsets_for(False)):
            with pytest.raises(ValueError):
                arr[0] = arr[1]
        closed = emb.offsets_for(True)
        assert closed is emb.offsets_for(True)
        assert not np.shares_memory(closed, emb.keypoint_offsets)
        with pytest.raises(ValueError):
            closed[0] = closed[1]
        # the layout the closed gripper had when each call rebuilt it
        want = emb.keypoint_offsets.copy()
        want[emb.finger_mask, 0] *= 1.0 - sim.CLOSURE_FRACTION
        assert closed.tobytes() == want.tobytes()
    cams = sim.default_cameras()
    assert sim.default_cameras() is cams
    for _, pose in cams:
        for arr in (pose.rotation, pose.translation):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_embodiment_model_keeps_a_private_read_only_copy():
    offsets = sim.robot_embodiment().keypoint_offsets.copy()
    mask = np.array([False, True, True, True, True])
    emb = sim.EmbodimentModel(ROBOT, offsets, mask)
    offsets[0] = 1.0
    mask[0] = True
    assert np.array_equal(emb.keypoint_offsets, sim.robot_embodiment().keypoint_offsets)
    assert np.array_equal(emb.finger_mask, sim.robot_embodiment().finger_mask)


def _custom_hand(thumb_tip, index_tip):
    """21-point layout with controlled tip positions, others far away."""
    offsets = np.zeros((21, 3))
    offsets[:, 0] = 0.5 + 0.01 * np.arange(21)  # defaults far from any object
    offsets[0] = (0.0, 0.0, 0.2)
    offsets[4] = thumb_tip
    offsets[8] = index_tip
    return sim.EmbodimentModel(HUMAN, offsets, np.zeros(21, dtype=bool))


def test_grasp_label_far_hand_zero():
    emb = sim.human_embodiment()
    state = make_state(ee_pose=sim.HOME_POSE)
    # palm 25 cm up -> every keypoint >= 10 cm from the box
    assert sim.grasp_label(state, emb) == 0


def test_grasp_label_thumb_and_index_touching():
    emb = _custom_hand(thumb_tip=(-0.029, 0.0, 0.03), index_tip=(0.029, 0.0, 0.03))
    state = make_state()
    assert sim.grasp_label(state, emb) == 1


def test_grasp_label_requires_thumb_and_fingertip():
    # thumb 1.4 cm from the surface, index 1.6 cm -> no fingertip inside tau
    emb = _custom_hand(thumb_tip=(-0.044, 0.0, 0.03), index_tip=(0.046, 0.0, 0.03))
    state = make_state()
    assert sim.grasp_label(state, emb) == 0
    # moving the index inside tau flips the label
    emb2 = _custom_hand(thumb_tip=(-0.044, 0.0, 0.03), index_tip=(0.044, 0.0, 0.03))
    state2 = make_state()
    assert sim.grasp_label(state2, emb2) == 1


def test_grasp_label_robot_reads_gripper():
    emb = sim.robot_embodiment()
    state = make_state(ee_pose=sim.HOME_POSE, gripper_closed=True)
    assert sim.grasp_label(state, emb) == 1
    assert sim.grasp_label(make_state(ee_pose=sim.HOME_POSE), emb) == 0


# ---------------------------------------------------------------------------
# observation


def test_observe_box_out_of_view_object_channel_zero():
    state = make_state(ee_pose=sim.HOME_POSE, box_pose=box_at([2.0, 0.0, 0.03]))
    cam = sim.default_cameras()[0]
    img, _ = sim.observe(state, cam, sim.robot_embodiment())
    assert np.all(img[sim.CH_OBJECT] == 0)
    assert img[sim.CH_EE].sum() > 0


def test_observe_object_at_cell_center_single_cell():
    from trackpolicy.geometry import pixel_ray
    cam = sim.default_cameras()[0]
    intr, pose = cam
    # choose a 3D point that projects exactly onto the center of cell (6, 9)
    target_px = np.array([9 * 8 + 4.0, 6 * 8 + 4.0])
    origin, direction = pixel_ray(target_px, intr, pose)
    p = origin + 0.75 * direction
    state = make_state(ee_pose=sim.HOME_POSE, box_pose=box_at(p))
    img, _ = sim.observe(state, cam, sim.robot_embodiment())
    nz = list(zip(*np.nonzero(img[sim.CH_OBJECT])))
    assert nz == [(6, 9)]
    assert np.isclose(img[sim.CH_OBJECT][6, 9], 1.0)


def test_observe_keypoints_match_per_point_projection():
    # observe returns row 0 of render's two arrays, and takes no view id (a
    # view is its camera's index); its keypoints are the projected
    # keypoints3d bit for bit, per point and as one stack over several
    # states (how the oracle gets its tracks); the second state has a closed
    # gripper, so offsets_for(True) applies
    open_state = sim.reset(sim.make_task("push_right"), 11)
    turn = RigidTransform(axis_angle_to_matrix([0.1, 0.0, 0.05]),
                          np.array([0.01, 0.02, -0.03]))
    closed = sim.step(open_state, sim.Action6DoF(turn, 1))
    states = (open_state, closed, sim.reset(sim.make_task("pick_place"), 3))
    assert closed.gripper_closed
    for emb in (sim.human_embodiment(), sim.robot_embodiment()):
        assert not np.array_equal(sim.keypoints3d(closed, emb),
                                  closed.ee_pose.apply(emb.keypoint_offsets))
        pts3 = [sim.keypoints3d(st, emb) for st in states]
        for cam in sim.default_cameras():
            observed = []
            for st in states:
                img, kps = sim.observe(st, cam, emb)
                images, keypoints = sim.render([st], cam, emb)
                assert type(img) is type(kps) is np.ndarray
                assert img.tobytes() == images[0].tobytes()
                assert kps.tobytes() == keypoints[0].tobytes()
                observed.append(kps)
            observed = np.stack(observed)
            for st_pts, st_kps in zip(pts3, observed):
                for j in range(emb.k):
                    assert np.array_equal(st_kps[j], project_points(st_pts[j], *cam)[0])
            stacked = project_points(np.concatenate(pts3), *cam)
            assert np.array_equal(stacked.reshape(observed.shape), observed)
            with pytest.raises(TypeError):   # the old fourth argument, a view id
                sim.observe(states[0], cam, emb, 1)


def test_observe_behind_camera_propagates():
    far = RigidTransform(sim.HOME_POSE.rotation, np.array([0.0, -3.0, 0.3]))
    state = make_state(ee_pose=far)
    with pytest.raises(BehindCameraError):
        sim.observe(state, sim.default_cameras()[0], sim.robot_embodiment())


# ---------------------------------------------------------------------------
# batched render against the per-state reference


def reference_splat(channel, uv, weights, cell):
    """The per-call bilinear splat `render` replaced: four `np.add.at`
    passes, one per corner, each over the call's points in order."""
    uv = np.atleast_2d(uv)
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), (uv.shape[0],))
    gx = (uv[:, 0] - cell / 2) / cell
    gy = (uv[:, 1] - cell / 2) / cell
    x0 = np.floor(gx).astype(int)
    y0 = np.floor(gy).astype(int)
    fx = gx - x0
    fy = gy - y0
    for dx, dy, w in ((0, 0, (1 - fx) * (1 - fy)), (1, 0, fx * (1 - fy)),
                      (0, 1, (1 - fx) * fy), (1, 1, fx * fy)):
        xs, ys = x0 + dx, y0 + dy
        ok = (xs >= 0) & (xs < sim.RASTER_SIZE) & (ys >= 0) & (ys < sim.RASTER_SIZE) \
            & (w > 1e-12)
        np.add.at(channel, (ys[ok], xs[ok]), (w * weights)[ok])


def reference_observe(state, cam, emb):
    """(image, pixel keypoints, grasp) of one state: the box, then the
    keypoints, then the goal splatted by its own `reference_splat` call."""
    intr, pose = cam
    cell = intr.width / sim.RASTER_SIZE
    img = np.zeros((3, sim.RASTER_SIZE, sim.RASTER_SIZE))
    uv_all = project_points(np.vstack([state.box_pose.translation,
                                       sim.keypoints3d(state, emb), state.goal_center]),
                            intr, pose)
    reference_splat(img[sim.CH_OBJECT], uv_all[0], 1.0, cell)
    uv = uv_all[1:1 + emb.k]
    reference_splat(img[sim.CH_EE], uv, 1.0 / emb.k, cell)
    reference_splat(img[sim.CH_GOAL], uv_all[-1], 1.0, cell)
    return img, uv, sim.grasp_label(state, emb)


def reference_demo(task, emb, seed, jitter_px=1.0):
    """(frames, ee_poses) of the per-state recording loop: observe each view
    at every state as the expert goes, drawing jitter in (t, view) order."""
    cameras = sim.default_cameras()
    state = sim.reset(task, seed)
    rng = np.random.default_rng([int(seed), 9173]) if emb.kind == HUMAN else None
    frames, ee_poses = [], []

    def record(st):
        views = []
        for cam in cameras:
            img, points, grasp = reference_observe(st, cam, emb)
            if rng is not None:
                points = points + np.clip(rng.normal(0.0, jitter_px, size=points.shape),
                                          -3 * jitter_px, 3 * jitter_px)
            views.append((img, points, grasp))
        frames.append(views)
        if emb.kind == ROBOT:
            ee_poses.append(st.ee_pose)

    phase = 0
    record(state)
    while not sim.success(task, state):
        action, phase = sim.scripted_policy(task, state, phase)
        state = sim.step(state, action)
        record(state)
    return frames, ee_poses


def test_scripted_demo_matches_the_per_state_reference_bytewise(monkeypatch):
    refs = {(name, kind, seed): reference_demo(sim.make_task(name), sim.embodiment(kind), seed)
            for name in sim.TASK_NAMES for kind in (ROBOT, HUMAN) for seed in (0, 1, 2)}

    def no_observe(*args, **kwargs):
        raise AssertionError("scripted_demo observed one state at a time")

    monkeypatch.setattr(sim, "observe", no_observe)
    closed = 0
    for (name, kind, seed), (frames, ee_poses) in refs.items():
        demo = sim.scripted_demo(sim.make_task(name), sim.embodiment(kind), seed)
        assert demo.length == len(frames) and demo.n_views == len(frames[0])
        for t, ref_views in enumerate(frames):
            for v, (img, points, grasp) in enumerate(ref_views):
                assert demo.images[t, v].tobytes() == img.tobytes(), (name, kind, seed, t, v)
                assert demo.keypoints[t, v].tobytes() == points.tobytes()
                assert demo.grasps[t, v] == grasp
                closed += grasp
        assert len(demo.ee_poses) == len(ee_poses)
        for p, q in zip(demo.ee_poses, ee_poses):
            assert p.rotation.tobytes() == q.rotation.tobytes()
            assert p.translation.tobytes() == q.translation.tobytes()
    assert closed > 0


def point_at_pixel(cam, px, depth=1.5):
    from trackpolicy.geometry import pixel_ray
    origin, direction = pixel_ray(np.asarray(px, dtype=np.float64), *cam)
    return origin + depth * direction


def test_render_rows_match_the_reference_at_the_raster_edges():
    # crafted states: box and goal mass partly or wholly off the raster on
    # each side, a closed gripper, and hand keypoints sharing cells (each
    # such cell sums its terms in keypoint order)
    cam = sim.default_cameras()[1]
    emb = sim.human_embodiment()
    rng = np.random.default_rng(21)
    states = []
    for box_px, goal_px in (((60.3, 61.7), (-3.0, 70.5)),
                            ((130.5, 2.2), (125.0, 131.0)),
                            ((4.4, 127.9), (131.9, -3.9))):
        ee = RigidTransform(sim.HOME_POSE.rotation, rng.uniform(-0.1, 0.1, size=3)
                            + np.array([0.0, 0.0, 0.1]))
        states.append(make_state(ee_pose=ee, gripper_closed=len(states) == 1,
                                 box_pose=box_at(point_at_pixel(cam, box_px)),
                                 goal=point_at_pixel(cam, goal_px)))
    images, keypoints = sim.render(states, cam, emb)
    assert images.shape == (3, 3, sim.RASTER_SIZE, sim.RASTER_SIZE)
    assert keypoints.shape == (3, emb.k, 2)
    for st, img, kps in zip(states, images, keypoints):
        ref_img, ref_kps, _ = reference_observe(st, cam, emb)
        assert img.tobytes() == ref_img.tobytes()
        assert kps.tobytes() == ref_kps.tobytes()
        single, _ = sim.observe(st, cam, emb)
        assert single.tobytes() == ref_img.tobytes()
        # clipped mass really was dropped
        assert 0.0 < img[sim.CH_GOAL].sum() < 1.0
        # 84 keypoint corner terms on far fewer cells
        assert np.count_nonzero(img[sim.CH_EE]) < emb.k
    # the on-raster box's 4 corner terms on 4 cells; the others lose mass
    assert np.count_nonzero(images[0, sim.CH_OBJECT]) == 4
    assert abs(images[0, sim.CH_OBJECT].sum() - 1.0) < 1e-12
    assert 0.0 < images[1, sim.CH_OBJECT].sum() < 1.0
    assert 0.0 < images[2, sim.CH_OBJECT].sum() < 1.0


# ---------------------------------------------------------------------------
# scripted demos


def test_scripted_reach_always_succeeds():
    task = sim.make_task("reach")
    for seed in range(10):
        demo = sim.scripted_demo(task, sim.robot_embodiment(), seed)
        final = demo.ee_poses[-1].translation
        assert np.linalg.norm(final - task.goal_center) <= task.success_radius


def test_scripted_demo_deterministic():
    task = sim.make_task("push_left")
    a = sim.scripted_demo(task, sim.human_embodiment(), 4)
    b = sim.scripted_demo(task, sim.human_embodiment(), 4)
    assert a.length == b.length
    for name in ("images", "keypoints", "grasps"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_scripted_demo_embodiments_share_trajectory():
    # Human demos carry no proprioception, so verify the shared trajectory
    # through the camera: the recorded (jitter-free) wrist pixel must equal
    # the projection of the wrist offset carried along the robot's ee_poses.
    task = sim.make_task("push_right")
    hand = sim.human_embodiment()
    intr, cam_pose = sim.default_cameras()[0]
    for seed in (0, 7):
        robot = sim.scripted_demo(task, sim.robot_embodiment(), seed)
        human = sim.scripted_demo(task, sim.human_embodiment(), seed, jitter_px=0.0)
        assert robot.keypoints.shape[2] == 5
        assert human.keypoints.shape[2] == 21
        assert human.ee_poses == ()
        assert len(robot.ee_poses) == robot.length
        n = min(robot.length, human.length)
        for t in range(n):
            wrist3 = robot.ee_poses[t].apply(hand.keypoint_offsets[0])
            expected = project_points(wrist3, intr, cam_pose)[0]
            got = human.keypoints[t, 0, 0]
            assert np.linalg.norm(got - expected) < 1e-9


def test_scripted_pick_place_succeeds():
    task = sim.make_task("pick_place")
    state = sim.reset(task, 2)
    phase = 0
    for _ in range(task.horizon):
        action, phase = sim.scripted_policy(task, state, phase)
        state = sim.step(state, action)
        if sim.success(task, state):
            break
    assert sim.success(task, state)
    assert np.linalg.norm(state.box_pose.translation[:2]
                          - task.goal_center[:2]) <= task.success_radius


def test_push_left_profile_moves_object_left():
    (demo,) = sim.generate_demos("push", ROBOT, 1, "left", seed_start=3)
    assert demo.task_name == "push_left"
    task = sim.make_task("push_left")
    state = sim.reset(task, 3)
    x0 = state.box_pose.translation[0]
    phase = 0
    for _ in range(task.horizon):
        action, phase = sim.scripted_policy(task, state, phase)
        state = sim.step(state, action)
        if sim.success(task, state):
            break
    assert state.box_pose.translation[0] < x0


def test_human_demo_jitter_is_bounded_and_absent_for_robot():
    task = sim.make_task("push_right")
    human = sim.scripted_demo(task, sim.human_embodiment(), 9, jitter_px=1.0)
    state = sim.reset(task, 9)
    img, kps = sim.observe(state, human.cameras[0], sim.human_embodiment())
    noise = human.keypoints[0, 0] - kps
    assert np.max(np.abs(noise)) <= 3.0 + 1e-9
    assert np.max(np.abs(noise)) > 0
    robot = sim.scripted_demo(task, sim.robot_embodiment(), 9)
    _, rkps = sim.observe(state, robot.cameras[0], sim.robot_embodiment())
    assert np.array_equal(robot.keypoints[0, 0], rkps)


def test_task_spec_rejects_a_bad_horizon_or_success_radius():
    task = sim.make_task("reach")
    # horizon=True is no 1-step episode; NaN fails the radius test too
    for bad in (0, 2.5, True, np.nan):
        with pytest.raises(ValueError, match="episode horizon must be an integer >= 1"):
            replace(task, horizon=bad)
    for bad in (0.0, -0.01, np.nan, np.inf):
        with pytest.raises(ValueError, match="success radius must be finite and > 0"):
            replace(task, success_radius=bad)
    # success_radius=True ran as a 1 m radius
    for bad in (True, np.bool_(True), "0.03", None):
        with pytest.raises(ValueError, match="success radius must be a real number"):
            replace(task, success_radius=bad)
    assert replace(task, horizon=np.int64(1), success_radius=1e-9).horizon == 1
    edge = replace(task, horizon=np.int64(1), success_radius=np.float32(0.5))
    assert (edge.horizon, edge.success_radius) == (1, 0.5)
    assert type(edge.horizon) is int and type(edge.success_radius) is float


@pytest.mark.parametrize("field, bad", [("count", True), ("count", 2.0), ("count", -1),
                                        ("count", "2"), ("seed_start", True),
                                        ("seed_start", 1.5), ("seed_start", -1)])
def test_generate_demos_rejects_a_count_or_seed_start_that_is_not_an_integer_at_least_0(
        field, bad):
    # count=True made one demo and seed_start=True started at seed 1
    args = {"count": 1, "seed_start": 0, field: bad}
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 0, got "):
        sim.generate_demos("reach", ROBOT, **args)


def test_generate_demos_takes_numpy_integers():
    (a,) = sim.generate_demos("reach", ROBOT, np.int64(1), seed_start=np.uint8(4))
    (b,) = sim.generate_demos("reach", ROBOT, 1, seed_start=4)
    assert type(a.seed) is int and a.seed == b.seed == 4
    assert np.array_equal(a.images, b.images)
    assert sim.generate_demos("reach", ROBOT, 0) == []


def test_script_failure_raises():
    task = replace(sim.make_task("push_right"), horizon=3)
    with pytest.raises(sim.ScriptFailureError):
        sim.scripted_demo(task, sim.robot_embodiment(), 0)


@pytest.mark.parametrize("name", sim.TASK_NAMES)
def test_resume_phase_reproduces_the_uninterrupted_expert(name):
    # Replanning re-enters the expert through resume_phase. At every state of
    # the expert's own trajectory the recovered phase must give the action
    # the threaded phase gives, bit for bit. Seeds 22, 36 and 39 pass over the
    # object while still above the approach waypoint, a state an xy-only
    # phase-1 test would send straight down toward the grasp height.
    task = sim.make_task(name)
    for seed in range(40):
        state, phase = sim.reset(task, seed), 0
        while not sim.success(task, state) and state.step_count < task.horizon:
            action, next_phase = sim.scripted_policy(task, state, phase)
            resumed, _ = sim.scripted_policy(task, state, sim.resume_phase(task, state))
            where = f"seed {seed} step {state.step_count}"
            assert resumed.grasp == action.grasp, where
            assert np.array_equal(resumed.delta.rotation, action.delta.rotation), where
            assert np.array_equal(resumed.delta.translation, action.delta.translation), where
            state, phase = sim.step(state, action), next_phase


# ---------------------------------------------------------------------------
# hot-path parity: the expert and step against the numpy formulas


def ref_rotation_angle(r):
    c = (np.trace(r) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def ref_clamp_delta(delta):
    t, r = delta.translation, delta.rotation
    norm = np.linalg.norm(t)
    angle = ref_rotation_angle(r)
    if norm <= sim.MAX_TRANSLATION and angle <= sim.MAX_ROTATION:
        return delta
    if norm > sim.MAX_TRANSLATION:
        t = t * (sim.MAX_TRANSLATION / norm)
    if angle > sim.MAX_ROTATION:
        axis = matrix_to_axis_angle(r) / angle
        r = axis_angle_to_matrix(axis * sim.MAX_ROTATION)
    return RigidTransform(r, t)


def ref_surface_distance(point, box_pose):
    local = box_pose.inverse().apply(point)
    return float(np.linalg.norm(np.maximum(np.abs(local) - sim.OBJECT_HALF_EXTENTS, 0.0)))


def ref_step(state, action):
    delta = ref_clamp_delta(action.delta)
    new_ee = state.ee_pose.compose(delta)
    grasp = bool(action.grasp)
    box = state.box_pose
    if state.box_attached and grasp:
        box = new_ee.compose(state.ee_pose.inverse().compose(box))
        attached = True
    elif grasp:
        attached = ref_surface_distance(new_ee.translation, box) <= sim.ATTACH_DISTANCE
    else:
        attached = False
    return sim.SimState(ee_pose=new_ee, gripper_closed=grasp, box_pose=box,
                        box_attached=attached, goal_center=state.goal_center,
                        step_count=state.step_count + 1)


def ref_success(task, state):
    if task.name == "reach":
        return bool(np.linalg.norm(state.ee_pose.translation - state.goal_center)
                    <= task.success_radius)
    if state.box_attached:
        return False
    box = state.box_pose.translation
    delta_xy = box[:2] - state.goal_center[:2]
    if task.name in ("push_left", "push_right"):
        return bool(np.linalg.norm(delta_xy) <= task.success_radius)
    resting = abs(box[2] - sim.OBJECT_HALF_EXTENTS[2]) <= 0.02
    return bool(np.linalg.norm(delta_xy) <= task.success_radius and resting)


def ref_waypoints(task, state):
    obj = state.box_pose.translation
    half = sim.OBJECT_HALF_EXTENTS[2]
    top = obj[2] + half
    grasp_z = top + sim._GRASP_HEIGHT
    goal = state.goal_center
    if task.name == "reach":
        return [(goal, 0)]
    if task.name in ("push_left", "push_right"):
        return [(np.array([obj[0], obj[1], top + sim._APPROACH_HEIGHT]), 0),
                (np.array([obj[0], obj[1], grasp_z]), 0),
                (np.array([obj[0], obj[1], grasp_z]), 1),
                (np.array([goal[0], goal[1], grasp_z]), 1),
                (np.array([goal[0], goal[1], grasp_z]), 0)]
    lift_z = 2 * half + sim._APPROACH_HEIGHT
    place_palm_z = goal[2] + half + sim._GRASP_HEIGHT
    return [(np.array([obj[0], obj[1], top + sim._APPROACH_HEIGHT]), 0),
            (np.array([obj[0], obj[1], grasp_z]), 0),
            (np.array([obj[0], obj[1], grasp_z]), 1),
            (np.array([obj[0], obj[1], lift_z]), 1),
            (np.array([goal[0], goal[1], lift_z]), 1),
            (np.array([goal[0], goal[1], place_palm_z]), 1),
            (np.array([goal[0], goal[1], place_palm_z]), 0)]


def ref_scripted_policy(task, state, phase):
    waypoints = ref_waypoints(task, state)
    if phase >= len(waypoints):
        phase = len(waypoints) - 1
    target, grasp = waypoints[phase]
    pos = state.ee_pose.translation
    err = np.linalg.norm(target - pos)
    if (err <= sim._WAYPOINT_TOL and grasp == int(state.gripper_closed)
            and phase < len(waypoints) - 1):
        phase += 1
        target, grasp = waypoints[phase]
    step = target - pos
    norm = np.linalg.norm(step)
    if norm > sim._STEP_GAIN:
        step = step * (sim._STEP_GAIN / norm)
    return sim.Action6DoF(RigidTransform(np.eye(3), state.ee_pose.rotation.T @ step),
                          grasp), phase


def ref_resume_phase(task, state):
    if task.name == "reach":
        return 0
    targets = [target for target, _ in ref_waypoints(task, state)]
    pos = state.ee_pose.translation

    def near(phase, dims=3):
        return bool(np.linalg.norm(pos[:dims] - targets[phase][:dims]) <= sim._WAYPOINT_TOL)

    if not state.gripper_closed:
        return 2 if near(1) else 1 if near(0) else 0
    if task.name in ("push_left", "push_right"):
        return 4 if near(3, dims=2) else 3
    at_goal_xy = near(4, dims=2)
    if at_goal_xy and abs(pos[2] - targets[5][2]) <= sim._WAYPOINT_TOL:
        return 6
    if at_goal_xy:
        return 5
    return 4 if pos[2] >= targets[3][2] - sim._WAYPOINT_TOL else 3


def state_bytes(st):
    return [st.ee_pose.rotation.tobytes(), st.ee_pose.translation.tobytes(),
            st.gripper_closed, st.step_count, st.goal_center.tobytes(),
            st.box_attached, st.box_pose.rotation.tobytes(), st.box_pose.translation.tobytes()]


def action_bytes(action):
    return (action.delta.rotation.tobytes(), action.delta.translation.tobytes(), action.grasp)


@pytest.mark.parametrize("name", sim.TASK_NAMES)
def test_expert_and_step_match_the_numpy_reference_bytewise(name):
    # Every state of the expert's trajectories, seeds 0-5. At each one:
    # resume_phase, success, the surface distance of every keypoint of both
    # embodiments, the expert's action (and with an out-of-range phase),
    # its step, and the step of a random rotating action big enough to hit
    # both clamps half the time.
    task = sim.make_task(name)
    embs = (sim.robot_embodiment(), sim.human_embodiment())
    rng = np.random.default_rng(sim.TASK_NAMES.index(name))
    kinds = set()
    for seed in range(6):
        state, phase = sim.reset(task, seed), 0
        while True:
            where = f"seed {seed} step {state.step_count}"
            assert sim.resume_phase(task, state) == ref_resume_phase(task, state), where
            assert sim.success(task, state) is ref_success(task, state), where
            box = state.box_pose
            points = [p for emb in embs for p in sim.keypoints3d(state, emb)]
            got = [sim.surface_distance(p, box) for p in points + [box.translation]]
            want = [ref_surface_distance(p, box) for p in points + [box.translation]]
            assert np.array(got).tobytes() == np.array(want).tobytes(), where
            if ref_success(task, state) or state.step_count >= task.horizon:
                break
            action, next_phase = sim.scripted_policy(task, state, phase)
            ref_action, ref_phase = ref_scripted_policy(task, state, phase)
            assert (next_phase, *action_bytes(action)) == (ref_phase, *action_bytes(ref_action))
            late, _ = sim.scripted_policy(task, state, 99)
            assert action_bytes(late) == action_bytes(ref_scripted_policy(task, state, 99)[0])
            nxt = sim.step(state, action)
            assert state_bytes(nxt) == state_bytes(ref_step(state, action)), where
            kinds.add((state.box_attached, nxt.box_attached))
            wild = sim.Action6DoF(
                RigidTransform(axis_angle_to_matrix(rng.normal(size=3) * 0.2),
                               rng.normal(size=3) * 0.04), action.grasp)
            assert state_bytes(sim.step(state, wild)) == state_bytes(ref_step(state, wild))
            state, phase = nxt, next_phase
    if name != "reach":
        # free moves, the attach step, attached drag or lift, and the release
        assert kinds == {(False, False), (False, True), (True, True), (True, False)}


# ---------------------------------------------------------------------------
# geometry round trip through the simulator


def test_recovered_deltas_replay_to_same_trajectory():
    # keypoint frames -> rigid deltas -> sim execution reproduces the expert
    task = sim.make_task("reach")
    emb = sim.robot_embodiment()
    demo = sim.scripted_demo(task, emb, 6)
    frames3d = np.array([pose.apply(emb.keypoint_offsets) for pose in demo.ee_poses])
    # no frame needs the centroid-shift fallback: each centered frame has
    # its two smallest singular values > 1e-9
    sv = np.linalg.svd(frames3d - frames3d.mean(axis=1, keepdims=True), compute_uv=False)
    assert np.all(sv[:, 1:] > 1e-9)
    rotations, translations = tracks_to_actions(frames3d)
    state = sim.reset(task, 6)
    for t, (r, trans) in enumerate(zip(rotations, translations)):
        world_delta = RigidTransform(r, trans)
        ee = state.ee_pose
        local = ee.inverse().compose(world_delta).compose(ee)
        state = sim.step(state, sim.Action6DoF(local, 0))
        err = np.linalg.norm(state.ee_pose.translation - demo.ee_poses[t + 1].translation)
        assert err < 1e-6
