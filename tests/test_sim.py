"""Simulator tests: determinism, clamping, attachment, observation raster,
grasp heuristics, scripted demonstrators, and the full geometry round trip
(recovered deltas replayed through the simulator)."""

import numpy as np
import pytest
from scipy import stats

from trackpolicy import sim
from trackpolicy.data import HUMAN, ROBOT
from trackpolicy.errors import BehindCameraError
from trackpolicy.geometry import (
    RigidTransform,
    axis_angle_to_matrix,
    project,
    project_points,
    rotation_angle,
    tracks_to_actions,
)


def make_state(ee_pose=None, gripper_closed=False, objects=(), goal=(0.1, 0.0, 0.1)):
    return sim.SimState(
        ee_pose=ee_pose if ee_pose is not None else RigidTransform.identity(),
        gripper_closed=gripper_closed, objects=objects, goal_center=goal, rng_seed=0)


def states_equal(a: sim.SimState, b: sim.SimState) -> bool:
    if not (np.array_equal(a.ee_pose.rotation, b.ee_pose.rotation)
            and np.array_equal(a.ee_pose.translation, b.ee_pose.translation)):
        return False
    if a.gripper_closed != b.gripper_closed or len(a.objects) != len(b.objects):
        return False
    for oa, ob in zip(a.objects, b.objects):
        if not (oa.id == ob.id and oa.attached == ob.attached
                and np.array_equal(oa.pose.rotation, ob.pose.rotation)
                and np.array_equal(oa.pose.translation, ob.pose.translation)
                and np.array_equal(oa.half_extents, ob.half_extents)):
            return False
    return np.array_equal(a.goal_center, b.goal_center)


def hold_action(grasp=0):
    return sim.Action6DoF(RigidTransform.identity(), grasp)


def translate_action(v, grasp=0):
    return sim.Action6DoF(RigidTransform(np.eye(3), v), grasp)


# ---------------------------------------------------------------------------
# reset


def test_reset_deterministic():
    task = sim.make_task("push_right")
    assert states_equal(sim.reset(task, 123), sim.reset(task, 123))


def test_reset_object_inside_box():
    task = sim.make_task("push_left")
    for seed in range(1000):
        p = sim.reset(task, seed).objects[0].pose.translation
        assert np.all(p >= task.object_box_low - 1e-12)
        assert np.all(p <= task.object_box_high + 1e-12)


def test_reset_distribution_uniform_chi_squared():
    task = sim.make_task("push_right")
    xs = np.array([sim.reset(task, s).objects[0].pose.translation[:2] for s in range(1000)])
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
    obj = sim.ObjectState("o", RigidTransform(np.eye(3), [0.0, 0.0, 0.03]),
                          sim.OBJECT_HALF_EXTENTS)
    palm = RigidTransform(sim.HOME_POSE.rotation, np.array([0.0, 0.0, 0.065]))
    state = make_state(ee_pose=palm, objects=(obj,))
    grabbed = sim.step(state, hold_action(grasp=1))
    assert grabbed.objects[0].attached and grabbed.gripper_closed
    # attached object rides rigidly
    moved = sim.step(grabbed, translate_action([0.03, 0.01, 0.0], grasp=1))
    obj_delta = moved.objects[0].pose.translation - grabbed.objects[0].pose.translation
    ee_delta = moved.ee_pose.translation - grabbed.ee_pose.translation
    assert np.allclose(obj_delta, ee_delta, atol=1e-15)
    released = sim.step(moved, hold_action(grasp=0))
    assert not released.objects[0].attached and not released.gripper_closed
    after = sim.step(released, translate_action([0.02, 0.0, 0.0]))
    assert np.array_equal(after.objects[0].pose.translation,
                          released.objects[0].pose.translation)


def test_step_no_attach_when_far():
    obj = sim.ObjectState("o", RigidTransform(np.eye(3), [0.2, 0.0, 0.03]),
                          sim.OBJECT_HALF_EXTENTS)
    state = make_state(ee_pose=sim.HOME_POSE, objects=(obj,))
    nxt = sim.step(state, hold_action(grasp=1))
    assert not nxt.objects[0].attached
    assert nxt.gripper_closed  # gripper state still follows the command


def test_attachment_conservation_under_drag():
    task = sim.make_task("push_right")
    state = sim.reset(task, 5)
    phase = 0
    rel_poses = []
    for _ in range(task.horizon):
        action, phase = sim.scripted_policy(task, state, phase)
        state = sim.step(state, action)
        obj = state.attached_object()
        if obj is not None:
            rel = state.ee_pose.inverse().compose(obj.pose)
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


def _custom_hand(thumb_tip, index_tip):
    """21-point layout with controlled tip positions, others far away."""
    offsets = np.zeros((21, 3))
    offsets[:, 0] = 0.5 + 0.01 * np.arange(21)  # defaults far from any object
    offsets[0] = (0.0, 0.0, 0.2)
    offsets[4] = thumb_tip
    offsets[8] = index_tip
    return sim.EmbodimentModel(HUMAN, offsets, np.zeros(21, dtype=bool))


def _box_at_origin():
    return sim.ObjectState("o", RigidTransform(np.eye(3), [0.0, 0.0, 0.03]),
                           sim.OBJECT_HALF_EXTENTS)


def test_grasp_label_far_hand_zero():
    emb = sim.human_embodiment()
    state = make_state(ee_pose=sim.HOME_POSE, objects=(_box_at_origin(),))
    # palm 25 cm up -> every keypoint >= 10 cm from the box
    assert sim.grasp_label(state, emb) == 0


def test_grasp_label_thumb_and_index_touching():
    emb = _custom_hand(thumb_tip=(-0.029, 0.0, 0.03), index_tip=(0.029, 0.0, 0.03))
    state = make_state(objects=(_box_at_origin(),))
    assert sim.grasp_label(state, emb) == 1


def test_grasp_label_requires_thumb_and_fingertip():
    # thumb 1.4 cm from the surface, index 1.6 cm -> no fingertip inside tau
    emb = _custom_hand(thumb_tip=(-0.044, 0.0, 0.03), index_tip=(0.046, 0.0, 0.03))
    state = make_state(objects=(_box_at_origin(),))
    assert sim.grasp_label(state, emb) == 0
    # moving the index inside tau flips the label
    emb2 = _custom_hand(thumb_tip=(-0.044, 0.0, 0.03), index_tip=(0.044, 0.0, 0.03))
    state2 = make_state(objects=(_box_at_origin(),))
    assert sim.grasp_label(state2, emb2) == 1


def test_grasp_label_robot_reads_gripper():
    emb = sim.robot_embodiment()
    state = make_state(ee_pose=sim.HOME_POSE, gripper_closed=True)
    assert sim.grasp_label(state, emb) == 1
    assert sim.grasp_label(make_state(ee_pose=sim.HOME_POSE), emb) == 0


# ---------------------------------------------------------------------------
# observation


def test_observe_empty_scene_object_channel_zero():
    state = make_state(ee_pose=sim.HOME_POSE, objects=())
    cam = sim.default_cameras()[0]
    img, _, _ = sim.observe(state, cam, sim.robot_embodiment())
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
    obj = sim.ObjectState("o", RigidTransform(np.eye(3), p), sim.OBJECT_HALF_EXTENTS)
    state = make_state(ee_pose=sim.HOME_POSE, objects=(obj,))
    img, _, _ = sim.observe(state, cam, sim.robot_embodiment())
    nz = list(zip(*np.nonzero(img[sim.CH_OBJECT])))
    assert nz == [(6, 9)]
    assert np.isclose(img[sim.CH_OBJECT][6, 9], 1.0)


def test_observe_keypoints_match_per_point_projection():
    # observe's keypoints are the projected keypoints3d bit for bit, per point
    # and as one stack over several states (how the oracle gets its tracks);
    # the second state has a closed gripper, so offsets_for(True) applies
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
        for v, cam in enumerate(sim.default_cameras()):
            observed = np.stack([sim.observe(st, cam, emb, view_id=v)[1].points
                                 for st in states])
            for st_pts, st_kps in zip(pts3, observed):
                for j in range(emb.k):
                    assert np.array_equal(st_kps[j], project(st_pts[j], *cam))
            stacked = project_points(np.concatenate(pts3), *cam)
            assert np.array_equal(stacked.reshape(observed.shape), observed)


def test_observe_behind_camera_propagates():
    far = RigidTransform(sim.HOME_POSE.rotation, np.array([0.0, -3.0, 0.3]))
    state = make_state(ee_pose=far, objects=())
    with pytest.raises(BehindCameraError):
        sim.observe(state, sim.default_cameras()[0], sim.robot_embodiment())


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
    for fa, fb in zip(a.frames, b.frames):
        for va, vb in zip(fa, fb):
            assert np.array_equal(va.keypoints.points, vb.keypoints.points)
            assert np.array_equal(va.image, vb.image)
            assert va.grasp == vb.grasp


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
        assert robot.frames[0][0].keypoints.k == 5
        assert human.frames[0][0].keypoints.k == 21
        assert human.ee_poses == ()
        assert len(robot.ee_poses) == robot.length
        n = min(robot.length, human.length)
        for t in range(n):
            wrist3 = robot.ee_poses[t].apply(hand.keypoint_offsets[0])
            expected = project(wrist3, intr, cam_pose)
            got = human.frames[t][0].keypoints.points[0]
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
    assert np.linalg.norm(state.objects[0].pose.translation[:2]
                          - task.goal_center[:2]) <= task.success_radius


def test_push_left_profile_moves_object_left():
    (demo,) = sim.generate_demos("push", ROBOT, 1, "left", seed_start=3)
    assert demo.task_name == "push_left"
    task = sim.make_task("push_left")
    state = sim.reset(task, 3)
    x0 = state.objects[0].pose.translation[0]
    phase = 0
    for _ in range(task.horizon):
        action, phase = sim.scripted_policy(task, state, phase)
        state = sim.step(state, action)
        if sim.success(task, state):
            break
    assert state.objects[0].pose.translation[0] < x0


def test_human_demo_jitter_is_bounded_and_absent_for_robot():
    task = sim.make_task("push_right")
    human = sim.scripted_demo(task, sim.human_embodiment(), 9, jitter_px=1.0)
    state = sim.reset(task, 9)
    img, kps, _ = sim.observe(state, human.cameras[0], sim.human_embodiment(), view_id=0)
    noise = human.frames[0][0].keypoints.points - kps.points
    assert np.max(np.abs(noise)) <= 3.0 + 1e-9
    assert np.max(np.abs(noise)) > 0
    robot = sim.scripted_demo(task, sim.robot_embodiment(), 9)
    _, rkps, _ = sim.observe(state, robot.cameras[0], sim.robot_embodiment(), view_id=0)
    assert np.array_equal(robot.frames[0][0].keypoints.points, rkps.points)


def test_script_failure_raises():
    task = sim.make_task("push_right", horizon=3)
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
# geometry round trip through the simulator


def test_recovered_deltas_replay_to_same_trajectory():
    # keypoint frames -> rigid deltas -> sim execution reproduces the expert
    task = sim.make_task("reach")
    emb = sim.robot_embodiment()
    demo = sim.scripted_demo(task, emb, 6)
    frames3d = np.array([pose.apply(emb.keypoint_offsets) for pose in demo.ee_poses])
    deltas = tracks_to_actions(frames3d, allow_fallback=False)
    state = sim.reset(task, 6)
    for t, world_delta in enumerate(deltas):
        ee = state.ee_pose
        local = ee.inverse().compose(world_delta).compose(ee)
        state = sim.step(state, sim.Action6DoF(local, 0))
        err = np.linalg.norm(state.ee_pose.translation - demo.ee_poses[t + 1].translation)
        assert err < 1e-6
