"""Closed-loop oracle: scripted-expert tracks through the real geometry path.

`OracleRunner` projects the scripted expert's keypoints into both views and
recovers its motion with the same triangulation and rigid fit the learned
policy uses, so it isolates geometry from learning: replanning with it must
retrace the uninterrupted expert and succeed on every task. The residual
gate in `chunk_from_tracks` is checked on a crafted cross-view disagreement.
"""

import numpy as np
import pytest

from trackpolicy import inference, sim
from trackpolicy.errors import ResidualTooHighError
from trackpolicy.geometry import project_points

SEEDS = (0, 1, 2, 3, 4)


def expert_path(task, seed):
    """EE positions of the uninterrupted scripted expert, one per state."""
    state = sim.reset(task, seed)
    path = [state.ee_pose.translation]
    phase = 0
    while not sim.success(task, state) and len(path) - 1 < task.horizon:
        action, phase = sim.scripted_policy(task, state, phase)
        state = sim.step(state, action)
        path.append(state.ee_pose.translation)
    return path


@pytest.mark.parametrize("seed", SEEDS)
def test_oracle_reach_retraces_the_expert(seed):
    task = sim.make_task("reach")
    runner = inference.OracleRunner()
    cams = sim.default_cameras()
    expert = expert_path(task, seed)
    state = sim.reset(task, seed)
    steps, worst = 0, 0.0
    while not sim.success(task, state) and steps < task.horizon:
        chunk = runner.chunk(task, state, cams, 0)
        for h in range(min(inference.DEFAULT_EXEC_HORIZON, chunk.horizon)):
            local = inference.world_to_ee_delta(state.ee_pose, chunk.deltas[h])
            state = sim.step(state, sim.Action6DoF(local, int(chunk.grasps[h])))
            steps += 1
            if steps < len(expert):
                worst = max(worst, float(np.linalg.norm(
                    state.ee_pose.translation - expert[steps])))
            if sim.success(task, state):
                break
    assert sim.success(task, state)
    assert worst <= 1e-12
    assert inference.rollout(runner, task, seed).success


@pytest.mark.parametrize("name", ["push_right", "push_left", "pick_place"])
def test_oracle_succeeds_on_contact_tasks(name):
    task = sim.make_task(name)
    results = [inference.rollout(inference.OracleRunner(), task, s) for s in SEEDS]
    assert all(r.success for r in results)


def test_residual_gate_names_the_disagreeing_frame_and_keypoint():
    cams = sim.default_cameras()
    state = sim.reset(sim.make_task("push_right"), 0)
    pts = sim.keypoints3d(state, sim.robot_embodiment())
    frames = np.stack([pts + h * np.array([0.005, 0.0, 0.0]) for h in range(9)])
    px0, px1 = (project_points(frames.reshape(-1, 3), *cam).reshape(9, 5, 2)
                for cam in cams)
    # both views sit at x = 0, so a horizontal shift leaves the epipolar line
    px1[3, 2] += (6.0, 0.0)
    grasps = np.zeros(8, dtype=bool)
    tracks = ((px0, grasps), (px1, grasps))
    with pytest.raises(ResidualTooHighError, match="at frame 3 keypoint 2 exceeds gate 1.0"):
        inference.chunk_from_tracks(*tracks, cams, residual_gate=1.0)
    chunk = inference.chunk_from_tracks(*tracks, cams, residual_gate=None)
    # residuals_px drops the current frame: frame 3 is row 2
    assert chunk.residuals_px[2, 2] > 1.0
    others = np.delete(chunk.residuals_px.reshape(-1), 2 * 5 + 2)
    assert others.max() < 1e-9
    assert inference.chunk_from_tracks(*tracks, cams, residual_gate=5.0).horizon == 8
