"""Closed-loop oracle: scripted-expert tracks through the real geometry path.

`OracleRunner` projects the scripted expert's keypoints into both views and
recovers its motion with the same triangulation and rigid fit the learned
policy uses, so it isolates geometry from learning: replanning with it must
retrace the uninterrupted expert and succeed on every task. It renders no
image, yet its chunks equal those built from `sim.observe`'s keypoints bit
for bit. The residual gate in `chunk_from_tracks` is checked on a crafted
cross-view disagreement.
"""

import numpy as np
import pytest

from trackpolicy import inference, sim
from trackpolicy.errors import ResidualTooHighError
from trackpolicy.geometry import project_points

SEEDS = (0, 1, 2, 3, 4)


def expert_states(task, seed):
    """States of the uninterrupted scripted expert, reset state first."""
    state = sim.reset(task, seed)
    states = [state]
    phase = 0
    while not sim.success(task, state) and len(states) - 1 < task.horizon:
        action, phase = sim.scripted_policy(task, state, phase)
        state = sim.step(state, action)
        states.append(state)
    return states


def expert_path(task, seed):
    """EE positions of the uninterrupted scripted expert, one per state."""
    return [st.ee_pose.translation for st in expert_states(task, seed)]


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


def observed_oracle_chunk(task, state, emb, cams, horizon):
    """Reference oracle: render every expert state in both views through
    `sim.observe` and keep only its keypoints."""
    phase = sim.resume_phase(task, state)
    states = [state]
    for _ in range(horizon):
        action, phase = sim.scripted_policy(task, states[-1], phase)
        states.append(sim.step(states[-1], action))
    grasps = np.array([st.gripper_closed for st in states[1:]], dtype=bool)
    tracks = [(np.stack([sim.observe(st, cams[v], emb, view_id=v)[1].points
                         for st in states]), grasps) for v in range(2)]
    return inference.chunk_from_tracks(tracks[0], tracks[1], cams)


def test_oracle_chunk_renders_nothing_and_matches_observed_keypoints(monkeypatch):
    cams = sim.default_cameras()
    cases = []
    for name in sim.TASK_NAMES:
        task = sim.make_task(name)
        for emb in (sim.robot_embodiment(), sim.human_embodiment()):
            for seed in (0, 1):
                states = expert_states(task, seed)
                for frac in (0.25, 0.5, 0.75):
                    st = states[int(frac * (len(states) - 1))]
                    ref = observed_oracle_chunk(task, st, emb, cams, 16)
                    cases.append((task, st, emb, ref))
    assert any(st.gripper_closed for _, st, _, _ in cases)

    def no_render(*args, **kwargs):
        raise AssertionError("oracle_chunk rendered an observation")

    monkeypatch.setattr(sim, "observe", no_render)
    for task, state, emb, ref in cases:
        chunk = inference.oracle_chunk(task, state, emb, cams, 16)
        assert chunk.horizon == ref.horizon == 16
        assert chunk.residuals_px.shape == (16, emb.k)
        for d, r in zip(chunk.deltas, ref.deltas):
            assert np.array_equal(d.rotation, r.rotation)
            assert np.array_equal(d.translation, r.translation)
        assert np.array_equal(chunk.grasps, ref.grasps)
        assert np.array_equal(chunk.residuals_px, ref.residuals_px)
