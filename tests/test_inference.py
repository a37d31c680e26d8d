"""Closed-loop oracle: scripted-expert tracks through the real geometry path.

`OracleRunner` projects the scripted expert's keypoints into both views and
recovers its motion with the same triangulation and rigid fit the learned
policy uses, so it isolates geometry from learning: replanning with it must
retrace the uninterrupted expert and succeed on every task.
"""

import numpy as np
import pytest

from trackpolicy import inference, sim

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
