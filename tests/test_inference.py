"""Closed-loop oracle: scripted-expert tracks through the real geometry path.

`OracleRunner` projects the scripted expert's keypoints into both views and
recovers its motion with the same triangulation and rigid fit the learned
policy uses, so it isolates geometry from learning: replanning with it must
retrace the uninterrupted expert and succeed on every task. It renders no
image, yet its chunks equal those built from `sim.observe`'s keypoints bit
for bit. `chunk_from_tracks`'s per-frame residuals are checked on a crafted
cross-view disagreement. `ActionChunk` stores stacked, read-only rotation
and translation arrays whose rows equal the per-frame rigid fits bit for
bit.
"""

import tracemalloc

import numpy as np
import pytest

from trackpolicy import inference, sim
from trackpolicy.geometry import (
    RigidTransform,
    axis_angle_to_matrix,
    project_points,
    tracks_to_actions,
)

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
            local = inference.world_to_ee_delta(state.ee_pose, chunk.delta(h))
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


def test_rollout_rejects_an_exec_horizon_that_is_no_integer(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the episode started before exec_horizon was checked")

    monkeypatch.setattr(sim, "reset", fail)
    runner = inference.OracleRunner()
    for bad in (2.5, np.float64(2.0), True, False, 0, runner.horizon + 1, "2", None):
        with pytest.raises(ValueError, match="exec horizon must be an integer"):
            inference.rollout(runner, sim.make_task("reach"), 0, exec_horizon=bad)
    monkeypatch.undo()
    result = inference.rollout(runner, sim.make_task("reach"), 0, exec_horizon=np.int64(2))
    assert result.success


def test_rollout_rejects_a_seed_that_is_not_an_integer_at_least_0():
    runner = inference.OracleRunner()
    for bad in (True, 2.5, -1):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {bad!r}"):
            inference.rollout(runner, sim.make_task("reach"), bad)


def test_residuals_single_out_the_disagreeing_frame_and_keypoint():
    cams = sim.default_cameras()
    state = sim.reset(sim.make_task("push_right"), 0)
    pts = sim.keypoints3d(state, sim.robot_embodiment())
    frames = np.stack([pts + h * np.array([0.005, 0.0, 0.0]) for h in range(9)])
    px0, px1 = (project_points(frames.reshape(-1, 3), *cam).reshape(9, 5, 2)
                for cam in cams)
    # both views sit at x = 0, so a horizontal shift leaves the epipolar line
    px1[3, 2] += (6.0, 0.0)
    grasps = np.zeros(8, dtype=bool)
    chunk = inference.chunk_from_tracks((px0, grasps), (px1, grasps), cams)
    assert chunk.horizon == 8
    # residuals_px drops the current frame: frame 3 is row 2
    assert chunk.residuals_px[2, 2] > 1.0
    others = np.delete(chunk.residuals_px.reshape(-1), 2 * 5 + 2)
    assert others.max() < 1e-9


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


# ---------------------------------------------------------------------------
# ActionChunk storage


def fitted_chunk():
    """(chunk, frames): a chunk built from tracks_to_actions on 9 keypoint
    frames whose frame 4 is collinear, so fit 4 falls back to translation."""
    rng = np.random.default_rng(31)
    frames = [rng.normal(scale=0.05, size=(5, 3))]
    for _ in range(8):
        step = RigidTransform(axis_angle_to_matrix(rng.normal(scale=0.1, size=3)),
                              rng.normal(scale=0.02, size=3))
        frames.append(step.apply(frames[-1]) + rng.normal(scale=1e-4, size=(5, 3)))
    frames[4] = np.outer(np.linspace(-1, 1, 5), [0.03, 0.01, 0.02])
    frames = np.asarray(frames)
    rotations, translations = tracks_to_actions(frames)
    chunk = inference.ActionChunk(rotations, translations, np.arange(8) % 2 == 0,
                                  rng.uniform(size=(8, 5)))
    return chunk, frames


def test_chunk_deltas_equal_per_frame_fits_bitwise():
    chunk, frames = fitted_chunk()
    deltas = chunk.deltas
    assert chunk.horizon == len(deltas) == 8
    for h in range(8):
        rotations, translations = tracks_to_actions(frames[h:h + 2])
        if h == 4:
            assert np.array_equal(rotations[0], np.eye(3))
            assert np.array_equal(translations[0],
                                  frames[h + 1].mean(axis=0) - frames[h].mean(axis=0))
        for got in (chunk.delta(h), deltas[h]):
            assert isinstance(got, RigidTransform)
            assert got.rotation.tobytes() == rotations[0].tobytes()
            assert got.translation.tobytes() == translations[0].tobytes()


def test_chunk_arrays_are_read_only_copies():
    chunk, _ = fitted_chunk()
    rotations = np.array(chunk.rotations)
    source = rotations.copy()
    mine = inference.ActionChunk(source, chunk.translations, chunk.grasps, chunk.residuals_px)
    source[0] = 0.0
    assert np.array_equal(mine.rotations, rotations)
    for name in ("rotations", "translations", "grasps", "residuals_px"):
        arr = getattr(mine, name)
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    assert mine.rotations.shape == (8, 3, 3) and mine.translations.shape == (8, 3)
    assert mine.grasps.dtype == bool and mine.residuals_px.shape == (8, 5)


def test_chunk_rejects_bad_rows():
    chunk, _ = fitted_chunk()
    parts = (chunk.rotations, chunk.translations, chunk.grasps, chunk.residuals_px)

    def build(i, value):
        args = list(parts)
        args[i] = value
        return inference.ActionChunk(*args)

    scaled = np.array(chunk.rotations)
    scaled[5] *= 1.001
    with pytest.raises(ValueError, match="chunk rotation 5 is not orthonormal"):
        build(0, scaled)
    reflected = np.array(chunk.rotations)
    reflected[2] = -reflected[2]
    with pytest.raises(ValueError, match="chunk rotation 2 must have det"):
        build(0, reflected)
    with pytest.raises(ValueError, match="lengths disagree"):
        build(2, chunk.grasps[:7])
    with pytest.raises(ValueError, match="lengths disagree"):
        build(3, chunk.residuals_px[:7])
    with pytest.raises(ValueError, match="must be"):
        build(1, chunk.translations[:7])
    bad = np.array(chunk.residuals_px)
    bad[3, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        build(3, bad)


def test_chunk_rejects_non_finite_translations():
    with pytest.raises(ValueError, match="chunk translations must be finite"):
        inference.ActionChunk(np.eye(3)[None], [[np.inf, 0, 0]], [True], np.zeros((1, 5)))
    chunk, _ = fitted_chunk()
    for value in (np.nan, -np.inf):
        trans = np.array(chunk.translations)
        trans[6, 2] = value
        with pytest.raises(ValueError, match="chunk translations must be finite"):
            inference.ActionChunk(chunk.rotations, trans, chunk.grasps, chunk.residuals_px)


def test_retained_oracle_chunks_stay_small():
    # a benchmark keeps every replan's chunk; 100 of them at most 4 KB each
    task, cams, emb = sim.make_task("push_right"), sim.default_cameras(), sim.robot_embodiment()
    states = [sim.reset(task, s) for s in range(100)]
    inference.oracle_chunk(task, states[0], emb, cams, 16)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [inference.oracle_chunk(task, st, emb, cams, 16) for st in states]
        per_chunk = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()
    assert per_chunk <= 4096, per_chunk
