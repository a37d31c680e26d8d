"""Test-time action recovery and closed-loop evaluation.

The 2D-to-action path: observe each view v as plain arrays (`sim.observe`
through cams[v]; the index v is a view's only identity), normalize its
pixel keypoints (`data.normalize_keypoints`), sample that view's track
offsets and grasp logits as plain arrays (`policy.sample`, shared seed), add
the offsets to the current keypoints and denormalize to pixels
(`data.denormalize_keypoints`), triangulate every keypoint of every step
across the two views, fit per-step rigid transforms to the 3D keypoint
sequence, and execute the first m deltas before re-predicting.
`chunk_from_tracks` makes one stacked call each to `triangulate`,
`reprojection_residual_px` and `tracks_to_actions` per chunk; each row of
those stacks is bit-identical to computing that point or frame alone. An
`ActionChunk` keeps the fit's stacked rotations (H, 3, 3) and translations
(H, 3) as read-only arrays, checks every rotation row once, and hands out
one `RigidTransform` per executed step through `delta(h)`. Also houses the
6DoF-delta baseline (same encoder+diffusion machinery, direct action
targets, no triangulation).

Both runners sample through `policy.sample_flat`, whose denoiser steps run
in float32 on copies of the weights made once per model. Those steps are the
bulk of a replan's time: 2 x num_steps one-row steps, each mostly numpy
dispatch (three matrix-vector products, bias adds, activations and four
finiteness checks) rather than arithmetic. The two views of a replan share
one seed and so one noise draw. The samples come back as float64, and the
geometry, the rigid fits and the baseline's post-processing run in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import data, policy, sim
from .errors import EmptyDatasetError, check_int, has_nonfinite
from .geometry import (
    RigidTransform,
    _check_rotation,
    axis_angle_to_matrix,
    matrix_to_axis_angle,
    project_points,
    project_rotation,
    reprojection_residual_px,
    tracks_to_actions,
    triangulate,
)

DEFAULT_EXEC_HORIZON = 8

# one sampler seed per (episode seed, replan index); prime-spaced so distinct
# episodes never share a sampler stream
_REPLAN_STRIDE = 9973


@dataclass(frozen=True, slots=True)
class ActionChunk:
    """H executable steps recovered from two-view track predictions.

    rotations[h], translations[h] form the world-frame rigid motion of the
    tracked keypoints from frame h to h+1; the rollout conjugates each one
    by the live end-effector pose to get the robot's own-frame increment.
    residuals_px[h, j] is the triangulation reprojection gap for keypoint j
    at predicted frame h+1 -- zero iff the two views' predictions are
    consistent with one 3D point. All four arrays are private read-only
    copies, every rotation row passes the `RigidTransform` check once here,
    and translations and residuals must be finite.
    """

    rotations: np.ndarray     # (H, 3, 3)
    translations: np.ndarray  # (H, 3)
    grasps: np.ndarray        # (H,) bool
    residuals_px: np.ndarray  # (H, k)

    def __post_init__(self):
        rot = np.array(self.rotations, dtype=np.float64)
        trans = np.array(self.translations, dtype=np.float64)
        grasps = np.array(self.grasps, dtype=bool)
        res = np.array(self.residuals_px, dtype=np.float64)
        if rot.ndim != 3 or rot.shape[1:] != (3, 3) or trans.shape != (rot.shape[0], 3):
            raise ValueError(f"rotations/translations must be (H, 3, 3)/(H, 3), "
                             f"got {rot.shape}/{trans.shape}")
        if not (rot.shape[0] == len(grasps) == res.shape[0]):
            raise ValueError(
                f"deltas/grasps/residuals lengths disagree: "
                f"{rot.shape[0]}/{len(grasps)}/{res.shape[0]}")
        if has_nonfinite(trans):
            raise ValueError("chunk translations must be finite")
        if has_nonfinite(res):
            raise ValueError("triangulation residuals must be finite")
        for h, r in enumerate(rot):
            _check_rotation(r, f"chunk rotation {h}")
        for name, arr in (("rotations", rot), ("translations", trans),
                          ("grasps", grasps), ("residuals_px", res)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def horizon(self) -> int:
        return self.rotations.shape[0]

    def delta(self, h: int) -> RigidTransform:
        """World-frame rigid motion of step h."""
        return RigidTransform(self.rotations[h], self.translations[h])

    @property
    def deltas(self) -> tuple:
        """Every step's `delta`, in order."""
        return tuple(self.delta(h) for h in range(self.horizon))


@dataclass(frozen=True)
class EpisodeResult:
    """One rollout's outcome: success, steps executed, and the final EE and
    box positions (world frame)."""

    success: bool
    steps_used: int
    residual_log: tuple       # mean residual px per executed step
    final_ee: np.ndarray
    final_object: np.ndarray


def world_to_ee_delta(ee_pose: RigidTransform, world_delta: RigidTransform) -> RigidTransform:
    """EE-frame increment realizing a world-frame motion: ee' = W o ee.

    The conjugated rotation is projected back onto SO(3): conjugation folds
    the live pose's float drift into the increment and back, which compounds
    geometrically over an episode without the projection.
    """
    r_ee, t_ee = ee_pose.rotation, ee_pose.translation
    r = r_ee.T @ world_delta.rotation @ r_ee
    t = r_ee.T @ (world_delta.rotation @ t_ee + world_delta.translation - t_ee)
    return RigidTransform(project_rotation(r), t)


def chunk_from_tracks(track0, track1, cams) -> ActionChunk:
    """Two per-view absolute-pixel tracks -> executable chunk.

    track0/track1: (pixels, grasps) pairs with pixels (H+1, k, 2) including
    the current frame at index 0. Grasp fusion is a logical AND across
    views: a grasp happens only when both views vote for it, trading missed
    grasps for never grasping on a one-view hallucination.
    """
    (px0, g0), (px1, g1) = track0, track1
    px0 = np.asarray(px0, dtype=np.float64)
    px1 = np.asarray(px1, dtype=np.float64)
    if px0.shape != px1.shape or px0.ndim != 3:
        raise ValueError(f"track shapes disagree: {px0.shape} vs {px1.shape}")
    flat0, flat1 = px0.reshape(-1, 2), px1.reshape(-1, 2)
    pts3 = triangulate(flat0, flat1, cams[0], cams[1])
    residuals = reprojection_residual_px(pts3, flat0, flat1, cams[0], cams[1]) \
        .reshape(px0.shape[:2])
    rotations, translations = tracks_to_actions(pts3.reshape(*px0.shape[:2], 3))
    grasps = np.asarray(g0, dtype=bool) & np.asarray(g1, dtype=bool)
    return ActionChunk(rotations, translations, grasps, residuals[1:])


def predict_chunk(model: policy.PolicyModel, obs0, obs1, cams,
                  seed: int = 0) -> ActionChunk:
    """Sample a track in each view and recover 6DoF deltas plus grasps.

    obs0/obs1: (feature image (3, R, R), pixel keypoints (k, 2)) of views 0
    and 1, as `sim.observe` returns them. The same seed drives both views'
    samplers -- a mild consistency aid -- so both start from the same x_T
    and add the same step noise, drawn once. Leftover cross-view
    disagreement is not gated: it stays in the chunk's residuals_px.
    """
    per_view = []
    for v, (img, kps) in enumerate((obs0, obs1)):
        intr = cams[v][0]
        kn = data.normalize_keypoints(kps, intr)
        offsets, grasp_logits = policy.sample(model, img, kn, seed=seed)
        absolute = np.concatenate([kn[None], kn[None] + offsets], axis=0)
        per_view.append((data.denormalize_keypoints(absolute, intr), grasp_logits > 0))
    return chunk_from_tracks(per_view[0], per_view[1], cams)


def oracle_chunk(task: sim.TaskSpec, state: sim.SimState, emb, cams,
                 horizon: int) -> ActionChunk:
    """Ground-truth stand-in for predict_chunk: run the scripted expert
    forward and feed its keypoints through the same triangulation and
    rigid-fit path the learned policy uses -- isolates geometry from
    learning.

    Renders nothing: the H+1 states' 3D keypoints are projected with one
    `project_points` call per view, bit-identical to the keypoints
    `sim.observe` returns. Only a keypoint behind a camera raises
    BehindCameraError.
    """
    phase = sim.resume_phase(task, state)
    states = [state]
    cur = state
    for _ in range(horizon):
        action, phase = sim.scripted_policy(task, cur, phase)
        cur = sim.step(cur, action)
        states.append(cur)
    pts3 = np.concatenate([sim.keypoints3d(st, emb) for st in states])
    grasps = np.array([st.gripper_closed for st in states[1:]], dtype=bool)
    px0, px1 = (project_points(pts3, *cam).reshape(len(states), emb.k, 2)
                for cam in cams[:2])
    return chunk_from_tracks((px0, grasps), (px1, grasps), cams)


# ---------------------------------------------------------------------------
# closed-loop rollout


@dataclass(frozen=True)
class TrackPolicyRunner:
    """Replan closure for a trained track policy."""

    model: policy.PolicyModel

    @property
    def horizon(self) -> int:
        return self.model.cfg.horizon

    def chunk(self, task, state, cams, seed) -> ActionChunk:
        emb = sim.robot_embodiment()
        obs = [sim.observe(state, cams[v], emb) for v in range(2)]
        return predict_chunk(self.model, obs[0], obs[1], cams, seed=seed)


@dataclass(frozen=True)
class OracleRunner:
    """Ground-truth-track stand-in with the same replanning interface;
    horizon is an integer >= 1 (ValueError)."""

    horizon: int = 16

    def __post_init__(self):
        object.__setattr__(self, "horizon", check_int("horizon", self.horizon, 1))

    def chunk(self, task, state, cams, seed) -> ActionChunk:
        return oracle_chunk(task, state, sim.robot_embodiment(), cams, self.horizon)


def rollout(runner, task: sim.TaskSpec, seed: int,
            exec_horizon: int = DEFAULT_EXEC_HORIZON) -> EpisodeResult:
    """observe -> predict chunk -> execute first m steps -> repeat.

    runner: a `TrackPolicyRunner`, `BaselineRunner`, `OracleRunner` or
    anything with .chunk/.horizon. Observes through sim.default_cameras().
    Stops at task success or the task's step budget; logs each executed
    step's mean triangulation residual. The result's `final_object` is the
    box's final position. exec_horizon is an integer in [1, runner.horizon],
    not a bool (ValueError otherwise, before the episode starts).
    """
    exec_horizon = check_int("exec horizon", exec_horizon, 1, high=runner.horizon)
    cams = sim.default_cameras()
    state = sim.reset(task, seed)
    residual_log = []
    steps = 0
    ok = sim.success(task, state)
    replan = 0
    while not ok and steps < task.horizon:
        chunk = runner.chunk(task, state, cams, seed=seed * _REPLAN_STRIDE + replan)
        replan += 1
        m = min(exec_horizon, chunk.horizon, task.horizon - steps)
        for h in range(m):
            local = world_to_ee_delta(state.ee_pose, chunk.delta(h))
            state = sim.step(state, sim.Action6DoF(local, int(chunk.grasps[h])))
            residual_log.append(float(chunk.residuals_px[h].mean()))
            steps += 1
            if sim.success(task, state):
                ok = True
                break
    return EpisodeResult(bool(ok), steps, tuple(residual_log),
                         state.ee_pose.translation, state.box_pose.translation)


# ---------------------------------------------------------------------------
# 6DoF-delta baseline


def baseline_samples(demo: data.Demonstration, horizon: int) -> data.TrainingRows:
    """View-0 rows of a demo with (H, 7) end-effector delta targets from
    proprioception: translation 3, axis-angle 3, grasp +/-1 per step.

    Requires robot demos: human recordings carry no ee_poses, which is the
    structural reason this baseline cannot use them. End-of-demo targets are
    edge-padded with zero motion, mirroring the track chunker.
    """
    if demo.embodiment != data.ROBOT or not demo.ee_poses:
        raise EmptyDatasetError(
            "6DoF baseline needs robot demonstrations with end-effector poses")
    obs = data.chunk(demo, horizon)   # view 0's rows come first
    poses = demo.ee_poses
    last = demo.length - 1
    # steps[s]: the own-frame motion from frame s to frame min(s + 1, last)
    steps = np.zeros((demo.length, 7))
    for s in range(demo.length):
        b = min(s + 1, last)
        local = poses[s].inverse().compose(poses[b])
        steps[s, :3] = local.translation
        steps[s, 3:6] = matrix_to_axis_angle(local.rotation)
        steps[s, 6] = 2.0 * demo.grasps[b, 0] - 1.0
    actions = steps[np.minimum(np.arange(demo.length)[:, None] + np.arange(horizon), last)]
    return data.TrainingRows(obs.images[:demo.length], obs.keypoints[:demo.length],
                             actions.reshape(demo.length, -1), 0)


def train_baseline_6dof(dataset_robot, cfg: policy.TrainConfig):
    """Diffusion over direct 6DoF deltas; robot-only by construction.

    Returns (model, per-epoch log). Alignment weights are forced to zero --
    with one embodiment there is nothing to align.
    """
    demos = list(dataset_robot)
    if not demos:
        raise EmptyDatasetError("baseline needs robot demonstrations")
    cfg = replace(cfg, lambda_kl=0.0, lambda_da=0.0)
    rows = data.TrainingRows.join([baseline_samples(d, cfg.horizon) for d in demos])
    model, log = policy.train_epochs(policy.build_model(
        cfg, rows.images.shape[1], target_dim=7 * cfg.horizon), rows)
    return model, [{key: entry[key] for key in ("epoch", "mse", "total")} for entry in log]


@dataclass(frozen=True)
class BaselineRunner:
    """Replan closure for the 6DoF-delta baseline (conditions on view 0 only)."""

    model: policy.PolicyModel

    @property
    def horizon(self) -> int:
        return self.model.cfg.horizon

    def chunk(self, task, state, cams, seed) -> ActionChunk:
        img, kps = sim.observe(state, cams[0], sim.robot_embodiment())
        kn = data.normalize_keypoints(kps, cams[0][0])
        rows = policy.sample_flat(self.model, img, kn, seed=seed).reshape(self.horizon, 7)
        ee = state.ee_pose
        rotations = np.empty((self.horizon, 3, 3))
        translations = np.empty((self.horizon, 3))
        for h in range(self.horizon):
            local = RigidTransform(axis_angle_to_matrix(rows[h, 3:6]), rows[h, :3])
            # predicted deltas are already EE-frame; pre-conjugate (with the
            # same SO(3) projection) so the rollout's world->EE conversion
            # lands back on them
            r = ee.rotation @ local.rotation @ ee.rotation.T
            rotations[h] = project_rotation(r)
            translations[h] = ee.rotation @ local.translation + ee.translation \
                - r @ ee.translation
            ee = ee.compose(local)
        grasps = rows[:, 6] > 0
        return ActionChunk(rotations, translations, grasps, np.zeros((self.horizon, 1)))
