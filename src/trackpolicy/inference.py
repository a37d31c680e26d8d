"""Test-time action recovery and closed-loop evaluation.

The 2D-to-action path: sample a motion track per camera view (shared seed),
denormalize to pixels, triangulate every keypoint of every step across the
two views, fit per-step rigid transforms to the 3D keypoint sequence, and
execute the first m deltas before re-predicting. `chunk_from_tracks` makes
one stacked call each to `triangulate`, `reprojection_residual_px` and
`tracks_to_actions` per chunk; each row of those stacks is bit-identical to
the per-point or per-frame call. Also houses the 6DoF-delta baseline (same
encoder+diffusion machinery, direct action targets, no triangulation) and
the two built-in evaluation suites.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import data, policy, sim
from .diffusion import DiffusionSchedule
from .errors import EmptyDatasetError, MissingArtifactError
from .geometry import (
    RigidTransform,
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

    deltas are world-frame rigid motions of the tracked keypoints (frame h ->
    h+1); the rollout conjugates each one by the live end-effector pose to
    get the robot's own-frame increment. residuals_px[h, j] is the
    triangulation reprojection gap for keypoint j at predicted frame h+1 --
    zero iff the two views' predictions are consistent with one 3D point.
    """

    deltas: tuple             # H RigidTransform
    grasps: np.ndarray        # (H,) bool
    residuals_px: np.ndarray  # (H, k)

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(self.deltas))
        object.__setattr__(self, "grasps", np.asarray(self.grasps, dtype=bool))
        res = np.asarray(self.residuals_px, dtype=np.float64)
        if not np.all(np.isfinite(res)):
            raise ValueError("triangulation residuals must be finite")
        object.__setattr__(self, "residuals_px", res)
        if not (len(self.deltas) == len(self.grasps) == res.shape[0]):
            raise ValueError(
                f"deltas/grasps/residuals lengths disagree: "
                f"{len(self.deltas)}/{len(self.grasps)}/{res.shape[0]}")

    @property
    def horizon(self) -> int:
        return len(self.deltas)


@dataclass(frozen=True)
class EpisodeResult:
    success: bool
    steps_used: int
    residual_log: tuple       # mean residual px per executed step
    final_ee: np.ndarray
    final_object: np.ndarray | None


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
    deltas = tracks_to_actions(pts3.reshape(*px0.shape[:2], 3))
    grasps = np.asarray(g0, dtype=bool) & np.asarray(g1, dtype=bool)
    return ActionChunk(tuple(deltas), grasps, residuals[1:])


def predict_chunk(model: policy.PolicyModel, obs0, obs1, cams,
                  seed: int = 0) -> ActionChunk:
    """Sample a track in each view and recover 6DoF deltas plus grasps.

    obs0/obs1: (feature image, KeypointSet2D in pixels) per view. The same
    seed drives both views' samplers -- a mild consistency aid. Leftover
    cross-view disagreement is not gated: it stays in the chunk's
    residuals_px.
    """
    per_view = []
    for v, (img, kps) in enumerate((obs0, obs1)):
        stats = data.stats_for_camera(cams[v][0])
        kn = data.normalize_keypoints(kps, cams[v][0])
        track = policy.sample(model, img, kn, seed=seed)
        absolute = np.concatenate([kn.points[None], track.absolute(kn.points)], axis=0)
        per_view.append((stats.denormalize(absolute), track.grasps))
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
        obs = [sim.observe(state, cams[v], emb, view_id=v)[:2] for v in range(2)]
        return predict_chunk(self.model, obs[0], obs[1], cams, seed=seed)


@dataclass(frozen=True)
class OracleRunner:
    """Ground-truth-track stand-in with the same replanning interface."""

    horizon: int = 16

    def chunk(self, task, state, cams, seed) -> ActionChunk:
        return oracle_chunk(task, state, sim.robot_embodiment(), cams, self.horizon)


def _as_runner(model):
    if hasattr(model, "chunk"):
        return model
    if model.target_dim == 7 * model.cfg.horizon:
        return BaselineRunner(model)
    return TrackPolicyRunner(model)


def rollout(model, task: sim.TaskSpec, seed: int,
            exec_horizon: int = DEFAULT_EXEC_HORIZON) -> EpisodeResult:
    """observe -> predict chunk -> execute first m steps -> repeat.

    Accepts a PolicyModel (track or baseline head, told apart by target
    width) or any runner with .chunk/.horizon. Observes through
    sim.default_cameras(). Stops at task success or the task's step budget;
    logs each executed step's mean triangulation residual.
    """
    runner = _as_runner(model)
    if not 1 <= exec_horizon <= runner.horizon:
        raise ValueError(
            f"exec horizon must be in [1, {runner.horizon}], got {exec_horizon}")
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
            local = world_to_ee_delta(state.ee_pose, chunk.deltas[h])
            state = sim.step(state, sim.Action6DoF(local, int(chunk.grasps[h])))
            residual_log.append(float(chunk.residuals_px[h].mean()))
            steps += 1
            if sim.success(task, state):
                ok = True
                break
    obj = state.objects[0].pose.translation if state.objects else None
    return EpisodeResult(bool(ok), steps, tuple(residual_log),
                         state.ee_pose.translation, obj)


def success_rate(model, task: sim.TaskSpec, seeds,
                 exec_horizon: int = DEFAULT_EXEC_HORIZON) -> float:
    results = [rollout(model, task, s, exec_horizon) for s in seeds]
    return float(np.mean([r.success for r in results]))


# ---------------------------------------------------------------------------
# 6DoF-delta baseline


@dataclass(frozen=True)
class DeltaSample:
    """Baseline supervision row: view-0 observation -> H own-frame actions."""

    image: np.ndarray
    keypoints_norm: np.ndarray
    actions: np.ndarray      # (H, 7): translation 3, axis-angle 3, grasp +-1
    embodiment: str

    def flat_target(self) -> np.ndarray:
        return self.actions.reshape(-1)


def baseline_samples(demo: data.Demonstration, horizon: int) -> list:
    """Per-timestep (H, 7) end-effector delta targets from proprioception.

    Requires robot demos: human recordings carry no ee_poses, which is the
    structural reason this baseline cannot use them. End-of-demo targets are
    edge-padded with zero motion, mirroring the track chunker.
    """
    if demo.embodiment != data.ROBOT or not demo.ee_poses:
        raise EmptyDatasetError(
            "6DoF baseline needs robot demonstrations with end-effector poses")
    poses = demo.ee_poses
    last = demo.length - 1
    out = []
    for t in range(demo.length):
        rows = np.zeros((horizon, 7))
        for h in range(horizon):
            a = min(t + h, last)
            b = min(t + h + 1, last)
            local = poses[a].inverse().compose(poses[b])
            rows[h, :3] = local.translation
            rows[h, 3:6] = matrix_to_axis_angle(local.rotation)
            rows[h, 6] = 2.0 * demo.frames[b][0].grasp - 1.0
        kn = data.normalize_keypoints(demo.frames[t][0].keypoints, demo.cameras[0][0])
        out.append(DeltaSample(demo.frames[t][0].image, kn.points, rows, data.ROBOT))
    return out


def train_baseline_6dof(dataset_robot, cfg: policy.TrainConfig,
                        schedule: DiffusionSchedule | None = None):
    """Diffusion over direct 6DoF deltas; robot-only by construction.

    Returns (model, per-epoch log). Alignment weights are forced to zero --
    with one embodiment there is nothing to align.
    """
    demos = list(dataset_robot)
    if not demos:
        raise EmptyDatasetError("baseline needs robot demonstrations")
    cfg = replace(cfg, lambda_kl=0.0, lambda_da=0.0)
    samples = [s for d in demos for s in baseline_samples(d, cfg.horizon)]
    image_dim = int(np.asarray(samples[0].image).size)
    model = policy.build_model(cfg, image_dim, target_dim=7 * cfg.horizon,
                               schedule=schedule)
    log = [{key: entry[key] for key in ("epoch", "mse", "total")}
           for entry in policy.train_epochs(model, [], samples)]
    return model, log


@dataclass(frozen=True)
class BaselineRunner:
    """Replan closure for the 6DoF-delta baseline (conditions on view 0 only)."""

    model: policy.PolicyModel

    @property
    def horizon(self) -> int:
        return self.model.cfg.horizon

    def chunk(self, task, state, cams, seed) -> ActionChunk:
        img, kps, _ = sim.observe(state, cams[0], sim.robot_embodiment(), view_id=0)
        kn = data.normalize_keypoints(kps, cams[0][0])
        rows = policy.sample_flat(self.model, img, kn, seed=seed).reshape(self.horizon, 7)
        ee = state.ee_pose
        deltas = []
        for h in range(self.horizon):
            local = RigidTransform(axis_angle_to_matrix(rows[h, 3:6]), rows[h, :3])
            # predicted deltas are already EE-frame; pre-conjugate (with the
            # same SO(3) projection) so the rollout's world->EE conversion
            # lands back on them
            r = ee.rotation @ local.rotation @ ee.rotation.T
            t = ee.rotation @ local.translation + ee.translation \
                - r @ ee.translation
            deltas.append(RigidTransform(project_rotation(r), t))
            ee = ee.compose(local)
        grasps = rows[:, 6] > 0
        return ActionChunk(tuple(deltas), grasps, np.zeros((self.horizon, 1)))


# ---------------------------------------------------------------------------
# built-in experiments

GRID_ROBOT_COUNTS = (5, 15, 25)
GRID_HUMAN_COUNTS = (0, 20, 60)
EXPERIMENTS = ("scaling-grid", "direction-generalization")

_EVAL_SEED_BASE = 10_000   # clear of every demo-generation seed


def dataset_filename(task: str, embodiment: str, count: int,
                     profile: str = "default") -> str:
    return f"{task}_{embodiment}_{profile}_{count}.demos"


def load_required_dataset(data_dir, task, embodiment, count, profile="default"):
    """Load a generated dataset or fail with the artifact id."""
    name = dataset_filename(task, embodiment, count, profile)
    path = os.path.join(data_dir, name)
    if not os.path.exists(path):
        raise MissingArtifactError(
            f"dataset {name!r} not found under {data_dir}; generate it first",
            artifact=name)
    demos = data.load_dataset(path)
    if len(demos) < count:
        raise MissingArtifactError(
            f"dataset {name!r} holds {len(demos)} demos, need {count}",
            artifact=name)
    return demos


def _write_metrics(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _grid_cfg(cfg: policy.TrainConfig, n_human: int) -> policy.TrainConfig:
    # alignment losses are undefined without a human side
    return replace(cfg, lambda_kl=0.0, lambda_da=0.0) if n_human == 0 else cfg


def eval_suite(experiment: str, data_dir, out_dir,
               cfg: policy.TrainConfig | None = None, n_seeds: int | None = None,
               exec_horizon: int = DEFAULT_EXEC_HORIZON, log_fn=None) -> str:
    """Run a built-in experiment; returns the metrics file path.

    scaling-grid: train on {5,15,25} robot x {0,20,60} human push demos, one
    success rate per cell. direction-generalization: robot demos push-right
    only, human demos both directions; evaluates the co-trained policy, the
    robot-only ablation, and the 6DoF baseline on both push directions.
    """
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}")
    cfg = cfg or policy.TrainConfig()
    os.makedirs(out_dir, exist_ok=True)
    records = []
    note = log_fn or (lambda rec: None)

    if experiment == "scaling-grid":
        n_seeds = 50 if n_seeds is None else n_seeds
        task = sim.make_task("push_right")
        robot_all = load_required_dataset(data_dir, "push", data.ROBOT,
                                          max(GRID_ROBOT_COUNTS), "right")
        human_all = load_required_dataset(data_dir, "push", data.HUMAN,
                                          max(GRID_HUMAN_COUNTS), "right")
        seeds = range(_EVAL_SEED_BASE, _EVAL_SEED_BASE + n_seeds)
        for nr in GRID_ROBOT_COUNTS:
            for nh in GRID_HUMAN_COUNTS:
                t0 = time.perf_counter()
                model, _ = policy.train(human_all[:nh], robot_all[:nr],
                                        _grid_cfg(cfg, nh))
                t1 = time.perf_counter()
                rate = success_rate(model, task, seeds, exec_horizon)
                rec = {"experiment": experiment, "robot": nr, "human": nh,
                       "n_seeds": n_seeds, "success_rate": rate,
                       "train_seconds": round(t1 - t0, 3),
                       "eval_seconds": round(time.perf_counter() - t1, 3)}
                records.append(rec)
                note(rec)
    else:
        n_seeds = 20 if n_seeds is None else n_seeds
        robot_right = load_required_dataset(data_dir, "push", data.ROBOT, 25, "right")
        human_both = load_required_dataset(data_dir, "push", data.HUMAN, 60, "both")
        models = {
            "mt_pi_hr": policy.train(human_both, robot_right, cfg)[0],
            "mt_pi_robot_only": policy.train(
                [], robot_right, replace(cfg, lambda_kl=0.0, lambda_da=0.0))[0],
            "baseline_6dof": train_baseline_6dof(robot_right, cfg)[0],
        }
        seeds = range(_EVAL_SEED_BASE, _EVAL_SEED_BASE + n_seeds)
        for model_name, model in models.items():
            for direction in ("left", "right"):
                task = sim.make_task(f"push_{direction}")
                rate = success_rate(model, task, seeds, exec_horizon)
                rec = {"experiment": experiment, "model": model_name,
                       "direction": direction, "n_seeds": n_seeds,
                       "success_rate": rate}
                records.append(rec)
                note(rec)

    path = os.path.join(out_dir, f"{experiment}.metrics.jsonl")
    _write_metrics(path, records)
    return path
