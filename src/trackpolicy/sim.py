"""Kinematic tabletop world with a 6DoF end-effector, one movable box, two
fixed cameras, and scripted demonstrators for both embodiments.

World frame: z up, table surface at z=0, workspace roughly |x|,|y| <= 0.3 m.
The end-effector frame points its z axis along the fingers, so the home
orientation (fingers down) maps EE +z to world -z. States are immutable;
`step` returns a new state. No dynamics: the single physical interaction is
attachment — a grasped object moves rigidly with the end-effector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import (
    HUMAN,
    ROBOT,
    Demonstration,
    FrameView,
    KeypointSet2D,
)
from .errors import ScriptFailureError
from .geometry import (
    CameraIntrinsics,
    RigidTransform,
    axis_angle_to_matrix,
    look_at,
    matrix_to_axis_angle,
    project_points,
    rotation_angle,
)

# raster observation layout
RASTER_SIZE = 16
CH_OBJECT = 0
CH_EE = 1
CH_GOAL = 2

MAX_TRANSLATION = 0.05   # m per step
MAX_ROTATION = 0.2       # rad per step
ATTACH_DISTANCE = 0.01   # m from EE origin to object surface
GRASP_THRESHOLD = 0.015  # m, human grasp-label heuristic
CLOSURE_FRACTION = 0.25  # lateral finger narrowing when closed

# home pose: palm 12 cm above the table, fingers pointing down. Kept low so
# the camera depth (hence projected keypoint scale) stays nearly constant
# over an episode; large scale swings would widen the keypoint-layout
# distribution the retargeter has to denoise.
_HOME_ROTATION = np.array([[1.0, 0.0, 0.0],
                           [0.0, -1.0, 0.0],
                           [0.0, 0.0, -1.0]])
HOME_POSE = RigidTransform(_HOME_ROTATION, np.array([0.0, 0.0, 0.12]))


@dataclass(frozen=True)
class Action6DoF:
    """End-effector-frame increment plus a binary grasp command."""

    delta: RigidTransform
    grasp: int

    def __post_init__(self):
        object.__setattr__(self, "grasp", int(self.grasp))


@dataclass(frozen=True, slots=True)
class ObjectState:
    id: str
    pose: RigidTransform
    half_extents: np.ndarray
    attached: bool = False

    def __post_init__(self):
        he = np.asarray(self.half_extents, dtype=np.float64).reshape(3)
        if np.any(he <= 0):
            raise ValueError("half extents must be positive")
        object.__setattr__(self, "half_extents", he)


@dataclass(frozen=True, slots=True)
class SimState:
    ee_pose: RigidTransform
    gripper_closed: bool
    objects: tuple
    goal_center: np.ndarray
    rng_seed: int
    step_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "goal_center",
                           np.asarray(self.goal_center, dtype=np.float64).reshape(3))
        attached = [o for o in self.objects if o.attached]
        if len(attached) > 1:
            raise ValueError("at most one object may be attached")
        if attached and not self.gripper_closed:
            raise ValueError("attached object requires a closed gripper")

    def attached_object(self):
        for o in self.objects:
            if o.attached:
                return o
        return None


# ---------------------------------------------------------------------------
# embodiments


@dataclass(frozen=True)
class EmbodimentModel:
    """Keypoint layout rigidly attached to the end-effector frame.

    `finger_mask` marks the offsets whose x coordinate narrows toward the
    center axis when the gripper closes.
    """

    kind: str
    keypoint_offsets: np.ndarray   # (k, 3), EE frame, open configuration
    finger_mask: np.ndarray       # (k,) bool

    def __post_init__(self):
        off = np.asarray(self.keypoint_offsets, dtype=np.float64)
        mask = np.asarray(self.finger_mask, dtype=bool)
        if self.kind not in (HUMAN, ROBOT):
            raise ValueError(f"unknown embodiment kind {self.kind!r}")
        expected = 21 if self.kind == HUMAN else 5
        if off.shape != (expected, 3):
            raise ValueError(f"{self.kind} layout needs {expected} offsets, got {off.shape}")
        if mask.shape != (expected,):
            raise ValueError("finger_mask length must match offsets")
        if len({tuple(row) for row in off.round(9)}) != expected:
            raise ValueError("keypoint offsets must be distinct")
        object.__setattr__(self, "keypoint_offsets", off)
        object.__setattr__(self, "finger_mask", mask)

    @property
    def k(self) -> int:
        return self.keypoint_offsets.shape[0]

    def offsets_for(self, closed: bool) -> np.ndarray:
        if not closed:
            return self.keypoint_offsets
        off = self.keypoint_offsets.copy()
        off[self.finger_mask, 0] *= 1.0 - CLOSURE_FRACTION
        return off


def robot_embodiment() -> EmbodimentModel:
    """Parallel gripper: center point plus base/tip on each finger.

    Order: center, left base, left tip, right base, right tip — positionally
    aligned with the human wrist/thumb/index subset. The center point sits
    off the finger plane so the five points always span 3D (rigid fits need
    rank-3 configurations).
    """
    offsets = np.array([
        [0.000, 0.010, 0.000],   # center
        [-0.040, 0.000, 0.020],  # left finger base
        [-0.040, 0.000, 0.060],  # left finger tip
        [0.040, 0.000, 0.020],   # right finger base
        [0.040, 0.000, 0.060],   # right finger tip
    ])
    return EmbodimentModel(ROBOT, offsets, np.array([False, True, True, True, True]))


def human_embodiment() -> EmbodimentModel:
    """Procedural 21-point hand: wrist + five fingers x four points each.

    Finger order thumb, index, middle, ring, pinky; each finger stores
    knuckle, base, mid, tip, so the gripper-equivalent subset (wrist, thumb
    base/tip, index base/tip) is indices (0, 2, 4, 6, 8). The layout is
    intentionally asymmetric and wider than the gripper — closing that gap
    is the retargeter's job.
    """
    def finger(x0, x1, y, z0, z1):
        ts = np.array([0.1, 0.35, 0.7, 1.0])
        return np.stack([x0 + (x1 - x0) * ts,
                         y * (1.0 - 0.5 * ts),
                         z0 + (z1 - z0) * ts], axis=1)

    # short z extents on purpose: long fingers make the projected layout
    # swing with perspective as the hand moves, which widens the keypoint
    # distribution downstream learners (retargeter, track policy) must cover
    rows = [np.array([[0.000, 0.006, -0.015]])]           # wrist
    rows.append(finger(-0.018, -0.050, 0.004, 0.004, 0.032))   # thumb
    rows.append(finger(0.010, 0.045, 0.003, 0.008, 0.040))     # index
    rows.append(finger(0.016, 0.024, 0.008, 0.010, 0.044))     # middle
    rows.append(finger(0.020, 0.012, 0.013, 0.008, 0.038))     # ring
    rows.append(finger(0.024, 0.004, 0.018, 0.006, 0.030))     # pinky
    offsets = np.concatenate(rows, axis=0)
    mask = np.ones(21, dtype=bool)
    mask[0] = False
    return EmbodimentModel(HUMAN, offsets, mask)


def embodiment(kind: str) -> EmbodimentModel:
    if kind == ROBOT:
        return robot_embodiment()
    if kind == HUMAN:
        return human_embodiment()
    raise ValueError(f"unknown embodiment kind {kind!r}")


# ---------------------------------------------------------------------------
# tasks and cameras


@dataclass(frozen=True)
class TaskSpec:
    name: str
    object_box_low: np.ndarray    # uniform distribution over object start xy(z)
    object_box_high: np.ndarray
    goal_center: np.ndarray       # absolute, or offset from object start for pushes
    goal_is_offset: bool
    success_radius: float
    horizon: int                  # max episode length T

    def __post_init__(self):
        for name in ("object_box_low", "object_box_high", "goal_center"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.float64).reshape(3))
        if self.horizon < 1:
            raise ValueError("episode horizon must be >= 1")
        if self.success_radius <= 0:
            raise ValueError("success radius must be positive")


OBJECT_HALF_EXTENTS = np.array([0.03, 0.03, 0.03])
PUSH_DISTANCE = 0.08

_TASKS = {
    "reach": dict(goal_center=(0.10, 0.05, 0.12), goal_is_offset=False, horizon=40),
    "push_left": dict(goal_center=(-PUSH_DISTANCE, 0.0, 0.0), goal_is_offset=True, horizon=60),
    "push_right": dict(goal_center=(PUSH_DISTANCE, 0.0, 0.0), goal_is_offset=True, horizon=60),
    "pick_place": dict(goal_center=(0.12, -0.08, 0.03), goal_is_offset=False, horizon=80),
}

TASK_NAMES = tuple(_TASKS)


def make_task(name: str, **overrides) -> TaskSpec:
    if name not in _TASKS:
        raise ValueError(f"unknown task {name!r}; choose from {TASK_NAMES}")
    cfg = dict(
        name=name,
        object_box_low=(-0.05, -0.05, OBJECT_HALF_EXTENTS[2]),
        object_box_high=(0.05, 0.05, OBJECT_HALF_EXTENTS[2]),
        success_radius=0.03,
        **_TASKS[name],
    )
    cfg.update(overrides)
    return TaskSpec(**cfg)


def default_cameras() -> tuple:
    """Two fixed views on a vertical arc in front of the workspace, both
    looking at its center.

    Long focal length from 1.5 m out keeps projection near-orthographic, so
    the projected keypoint layout barely changes across the workspace.  The
    views sit on the *same* side (elevations 8 and 36 degrees) rather than
    mirrored left/right: that way the two views see nearly the same layout
    (only the vertical coordinate differs mildly) and per-view learners don't
    face a bimodal layout distribution, while the 28-degree ray separation
    still conditions triangulation (~10 mm of depth per pixel of disparity
    error, which receding-horizon replanning absorbs).
    """
    intr = CameraIntrinsics(fx=320.0, fy=320.0, cx=64.0, cy=64.0, width=128, height=128)
    target = np.array([0.0, 0.0, 0.08])
    radius = 1.5
    eyes = [target + radius * np.array([0.0, -np.cos(p), np.sin(p)])
            for p in np.deg2rad([8.0, 36.0])]
    return ((intr, look_at(eyes[0], target)),
            (intr, look_at(eyes[1], target)))


# ---------------------------------------------------------------------------
# core dynamics


def reset(task: TaskSpec, seed: int) -> SimState:
    """Deterministic initial state: object uniform in the task box, EE home."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(task.object_box_low, task.object_box_high)
    obj = ObjectState("box0", RigidTransform(np.eye(3), pos), OBJECT_HALF_EXTENTS)
    goal = pos + task.goal_center if task.goal_is_offset else task.goal_center
    return SimState(ee_pose=HOME_POSE, gripper_closed=False, objects=(obj,),
                    goal_center=goal, rng_seed=int(seed), step_count=0)


def _clamp_delta(delta: RigidTransform) -> RigidTransform:
    t = delta.translation
    norm = np.linalg.norm(t)
    if norm > MAX_TRANSLATION:
        t = t * (MAX_TRANSLATION / norm)
    r = delta.rotation
    angle = rotation_angle(r)
    if angle > MAX_ROTATION:
        axis = matrix_to_axis_angle(r) / angle
        r = axis_angle_to_matrix(axis * MAX_ROTATION)
    return RigidTransform(r, t)


def surface_distance(point: np.ndarray, obj: ObjectState) -> float:
    """Distance from a world point to the object's box surface; 0 inside."""
    local = obj.pose.inverse().apply(point)
    outside = np.maximum(np.abs(local) - obj.half_extents, 0.0)
    return float(np.linalg.norm(outside))


def step(state: SimState, action: Action6DoF) -> SimState:
    """Apply one clamped EE-frame increment; handle attach/detach."""
    delta = _clamp_delta(action.delta)
    new_ee = state.ee_pose.compose(delta)
    grasp = bool(action.grasp)

    objects = []
    attach_done = any(o.attached for o in state.objects) and grasp
    for obj in state.objects:
        if obj.attached and grasp:
            # rigid ride: keep the object's pose in the EE frame constant
            rel = state.ee_pose.inverse().compose(obj.pose)
            objects.append(replace(obj, pose=new_ee.compose(rel)))
        elif obj.attached and not grasp:
            objects.append(replace(obj, attached=False))
        else:
            objects.append(obj)

    if grasp and not attach_done:
        ee_pos = new_ee.translation
        candidates = [(surface_distance(ee_pos, o), i) for i, o in enumerate(objects)
                      if not o.attached]
        candidates = [(d, i) for d, i in candidates if d <= ATTACH_DISTANCE]
        if candidates:
            _, i = min(candidates)
            objects[i] = replace(objects[i], attached=True)

    return SimState(ee_pose=new_ee, gripper_closed=grasp, objects=tuple(objects),
                    goal_center=state.goal_center, rng_seed=state.rng_seed,
                    step_count=state.step_count + 1)


def keypoints3d(state: SimState, emb: EmbodimentModel) -> np.ndarray:
    """(k, 3) world-frame keypoints for the current gripper state."""
    return state.ee_pose.apply(emb.offsets_for(state.gripper_closed))


def grasp_label(state: SimState, emb: EmbodimentModel) -> int:
    """Ground-truth gripper state for robots; proximity heuristic for hands:
    thumb tip AND at least one other fingertip within GRASP_THRESHOLD of an
    object's surface."""
    if emb.kind == ROBOT:
        return int(state.gripper_closed)
    pts = keypoints3d(state, emb)
    thumb_tip = pts[4]
    other_tips = pts[[8, 12, 16, 20]]
    for obj in state.objects:
        if surface_distance(thumb_tip, obj) >= GRASP_THRESHOLD:
            continue
        for tip in other_tips:
            if surface_distance(tip, obj) < GRASP_THRESHOLD:
                return 1
    return 0


# ---------------------------------------------------------------------------
# observation


def _splat(channel: np.ndarray, uv: np.ndarray, weights, cell: float) -> None:
    """Bilinear accumulation of pixel points onto the RASTER_SIZE grid.

    `cell` is the pixel size of one raster cell; cell (i, j) covers pixels
    [j*cell, (j+1)*cell) x [i*cell, (i+1)*cell) with its center splat target
    at (j*cell + cell/2, i*cell + cell/2). Mass outside the grid is clipped.
    """
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
        # rounding-noise fractions would light up cells a point exactly on a
        # cell center should never touch
        ok = (xs >= 0) & (xs < RASTER_SIZE) & (ys >= 0) & (ys < RASTER_SIZE) & (w > 1e-12)
        np.add.at(channel, (ys[ok], xs[ok]), (w * weights)[ok])


def observe(state: SimState, cam, emb: EmbodimentModel, view_id: int = 0):
    """(feature image, 2D keypoints, grasp label) for one camera.

    Channels: object center, end-effector keypoints (total mass 1), goal
    region — a rasterized stand-in for an RGB render.
    """
    intr, pose = cam
    cell = intr.width / RASTER_SIZE
    img = np.zeros((3, RASTER_SIZE, RASTER_SIZE))
    # one projection for object centers, keypoints and goal: rows of a stack
    # project exactly as they would alone
    n_obj = len(state.objects)
    uv_all = project_points(np.vstack([*(obj.pose.translation for obj in state.objects),
                                       keypoints3d(state, emb), state.goal_center]),
                            intr, pose)
    for i in range(n_obj):
        _splat(img[CH_OBJECT], uv_all[i], 1.0, cell)
    uv = uv_all[n_obj:n_obj + emb.k]
    _splat(img[CH_EE], uv, 1.0 / emb.k, cell)
    _splat(img[CH_GOAL], uv_all[-1], 1.0, cell)
    kps = KeypointSet2D(uv, emb.kind, view_id)
    return img, kps, grasp_label(state, emb)


def success(task: TaskSpec, state: SimState) -> bool:
    if task.name == "reach":
        return bool(np.linalg.norm(state.ee_pose.translation - state.goal_center)
                    <= task.success_radius)
    obj = state.objects[0]
    if obj.attached:
        return False
    delta_xy = obj.pose.translation[:2] - state.goal_center[:2]
    if task.name in ("push_left", "push_right"):
        return bool(np.linalg.norm(delta_xy) <= task.success_radius)
    if task.name == "pick_place":
        resting = abs(obj.pose.translation[2] - OBJECT_HALF_EXTENTS[2]) <= 0.02
        return bool(np.linalg.norm(delta_xy) <= task.success_radius and resting)
    raise ValueError(f"unknown task {task.name!r}")


# ---------------------------------------------------------------------------
# scripted demonstrators

_STEP_GAIN = 0.04       # max commanded translation per step (under the clamp)
_WAYPOINT_TOL = 0.004
_GRASP_HEIGHT = 0.006   # palm clearance above the object's top face
_APPROACH_HEIGHT = 0.03


def _move_toward(current: np.ndarray, target: np.ndarray) -> np.ndarray:
    err = target - current
    norm = np.linalg.norm(err)
    if norm <= _STEP_GAIN:
        return err
    return err * (_STEP_GAIN / norm)


def _demo_waypoints(task: TaskSpec, state: SimState) -> list:
    """(target position, grasp flag) controller phases for the scripted expert."""
    obj = state.objects[0].pose.translation
    top = obj[2] + OBJECT_HALF_EXTENTS[2]
    grasp_z = top + _GRASP_HEIGHT
    goal = state.goal_center
    if task.name == "reach":
        return [(goal, 0)]
    if task.name in ("push_left", "push_right"):
        return [
            (np.array([obj[0], obj[1], top + _APPROACH_HEIGHT]), 0),
            (np.array([obj[0], obj[1], grasp_z]), 0),
            (np.array([obj[0], obj[1], grasp_z]), 1),          # close
            (np.array([goal[0], goal[1], grasp_z]), 1),        # drag
            (np.array([goal[0], goal[1], grasp_z]), 0),        # release
        ]
    if task.name == "pick_place":
        # fixed lift height (from the resting pose) — the object rides the
        # gripper during the lift, so an object-relative target would recede
        lift_z = 2 * OBJECT_HALF_EXTENTS[2] + _APPROACH_HEIGHT
        place_palm_z = goal[2] + OBJECT_HALF_EXTENTS[2] + _GRASP_HEIGHT
        return [
            (np.array([obj[0], obj[1], top + _APPROACH_HEIGHT]), 0),
            (np.array([obj[0], obj[1], grasp_z]), 0),
            (np.array([obj[0], obj[1], grasp_z]), 1),
            (np.array([obj[0], obj[1], lift_z]), 1),
            (np.array([goal[0], goal[1], lift_z]), 1),
            (np.array([goal[0], goal[1], place_palm_z]), 1),
            (np.array([goal[0], goal[1], place_palm_z]), 0),
        ]
    raise ValueError(f"unknown task {task.name!r}")


def scripted_policy(task: TaskSpec, state: SimState, phase: int):
    """(action, next phase). Proportional position control, no rotation."""
    waypoints = _demo_waypoints(task, state)
    if phase >= len(waypoints):
        phase = len(waypoints) - 1
    target, grasp = waypoints[phase]
    pos = state.ee_pose.translation
    err = np.linalg.norm(target - pos)
    want_grasp_change = grasp != int(state.gripper_closed)
    if err <= _WAYPOINT_TOL and not want_grasp_change and phase < len(waypoints) - 1:
        phase += 1
        target, grasp = waypoints[phase]
    # world-frame step, expressed in the EE frame for the action interface
    world_step = _move_toward(pos, target)
    ee_step = state.ee_pose.rotation.T @ world_step
    return Action6DoF(RigidTransform(np.eye(3), ee_step), grasp), phase


def resume_phase(task: TaskSpec, state: SimState) -> int:
    """Waypoint phase consistent with an arbitrary mid-episode state.

    Replanning controllers re-enter the scripted expert mid-episode;
    restarting at phase 0 would re-open a closed gripper (the phase-0
    waypoint commands grasp 0). The phase is recovered from state predicates
    on the expert's own waypoints instead: chosen so that continuing from
    the recovered phase emits the same actions the uninterrupted expert
    would at every state of its trajectory.
    """
    if task.name == "reach":
        return 0
    targets = [target for target, _ in _demo_waypoints(task, state)]
    pos = state.ee_pose.translation

    def near(phase: int, dims: int = 3) -> bool:
        return bool(np.linalg.norm(pos[:dims] - targets[phase][:dims]) <= _WAYPOINT_TOL)

    if not state.gripper_closed:
        # phase 1 starts only once the approach waypoint is reached in 3D: a
        # state over the object but still above it keeps approaching
        return 2 if near(1) else 1 if near(0) else 0
    if task.name in ("push_left", "push_right"):
        return 4 if near(3, dims=2) else 3
    # pick_place: _demo_waypoints has rejected every other task name
    at_goal_xy = near(4, dims=2)
    if at_goal_xy and abs(pos[2] - targets[5][2]) <= _WAYPOINT_TOL:
        return 6
    if at_goal_xy:
        return 5
    if pos[2] >= targets[3][2] - _WAYPOINT_TOL:
        return 4
    return 3


def scripted_demo(task: TaskSpec, emb: EmbodimentModel, seed: int,
                  jitter_px: float = 1.0) -> Demonstration:
    """Roll the scripted expert on `task` and record one observation frame
    per default camera at every state.

    Human demonstrations add truncated-Gaussian pixel jitter (sigma =
    jitter_px, cut at 3 sigma) to the recorded keypoints, emulating hand
    tracker noise; the underlying trajectory is identical to the robot's.
    """
    cameras = default_cameras()
    state = reset(task, seed)
    jitter_rng = np.random.default_rng([int(seed), 9173]) if emb.kind == HUMAN else None

    frames = []
    ee_poses = []

    def record(st: SimState):
        views = []
        for v, cam in enumerate(cameras):
            img, kps, grasp = observe(st, cam, emb, view_id=v)
            if jitter_rng is not None:
                noise = np.clip(jitter_rng.normal(0.0, jitter_px, size=kps.points.shape),
                                -3 * jitter_px, 3 * jitter_px)
                kps = KeypointSet2D(kps.points + noise, kps.embodiment, v)
            views.append(FrameView(img, kps, grasp))
        frames.append(tuple(views))
        if emb.kind == ROBOT:
            # proprioception is a robot-only luxury; human recordings are
            # camera-only, which is what keeps the 6DoF baseline off them
            ee_poses.append(st.ee_pose)

    phase = 0
    record(state)
    for _ in range(task.horizon):
        action, phase = scripted_policy(task, state, phase)
        state = step(state, action)
        record(state)
        if success(task, state):
            return Demonstration(
                embodiment=emb.kind, frames=tuple(frames), task_name=task.name,
                seed=seed, cameras=cameras, ee_poses=tuple(ee_poses))
    raise ScriptFailureError(
        f"scripted {task.name} demo (seed {seed}, {emb.kind}) did not succeed "
        f"within {task.horizon} steps")


# direction profile of the push family -> the concrete tasks it cycles through
_PUSH_PROFILES = {"right": ("push_right",), "left": ("push_left",),
                  "both": ("push_right", "push_left")}


def generate_demos(task_name: str, kind: str, count: int, profile: str = "default",
                   seed_start: int = 0) -> list:
    """Batch of scripted demos, seeds seed_start..seed_start+count-1.

    task_name "push" is shorthand for the push family and needs a direction
    profile ("right", "left" or "both"); "both" alternates right/left so
    every prefix of the batch stays direction-balanced. Any other task name
    is a concrete task and takes profile "default".
    """
    if task_name == "push":
        if profile not in _PUSH_PROFILES:
            raise ValueError(f"push needs a profile from {tuple(_PUSH_PROFILES)}, "
                             f"got {profile!r}")
        tasks = [make_task(name) for name in _PUSH_PROFILES[profile]]
    elif profile == "default":
        tasks = [make_task(task_name)]
    else:
        raise ValueError(f"direction profiles only apply to push, not {task_name}")
    emb = embodiment(kind)
    return [scripted_demo(tasks[i % len(tasks)], emb, seed_start + i) for i in range(count)]


# band the end-effector actually visits across tasks: spawn box plus push
# travel laterally, grasp height up to home height vertically
WORKSPACE_LOW = np.array([-0.13, -0.09, 0.06])
WORKSPACE_HIGH = np.array([0.13, 0.09, 0.13])


def random_keypoint_frames(kind: str, n_poses: int, seed: int) -> list:
    """Projected keypoint frames at uniform-random workspace poses.

    One KeypointSet2D (pixel coordinates) per (pose, default camera view),
    open/closed drawn 50/50, no tracker jitter — the clean layout
    distribution used to train and evaluate layout-level learners without
    tying them to any task script.
    """
    emb = embodiment(kind)
    cams = default_cameras()
    rng = np.random.default_rng([int(seed), 7331])
    out = []
    for _ in range(n_poses):
        pos = rng.uniform(WORKSPACE_LOW, WORKSPACE_HIGH)
        closed = bool(rng.integers(2))
        state = SimState(ee_pose=RigidTransform(HOME_POSE.rotation, pos),
                         gripper_closed=closed, objects=(),
                         goal_center=np.zeros(3), rng_seed=int(seed), step_count=0)
        pts3 = keypoints3d(state, emb)
        for v, (intr, pose) in enumerate(cams):
            out.append(KeypointSet2D(project_points(pts3, intr, pose), kind, v))
    return out
