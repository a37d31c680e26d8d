"""Kinematic tabletop world with a 6DoF end-effector, one movable box, two
fixed cameras, and scripted demonstrators for both embodiments.

World frame: z up, table surface at z=0, workspace roughly |x|,|y| <= 0.3 m.
The end-effector frame points its z axis along the fingers, so the home
orientation (fingers down) maps EE +z to world -z. States are immutable;
`step` returns a new state. No dynamics: the single physical interaction is
attachment -- a box the closed gripper holds (`SimState.box_attached`)
moves rigidly with the end-effector until the gripper opens.

Observations come from one renderer, `render`, which rasterizes a list of
states through one camera in a single pass; `observe` is its one-state case,
and `scripted_demo` rolls the expert out first and then renders the whole
trajectory once per camera.

Hot-path convention. The scripted expert and `step` run once per simulated
step (16 per oracle replan, every state of every demo), on 3-vectors, where a
numpy call costs more than its arithmetic. So:

* the norm of a 3- or 2-vector is `math.sqrt(v.dot(v))`, numpy's own
  `norm` formula for a 1-D float vector, so it is bit-identical to
  `np.linalg.norm`;
* waypoints are plain float tuples and only the selected target becomes an
  array;
* the held box's ride computes the products `inverse()` and `compose()`
  would, and builds only the final, checked `RigidTransform`;
* `geometry.rotation_angle` traces and clips on plain floats but keeps
  `np.arccos`, whose rounding `math.acos` does not match.

Every transform stored in a state or returned still goes through the checked
`RigidTransform` constructor. `robot_embodiment`, `human_embodiment` and
`default_cameras` are built once and shared by every caller; their arrays
are read-only, so no caller can change another's keypoints or cameras.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
ATTACH_DISTANCE = 0.01   # m from EE origin to box surface
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
_IDENTITY = np.eye(3)
_IDENTITY.flags.writeable = False


@dataclass(frozen=True)
class Action6DoF:
    """End-effector-frame increment plus a binary grasp command. grasp is 0
    or 1 (ValueError otherwise), stored as int."""

    delta: RigidTransform
    grasp: int

    def __post_init__(self):
        if self.grasp not in (0, 1):
            raise ValueError(f"grasp must be 0 or 1, got {self.grasp!r}")
        object.__setattr__(self, "grasp", int(self.grasp))


@dataclass(frozen=True, slots=True)
class SimState:
    """End-effector pose and gripper, the one box's pose (half extents
    `OBJECT_HALF_EXTENTS`) and whether the gripper, which must then be
    closed, holds it, the goal, and the number of steps taken."""

    ee_pose: RigidTransform
    gripper_closed: bool
    box_pose: RigidTransform
    box_attached: bool
    goal_center: np.ndarray
    step_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "goal_center",
                           np.asarray(self.goal_center, dtype=np.float64).reshape(3))
        if self.box_attached and not self.gripper_closed:
            raise ValueError("an attached box requires a closed gripper")


# ---------------------------------------------------------------------------
# embodiments


@dataclass(frozen=True)
class EmbodimentModel:
    """Keypoint layout rigidly attached to the end-effector frame.

    `finger_mask` marks the offsets whose x coordinate narrows toward the
    center axis when the gripper closes. Both are stored as read-only
    copies, since the built-in models are shared by every caller, and so is
    the closed layout, built once here.
    """

    kind: str
    keypoint_offsets: np.ndarray   # (k, 3), EE frame, open configuration
    finger_mask: np.ndarray       # (k,) bool

    def __post_init__(self):
        off = np.array(self.keypoint_offsets, dtype=np.float64)
        mask = np.array(self.finger_mask, dtype=bool)
        if self.kind not in (HUMAN, ROBOT):
            raise ValueError(f"unknown embodiment kind {self.kind!r}")
        expected = 21 if self.kind == HUMAN else 5
        if off.shape != (expected, 3):
            raise ValueError(f"{self.kind} layout needs {expected} offsets, got {off.shape}")
        if mask.shape != (expected,):
            raise ValueError("finger_mask length must match offsets")
        if len({tuple(row) for row in off.round(9)}) != expected:
            raise ValueError("keypoint offsets must be distinct")
        closed = off.copy()
        closed[mask, 0] *= 1.0 - CLOSURE_FRACTION
        for arr in (off, mask, closed):
            arr.flags.writeable = False
        object.__setattr__(self, "keypoint_offsets", off)
        object.__setattr__(self, "finger_mask", mask)
        object.__setattr__(self, "_closed_offsets", closed)

    @property
    def k(self) -> int:
        return self.keypoint_offsets.shape[0]

    def offsets_for(self, closed: bool) -> np.ndarray:
        """(k, 3) offsets of the open or the closed layout, each a read-only
        array built once per model."""
        return self._closed_offsets if closed else self.keypoint_offsets


@lru_cache(maxsize=None)
def robot_embodiment() -> EmbodimentModel:
    """Parallel gripper: center point plus base/tip on each finger.

    Order: center, left base, left tip, right base, right tip — positionally
    aligned with the human wrist/thumb/index subset. The center point sits
    off the finger plane so the five points always span 3D (rigid fits need
    rank-3 configurations). Built once; every call returns that model.
    """
    offsets = np.array([
        [0.000, 0.010, 0.000],   # center
        [-0.040, 0.000, 0.020],  # left finger base
        [-0.040, 0.000, 0.060],  # left finger tip
        [0.040, 0.000, 0.020],   # right finger base
        [0.040, 0.000, 0.060],   # right finger tip
    ])
    return EmbodimentModel(ROBOT, offsets, np.array([False, True, True, True, True]))


@lru_cache(maxsize=None)
def human_embodiment() -> EmbodimentModel:
    """Procedural 21-point hand: wrist + five fingers x four points each.

    Finger order thumb, index, middle, ring, pinky; each finger stores
    knuckle, base, mid, tip, so the gripper-equivalent subset (wrist, thumb
    base/tip, index base/tip) is indices (0, 2, 4, 6, 8). The layout is
    intentionally asymmetric and wider than the gripper — closing that gap
    is the retargeter's job. Built once; every call returns that model.
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
        if (isinstance(self.horizon, bool) or not isinstance(self.horizon, (int, np.integer))
                or self.horizon < 1):
            raise ValueError(f"episode horizon must be an integer >= 1, got {self.horizon!r}")
        # written so that NaN fails it
        if not 0 < self.success_radius < np.inf:
            raise ValueError(f"success radius must be finite and > 0, got {self.success_radius!r}")


OBJECT_HALF_EXTENTS = np.array([0.03, 0.03, 0.03])
PUSH_DISTANCE = 0.08

_TASKS = {
    "reach": dict(goal_center=(0.10, 0.05, 0.12), goal_is_offset=False, horizon=40),
    "push_left": dict(goal_center=(-PUSH_DISTANCE, 0.0, 0.0), goal_is_offset=True, horizon=60),
    "push_right": dict(goal_center=(PUSH_DISTANCE, 0.0, 0.0), goal_is_offset=True, horizon=60),
    "pick_place": dict(goal_center=(0.12, -0.08, 0.03), goal_is_offset=False, horizon=80),
}

TASK_NAMES = tuple(_TASKS)


def make_task(name: str) -> TaskSpec:
    if name not in _TASKS:
        raise ValueError(f"unknown task {name!r}; choose from {TASK_NAMES}")
    return TaskSpec(name=name,
                    object_box_low=(-0.05, -0.05, OBJECT_HALF_EXTENTS[2]),
                    object_box_high=(0.05, 0.05, OBJECT_HALF_EXTENTS[2]),
                    success_radius=0.03,
                    **_TASKS[name])


@lru_cache(maxsize=None)
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

    Built once; every call returns the same tuple, with read-only pose
    arrays.
    """
    intr = CameraIntrinsics(fx=320.0, fy=320.0, cx=64.0, cy=64.0, width=128, height=128)
    target = np.array([0.0, 0.0, 0.08])
    radius = 1.5
    eyes = [target + radius * np.array([0.0, -np.cos(p), np.sin(p)])
            for p in np.deg2rad([8.0, 36.0])]
    poses = [look_at(eye, target) for eye in eyes]
    for pose in poses:
        pose.rotation.flags.writeable = False
        pose.translation.flags.writeable = False
    return tuple((intr, pose) for pose in poses)


# ---------------------------------------------------------------------------
# core dynamics


def reset(task: TaskSpec, seed: int) -> SimState:
    """Deterministic initial state: box uniform in the task box, EE home.
    seed is an integer >= 0, not a bool (ValueError otherwise)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    pos = rng.uniform(task.object_box_low, task.object_box_high)
    goal = pos + task.goal_center if task.goal_is_offset else task.goal_center
    return SimState(ee_pose=HOME_POSE, gripper_closed=False,
                    box_pose=RigidTransform(np.eye(3), pos), box_attached=False,
                    goal_center=goal)


def _clamp_delta(delta: RigidTransform) -> RigidTransform:
    """delta with its translation and rotation angle capped; delta itself
    (frozen, owning its arrays) when neither cap applies."""
    t = delta.translation
    norm = math.sqrt(t.dot(t))
    r = delta.rotation
    angle = rotation_angle(r)
    if norm <= MAX_TRANSLATION and angle <= MAX_ROTATION:
        return delta
    if norm > MAX_TRANSLATION:
        t = t * (MAX_TRANSLATION / norm)
    if angle > MAX_ROTATION:
        axis = matrix_to_axis_angle(r) / angle
        r = axis_angle_to_matrix(axis * MAX_ROTATION)
    return RigidTransform(r, t)


def _inverse_parts(pose: RigidTransform):
    """(rotation, translation) of `pose.inverse()`, computed as it does --
    the C-order copy of R^T, and -R^T @ t on the transposed view -- but
    without constructing (and checking) the intermediate transform."""
    rt = pose.rotation.T
    return rt.copy(), -rt @ pose.translation


def surface_distance(point: np.ndarray, box_pose: RigidTransform) -> float:
    """Distance from a world point to the surface of the box at `box_pose`
    (half extents `OBJECT_HALF_EXTENTS`); 0 inside."""
    inv_r, inv_t = _inverse_parts(box_pose)
    local = np.asarray(point, dtype=np.float64) @ inv_r.T + inv_t   # inverse().apply
    outside = np.maximum(np.abs(local) - OBJECT_HALF_EXTENTS, 0.0)
    return math.sqrt(outside.dot(outside))


def step(state: SimState, action: Action6DoF) -> SimState:
    """Apply one clamped EE-frame increment. A held box rides along; then
    a closed gripper holds the box if it already did or if the EE origin is
    within ATTACH_DISTANCE of its surface, and an open one releases it."""
    delta = _clamp_delta(action.delta)
    new_ee = state.ee_pose.compose(delta)
    grasp = bool(action.grasp)
    box = state.box_pose
    if state.box_attached and grasp:
        # rigid ride: keep the box's pose in the EE frame constant,
        # new_ee o (ee^-1 o box) with the products compose() computes
        inv_r, inv_t = _inverse_parts(state.ee_pose)
        rel_r = inv_r @ box.rotation
        rel_t = inv_r @ box.translation + inv_t
        r = new_ee.rotation
        box = RigidTransform(r @ rel_r, r @ rel_t + new_ee.translation)
    attached = grasp and (state.box_attached
                          or surface_distance(new_ee.translation, box) <= ATTACH_DISTANCE)
    return SimState(ee_pose=new_ee, gripper_closed=grasp, box_pose=box,
                    box_attached=attached, goal_center=state.goal_center,
                    step_count=state.step_count + 1)


def keypoints3d(state: SimState, emb: EmbodimentModel) -> np.ndarray:
    """(k, 3) world-frame keypoints for the current gripper state."""
    return state.ee_pose.apply(emb.offsets_for(state.gripper_closed))


def grasp_label(state: SimState, emb: EmbodimentModel) -> int:
    """Ground-truth gripper state for robots; proximity heuristic for hands:
    thumb tip AND at least one other fingertip within GRASP_THRESHOLD of the
    box's surface."""
    if emb.kind == ROBOT:
        return int(state.gripper_closed)
    pts = keypoints3d(state, emb)
    if surface_distance(pts[4], state.box_pose) >= GRASP_THRESHOLD:
        return 0
    return int(any(surface_distance(tip, state.box_pose) < GRASP_THRESHOLD
                   for tip in pts[[8, 12, 16, 20]]))


# ---------------------------------------------------------------------------
# observation


def render(states, cam, emb: EmbodimentModel):
    """Render a list of states through one camera in a single pass.

    Returns (images (n, 3, R, R), keypoints (n, k, 2)) with R = RASTER_SIZE.
    Channels: the box center (mass 1), end-effector keypoints (total mass 1)
    and the goal (mass 1) -- a rasterized stand-in for an RGB render.

    Every point is splatted bilinearly onto the grid: raster cell (i, j)
    covers pixels [j*c, (j+1)*c) x [i*c, (i+1)*c), c = width / R, with its
    splat target at the cell center. Corner mass outside the grid is
    clipped, and so are rounding-noise corner weights (<= 1e-12) that would
    light up cells a point exactly on a cell center never touches.

    One `project_points` call covers every state's box center, keypoints and
    goal (rows of a stack project exactly as they would alone), and one
    `np.bincount` accumulates every splat in (corner, state, point) order.
    Each cell sums its terms from 0.0 in the order a per-point loop would:
    corner (top-left, top-right, bottom-left, bottom-right), then keypoint.
    So each row is bit-identical to rendering its state alone.
    """
    intr, pose = cam
    n = len(states)
    pts3 = np.vstack([np.vstack([st.box_pose.translation, keypoints3d(st, emb),
                                 st.goal_center])
                      for st in states])
    uv = project_points(pts3, intr, pose).reshape(n, -1, 2)   # (n, P, 2)
    channel = np.full(uv.shape[1], CH_EE)
    channel[0] = CH_OBJECT
    channel[-1] = CH_GOAL
    mass = np.ones(uv.shape[1])
    mass[1:1 + emb.k] = 1.0 / emb.k

    cell = intr.width / RASTER_SIZE
    gx = (uv[..., 0] - cell / 2) / cell
    gy = (uv[..., 1] - cell / 2) / cell
    x0 = np.floor(gx).astype(int)
    y0 = np.floor(gy).astype(int)
    fx = gx - x0
    fy = gy - y0
    # (corner, state, point) stacks
    w = np.stack([(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy])
    xs = x0 + np.array([0, 1, 0, 1])[:, None, None]
    ys = y0 + np.array([0, 0, 1, 1])[:, None, None]
    ok = (xs >= 0) & (xs < RASTER_SIZE) & (ys >= 0) & (ys < RASTER_SIZE) & (w > 1e-12)
    cells = ((np.arange(n)[:, None] * 3 + channel) * RASTER_SIZE + ys) * RASTER_SIZE + xs
    images = np.bincount(cells[ok], (w * mass)[ok], minlength=n * 3 * RASTER_SIZE ** 2)
    return (images.reshape(n, 3, RASTER_SIZE, RASTER_SIZE),
            uv[:, 1:1 + emb.k])


def observe(state: SimState, cam, emb: EmbodimentModel, view_id: int = 0):
    """(feature image, 2D keypoints) for one camera: `render` of the single
    state, bit-identical to its row in any longer stack."""
    images, keypoints = render([state], cam, emb)
    return images[0], KeypointSet2D(keypoints[0], emb.kind, view_id)


def success(task: TaskSpec, state: SimState) -> bool:
    if task.name == "reach":
        d = state.ee_pose.translation - state.goal_center
        return bool(math.sqrt(d.dot(d)) <= task.success_radius)
    if state.box_attached:
        return False
    box = state.box_pose.translation
    delta_xy = box[:2] - state.goal_center[:2]
    dist_xy = math.sqrt(delta_xy.dot(delta_xy))
    if task.name in ("push_left", "push_right"):
        return bool(dist_xy <= task.success_radius)
    if task.name == "pick_place":
        resting = abs(box[2] - OBJECT_HALF_EXTENTS[2]) <= 0.02
        return bool(dist_xy <= task.success_radius and resting)
    raise ValueError(f"unknown task {task.name!r}")


# ---------------------------------------------------------------------------
# scripted demonstrators

_STEP_GAIN = 0.04       # max commanded translation per step (under the clamp)
_WAYPOINT_TOL = 0.004
_GRASP_HEIGHT = 0.006   # palm clearance above the box's top face
_APPROACH_HEIGHT = 0.03
_HALF_HEIGHT = float(OBJECT_HALF_EXTENTS[2])


def _move_toward(current: np.ndarray, target) -> tuple:
    """(world step toward target, capped at _STEP_GAIN; distance to target)."""
    err = np.subtract(target, current)
    norm = math.sqrt(err.dot(err))
    if norm <= _STEP_GAIN:
        return err, norm
    return err * (_STEP_GAIN / norm), norm


def _demo_waypoints(task: TaskSpec, state: SimState) -> list:
    """(target position, grasp flag) controller phases for the scripted
    expert, each target a tuple of three floats."""
    ox, oy, oz = state.box_pose.translation.tolist()
    top = oz + _HALF_HEIGHT
    grasp_z = top + _GRASP_HEIGHT
    gx, gy, gz = state.goal_center.tolist()
    if task.name == "reach":
        return [((gx, gy, gz), 0)]
    if task.name in ("push_left", "push_right"):
        return [
            ((ox, oy, top + _APPROACH_HEIGHT), 0),
            ((ox, oy, grasp_z), 0),
            ((ox, oy, grasp_z), 1),          # close
            ((gx, gy, grasp_z), 1),          # drag
            ((gx, gy, grasp_z), 0),          # release
        ]
    if task.name == "pick_place":
        # fixed lift height (from the resting pose) — the object rides the
        # gripper during the lift, so an object-relative target would recede
        lift_z = 2 * _HALF_HEIGHT + _APPROACH_HEIGHT
        place_palm_z = gz + _HALF_HEIGHT + _GRASP_HEIGHT
        return [
            ((ox, oy, top + _APPROACH_HEIGHT), 0),
            ((ox, oy, grasp_z), 0),
            ((ox, oy, grasp_z), 1),
            ((ox, oy, lift_z), 1),
            ((gx, gy, lift_z), 1),
            ((gx, gy, place_palm_z), 1),
            ((gx, gy, place_palm_z), 0),
        ]
    raise ValueError(f"unknown task {task.name!r}")


def scripted_policy(task: TaskSpec, state: SimState, phase: int):
    """(action, next phase). Proportional position control, no rotation."""
    waypoints = _demo_waypoints(task, state)
    last = len(waypoints) - 1
    phase = min(phase, last)
    target, grasp = waypoints[phase]
    pos = state.ee_pose.translation
    # world-frame step, expressed in the EE frame for the action interface
    world_step, dist = _move_toward(pos, target)
    if dist <= _WAYPOINT_TOL and grasp == int(state.gripper_closed) and phase < last:
        phase += 1
        target, grasp = waypoints[phase]
        world_step, _ = _move_toward(pos, target)
    ee_step = state.ee_pose.rotation.T @ world_step
    return Action6DoF(RigidTransform(_IDENTITY, ee_step), grasp), phase


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
        d = np.subtract(pos[:dims], targets[phase][:dims])
        return math.sqrt(d.dot(d)) <= _WAYPOINT_TOL

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

    The expert runs to success first; then each camera renders the whole
    trajectory in one `render` pass. Human demonstrations add
    truncated-Gaussian pixel jitter (sigma = jitter_px, cut at 3 sigma) to
    the recorded keypoints, drawn in (t, view) order, emulating hand tracker
    noise; the underlying trajectory is identical to the robot's.
    """
    cameras = default_cameras()
    state = reset(task, seed)
    states = [state]
    phase = 0
    for _ in range(task.horizon):
        action, phase = scripted_policy(task, state, phase)
        state = step(state, action)
        states.append(state)
        if success(task, state):
            break
    else:
        raise ScriptFailureError(
            f"scripted {task.name} demo (seed {seed}, {emb.kind}) did not succeed "
            f"within {task.horizon} steps")

    renders = [render(states, cam, emb) for cam in cameras]
    jitter_rng = np.random.default_rng([int(seed), 9173]) if emb.kind == HUMAN else None
    frames = []
    for t, st in enumerate(states):
        grasp = grasp_label(st, emb)
        views = []
        for v, (images, keypoints) in enumerate(renders):
            points = keypoints[t]
            if jitter_rng is not None:
                points = points + np.clip(
                    jitter_rng.normal(0.0, jitter_px, size=points.shape),
                    -3 * jitter_px, 3 * jitter_px)
            views.append(FrameView(images[t], KeypointSet2D(points, emb.kind, v), grasp))
        frames.append(tuple(views))
    # proprioception is a robot-only luxury; human recordings are camera-only,
    # which is what keeps the 6DoF baseline off them
    ee_poses = tuple(st.ee_pose for st in states) if emb.kind == ROBOT else ()
    return Demonstration(embodiment=emb.kind, frames=tuple(frames), task_name=task.name,
                         seed=seed, cameras=cameras, ee_poses=ee_poses)


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
