"""The benchmark's three workloads and the loop that times them.

Every workload runs closed-loop in one thread: one training call or one
episode at a time, the next only after the previous returns.

- cotrain: `policy.train` with both alignment losses on, on scripted push
  demos (robot push-right, human push-both). The training stack does all of
  the timed work and sampling, geometry and sim none, so it is the bypass
  workload for inference-side changes.
- learned_eval: closed-loop `inference.rollout` of a co-trained policy on
  push_right and push_left. The 100-step sampler dominates, so
  inference-path changes show here.
- oracle_eval: no model. Scripted demos for all four tasks in both
  embodiments are recorded, saved and loaded back, then `OracleRunner`
  rollouts run on all four tasks. Sim and geometry carry the work with no
  network at all.

The unit of work is a 10-epoch training call (cotrain), an episode
(learned_eval) or a round of 8 demos plus 4 episodes (oracle_eval); a step
is one `policy.train_step` call (cotrain) or one replan, the runner's
`chunk` call from observation to executable chunk (the two evals). The loop
runs units until the time is up and at least `min_units` are done, so the
quality figures, which are taken over the first `min_units` units, repeat
exactly for a seed.

End-to-end metrics, the same on every workload; the timings are scaled to
reference machine speed (see calibrate.py):

- setup_s: median over `setup_repeats` set-ups (demo generation; on
  learned_eval also training the policy; on oracle_eval the expert paths for
  the exactness check and one warm-up round)
- peak_rss_mb: peak resident memory of the process
- unit_ms_p50: median time of one unit
- step_ms_p50, step_ms_p90: median and 90th percentile time of one step

Each workload also reports its own wall-clock and quality figures (for
example `replan_ms_p90`, `success_rate`, `chunk_err_mm`, `train_mse`).
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from calibrate import REFERENCE_KERNEL_MS, kernel_ms
from tracer import Tracer
from trackpolicy import data, inference, policy, sim
from trackpolicy.errors import (BehindCameraError, DegenerateRaysError,
                                NonFiniteError, ResidualTooHighError,
                                ScriptFailureError)

# errors `rollout` lets escape; the harness counts the episode as failed
EPISODE_ERRORS = (BehindCameraError, DegenerateRaysError, NonFiniteError,
                  ResidualTooHighError)

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# tags that keep the seed streams of different inputs apart
_ROBOT_DEMOS, _HUMAN_DEMOS, _TRAIN, _EVAL, _ORACLE, _ORACLE_DEMOS, _REACH = range(1, 8)

PUSH_TASKS = ("push_right", "push_left")
REACH_TOL_M = 1e-12


@dataclass(frozen=True)
class Size:
    robot_demos: int = 10      # push-right
    human_demos: int = 20      # push, alternating right/left
    epochs: int = 10           # per training call
    quality_episodes: int = 12  # learned_eval episodes every run completes
    reach_checks: int = 8      # reach seeds replayed for the exactness check
    setup_repeats: int = 5     # setup_s is the median over these


FULL = Size()
# the smallest sizes that still exercise every layer (the retargeter needs
# at least 100 hand frames: 8 demos x 8 frames x 2 views)
TINY = Size(robot_demos=2, human_demos=8, epochs=1, quality_episodes=2,
            reach_checks=2, setup_repeats=1)


def derived_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def eval_seed(seed: int, tag: int, i: int) -> int:
    # demo seeds stay below 2**20, eval seeds above, so none is shared
    return 2 ** 20 + derived_seed(seed, tag, i) % 2 ** 30


def push_demo_mix(seed: int, size: Size):
    """(human, robot) scripted push demos, as in the paper's co-training mix."""
    robot = sim.generate_demos("push", data.ROBOT, size.robot_demos, "right",
                               seed_start=derived_seed(seed, _ROBOT_DEMOS) % 2 ** 19)
    human = sim.generate_demos("push", data.HUMAN, size.human_demos, "both",
                               seed_start=2 ** 19 + derived_seed(seed, _HUMAN_DEMOS) % 2 ** 19)
    return human, robot


@dataclass
class Tally:
    """What one pass over the units did and how long each part took."""

    attempted: int = 0
    failed: int = 0
    work: int = 0              # training rows (cotrain) or episodes
    wall_s: float = 0.0
    rounds_ms: list = field(default_factory=list)  # epochs or episodes
    steps_ms: list = field(default_factory=list)   # train steps or replans
    episodes: list = field(default_factory=list)   # Episode records
    losses: list = field(default_factory=list)     # per training call: epoch logs
    demos: int = 0
    demo_s: float = 0.0
    bytes_saved: int = 0
    roundtrip: tuple | None = None  # first round's (recorded, loaded) demos
    # the same timings scaled to reference machine speed (see calibrate.py)
    kernel_ms: list = field(default_factory=list)
    ref_units_ms: list = field(default_factory=list)
    ref_steps_ms: list = field(default_factory=list)


@dataclass
class Episode:
    task: str
    success: bool
    errored: bool
    steps_used: int
    replans: list  # (state, cams, chunk)


class TimedRunner:
    """Runner proxy: times each `chunk` call and keeps what it returned."""

    def __init__(self, inner, tally: Tally):
        self.inner = inner
        self.tally = tally
        self.replans = []

    @property
    def horizon(self) -> int:
        return self.inner.horizon

    def chunk(self, task, state, cams, seed):
        t0 = time.perf_counter()
        out = self.inner.chunk(task, state, cams, seed)
        self.tally.steps_ms.append((time.perf_counter() - t0) * 1e3)
        self.replans.append((state, cams, out))
        return out


@contextmanager
def _timing(owner, attr: str, record):
    """Call record(ms, args) after every call of owner.attr."""
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        out = original(*args, **kwargs)
        record((time.perf_counter() - t0) * 1e3, args)
        return out

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Workload:
    min_units = 1
    tracer: Tracer | None = None

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size

    def request(self, rid: str) -> None:
        if self.tracer is not None:
            self.tracer.request_id = rid

    def _episode(self, i: int, runner, task_name: str, ep_seed: int, tally: Tally) -> Episode:
        self.request(f"episode{i}-{task_name}")
        proxy = TimedRunner(runner, tally)
        t0 = time.perf_counter()
        try:
            res = inference.rollout(proxy, sim.make_task(task_name), ep_seed)
            ep = Episode(task_name, res.success, False, res.steps_used, proxy.replans)
        except EPISODE_ERRORS:
            ep = Episode(task_name, False, True, 0, proxy.replans)
            tally.failed += 1
        tally.rounds_ms.append((time.perf_counter() - t0) * 1e3)
        tally.attempted += 1
        tally.work += 1
        tally.episodes.append(ep)
        return ep


class Cotrain(Workload):
    def setup(self) -> None:
        self.human, self.robot = push_demo_mix(self.seed, self.size)
        self.cfg = policy.TrainConfig(epochs=self.size.epochs,
                                      seed=derived_seed(self.seed, _TRAIN))

    def unit(self, i: int, tally: Tally) -> None:
        def on_step(ms, args):
            tally.steps_ms.append(ms)
            tally.work += len(args[1])

        marks = [time.perf_counter()]

        def on_epoch(entry):
            marks.append(time.perf_counter())
            self.request(f"train{i}-epoch{entry['epoch'] + 1}")

        self.request(f"train{i}-epoch0")
        tally.attempted += 1
        with _timing(policy, "train_step", on_step):
            try:
                _, log = policy.train(self.human, self.robot, self.cfg, log_fn=on_epoch)
            except NonFiniteError:
                tally.failed += 1
                log = [{"mse": float("nan")}]
        tally.rounds_ms.extend(np.diff(marks) * 1e3)
        tally.losses.append(log)

    def finish(self, tally: Tally):
        mse = [log[-1]["mse"] for log in tally.losses]
        terms = [v for log in tally.losses for e in log for k, v in e.items()
                 if k in ("mse", "kl", "da", "total")]
        checks = [
            ("train_losses_finite", bool(np.all(np.isfinite(terms))),
             f"{len(terms)} loss terms over {len(tally.losses)} training calls"),
            ("train_mse_repeats", len(set(mse)) == 1,
             f"final-epoch mse of each call: {sorted(set(mse))}"),
        ]
        report = {
            "train_samples_per_s": (tally.work / tally.wall_s, "samples/s"),
            "train_mse": (mse[0], "mse"),
            "epoch_ms_p50": (_pct(tally.rounds_ms, 50), "ms"),
            "train_step_ms_p50": (_pct(tally.steps_ms, 50), "ms"),
            "train_step_ms_p90": (_pct(tally.steps_ms, 90), "ms"),
        }
        return checks, report


class LearnedEval(Workload):
    def __init__(self, seed: int, size: Size):
        super().__init__(seed, size)
        self.min_units = size.quality_episodes

    def setup(self) -> None:
        human, robot = push_demo_mix(self.seed, self.size)
        cfg = policy.TrainConfig(epochs=self.size.epochs,
                                 seed=derived_seed(self.seed, _TRAIN))
        model, log = policy.train(human, robot, cfg)
        self.runner = inference.TrackPolicyRunner(model)
        self.setup_train_mse = log[-1]["mse"]

    def unit(self, i: int, tally: Tally) -> None:
        # both directions on the same start states
        self._episode(i, self.runner, PUSH_TASKS[i % 2],
                      eval_seed(self.seed, _EVAL, i // 2), tally)

    def finish(self, tally: Tally):
        chunks = [c for ep in tally.episodes for _, _, c in ep.replans]
        finite = all(np.all(np.isfinite(d.rotation)) and np.all(np.isfinite(d.translation))
                     for c in chunks for d in c.deltas)
        checks = [("learned_chunks_finite", finite, f"{len(chunks)} chunks")]
        quality = tally.episodes[:self.min_units]
        errs = [err for ep in quality if not ep.errored for err in _chunk_errors_m(ep)]
        report = {
            "episodes_per_s": (tally.work / tally.wall_s, "episodes/s"),
            "episode_ms_p50": (_pct(tally.rounds_ms, 50), "ms"),
            "replan_ms_p50": (_pct(tally.steps_ms, 50), "ms"),
            "replan_ms_p90": (_pct(tally.steps_ms, 90), "ms"),
            "success_rate": (sum(ep.success for ep in quality) / len(quality), "fraction"),
            "chunk_err_mm": (float(np.median(errs)) * 1e3 if errs else float("nan"), "mm"),
            "setup_train_mse": (self.setup_train_mse, "mse"),
        }
        return checks, report


def _execute(state, delta, grasp):
    local = inference.world_to_ee_delta(state.ee_pose, delta)
    return sim.step(state, sim.Action6DoF(local, int(grasp)))


def _chunk_errors_m(ep: Episode) -> list:
    """Per replan: mean EE-position gap over the executed steps between the
    predicted chunk and `oracle_chunk` from the same state."""
    starts = [st.step_count for st, _, _ in ep.replans] + [ep.steps_used]
    out = []
    for (state, cams, chunk), begin, end in zip(ep.replans, starts, starts[1:]):
        oracle = inference.oracle_chunk(sim.make_task(ep.task), state,
                                        sim.robot_embodiment(), cams, chunk.horizon)
        a = b = state
        gaps = []
        for h in range(end - begin):
            a = _execute(a, chunk.deltas[h], chunk.grasps[h])
            b = _execute(b, oracle.deltas[h], oracle.grasps[h])
            gaps.append(np.linalg.norm(a.ee_pose.translation - b.ee_pose.translation))
        out.append(float(np.mean(gaps)))
    return out


class OracleEval(Workload):
    def setup(self) -> None:
        self.runner = inference.OracleRunner()
        self.path = os.path.join(OUT_DIR, f"roundtrip-{os.getpid()}.demos")
        reach = sim.make_task("reach")
        self.reach_seeds = [eval_seed(self.seed, _REACH, j)
                            for j in range(self.size.reach_checks)]
        self.expert_paths = [_expert_path(reach, s) for s in self.reach_seeds]
        # one round untimed, so lazy imports and allocator growth are paid here
        self.unit(0, Tally())

    def unit(self, i: int, tally: Tally) -> None:
        self.request(f"round{i}-demos")
        demo_seed = derived_seed(self.seed, _ORACLE_DEMOS, i) % 2 ** 20
        t0 = time.perf_counter()
        demos = []
        for name in sim.TASK_NAMES:
            for kind in data.EMBODIMENTS:
                tally.attempted += 1
                try:
                    demos.append(sim.scripted_demo(sim.make_task(name),
                                                   sim.embodiment(kind), demo_seed))
                except ScriptFailureError:
                    tally.failed += 1
        try:
            data.save_dataset(demos, self.path)
            tally.bytes_saved += os.path.getsize(self.path)
            loaded = data.load_dataset(self.path)
        finally:
            os.remove(self.path)
        tally.demo_s += time.perf_counter() - t0
        tally.demos += len(demos)
        if tally.roundtrip is None:
            tally.roundtrip = (demos, loaded)
        for name in sim.TASK_NAMES:
            self._episode(i, self.runner, name, eval_seed(self.seed, _ORACLE, i), tally)

    def finish(self, tally: Tally):
        by_task = {name: [ep.success for ep in tally.episodes if ep.task == name]
                   for name in sim.TASK_NAMES}
        worst = max(_oracle_reach_error(s, path)
                    for s, path in zip(self.reach_seeds, self.expert_paths))
        recorded, loaded = tally.roundtrip
        checks = [
            ("oracle_success_every_task", all(all(v) for v in by_task.values()),
             {name: f"{sum(v)}/{len(v)}" for name, v in by_task.items()}),
            ("oracle_reach_exact", worst <= REACH_TOL_M,
             f"worst per-step EE error {worst:.3e} m over {len(self.reach_seeds)} seeds"),
            ("dataset_roundtrip_exact", _same_demos(recorded, loaded),
             f"{len(recorded)} demos of the first round"),
        ]
        report = {
            "episodes_per_s": (tally.work / tally.wall_s, "episodes/s"),
            "episode_ms_p50": (_pct(tally.rounds_ms, 50), "ms"),
            "replan_ms_p50": (_pct(tally.steps_ms, 50), "ms"),
            "replan_ms_p90": (_pct(tally.steps_ms, 90), "ms"),
            "success_rate": (sum(ep.success for ep in tally.episodes) / len(tally.episodes),
                             "fraction"),
            "demos_per_s": (tally.demos / tally.demo_s, "demos/s"),
        }
        return checks, report


def _expert_path(task, seed: int) -> list:
    """EE positions of the uninterrupted scripted expert, one per state."""
    state = sim.reset(task, seed)
    path = [state.ee_pose.translation]
    phase = 0
    while not sim.success(task, state) and len(path) - 1 < task.horizon:
        action, phase = sim.scripted_policy(task, state, phase)
        state = sim.step(state, action)
        path.append(state.ee_pose.translation)
    return path


def _oracle_reach_error(seed: int, expert: list) -> float:
    """Worst per-step EE distance between replanned oracle execution and the
    uninterrupted expert, on reach."""
    task = sim.make_task("reach")
    runner = inference.OracleRunner()
    cams = sim.default_cameras()
    state = sim.reset(task, seed)
    steps, worst = 0, 0.0
    while not sim.success(task, state) and steps < task.horizon:
        chunk = runner.chunk(task, state, cams, 0)
        for h in range(min(inference.DEFAULT_EXEC_HORIZON, chunk.horizon)):
            state = _execute(state, chunk.deltas[h], chunk.grasps[h])
            steps += 1
            if steps < len(expert):
                worst = max(worst, float(np.linalg.norm(
                    state.ee_pose.translation - expert[steps])))
            if sim.success(task, state):
                break
    return worst


def _same_demos(a: list, b: list) -> bool:
    def same_pose(p, q):
        return np.array_equal(p.rotation, q.rotation) and np.array_equal(p.translation, q.translation)

    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (x.embodiment, x.task_name, x.seed, x.length, x.n_views) != \
                (y.embodiment, y.task_name, y.seed, y.length, y.n_views):
            return False
        if not all(ci == di and same_pose(cp, dp)
                   for (ci, cp), (di, dp) in zip(x.cameras, y.cameras)):
            return False
        if len(x.ee_poses) != len(y.ee_poses) or \
                not all(same_pose(p, q) for p, q in zip(x.ee_poses, y.ee_poses)):
            return False
        for fx, fy in zip(x.frames, y.frames):
            for u, v in zip(fx, fy):
                if not (np.array_equal(u.image, v.image) and u.grasp == v.grasp
                        and np.array_equal(u.keypoints.points, v.keypoints.points)
                        and u.keypoints.view_id == v.keypoints.view_id):
                    return False
    return True


def _pct(values, q) -> float:
    return float(np.percentile(values, q))


WORKLOADS = {"cotrain": Cotrain, "learned_eval": LearnedEval, "oracle_eval": OracleEval}


def _loop(wl: Workload, budget_s: float, tracer: Tracer | None = None):
    """Run units until the budget is spent and min_units are done.

    The calibration kernel runs before the first unit and after each
    untraced one; each unit's timings are also kept scaled by the kernel
    times on either side of it. With a tracer, each unit runs twice, once
    untraced and once traced, in alternating order, so that drift in machine
    speed falls on both passes alike and the difference in their wall time
    is the tracing overhead. Returns (untraced tally, traced tally, units).
    """
    plain, traced = Tally(), Tally()
    passes = [(plain, None)] if tracer is None else [(plain, None), (traced, tracer)]
    plain.kernel_ms.append(kernel_ms())
    n = 0
    t0 = time.perf_counter()
    while n < wl.min_units or time.perf_counter() - t0 < budget_s:
        for tally, tr in (passes if n % 2 == 0 else passes[::-1]):
            wl.tracer = tr
            if tr is not None:
                tr.enabled = True
            steps = len(tally.steps_ms)
            t1 = time.perf_counter()
            wl.unit(n, tally)
            dt = time.perf_counter() - t1
            tally.wall_s += dt
            if tr is not None:
                tr.enabled = False
            else:
                tally.kernel_ms.append(kernel_ms())
                scale = REFERENCE_KERNEL_MS / statistics.fmean(tally.kernel_ms[-2:])
                tally.ref_units_ms.append(dt * 1e3 * scale)
                tally.ref_steps_ms += [ms * scale for ms in tally.steps_ms[steps:]]
        n += 1
    wl.tracer = None
    return plain, traced, n


def run(name: str, seed: int, seconds: float, trace: bool, size: Size = FULL,
        trace_path: str | None = None) -> dict:
    """One benchmark run. Returns the end-to-end metrics (trace off) or the
    per-layer metrics (trace on) plus the checks and the workload's own
    wall-clock figures under `report`, all taken from the untraced pass.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = WORKLOADS[name](seed, size)
    setup_s, ref_setup_s = [], []
    k0 = kernel_ms()
    for _ in range(size.setup_repeats):
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)
        k1 = kernel_ms()
        ref_setup_s.append(setup_s[-1] * REFERENCE_KERNEL_MS / statistics.fmean((k0, k1)))
        k0 = k1

    if trace:
        with Tracer() as tracer:
            tally, traced, n = _loop(wl, seconds, tracer)
        if trace_path is not None:
            tracer.write_jsonl(trace_path)
    else:
        tally, _, n = _loop(wl, seconds)
    checks, report = wl.finish(tally)
    report["setup_s"] = (statistics.median(setup_s), "s")
    report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    report["kernel_ms_p50"] = (statistics.median(tally.kernel_ms), "ms")
    if trace:
        metrics = _layer_metrics(tracer, traced, tally)
    else:
        metrics = {
            "setup_s": (statistics.median(ref_setup_s), "s"),
            "peak_rss_mb": report["peak_rss_mb"],
            "unit_ms_p50": (_pct(tally.ref_units_ms, 50), "ms"),
            "step_ms_p50": (_pct(tally.ref_steps_ms, 50), "ms"),
            "step_ms_p90": (_pct(tally.ref_steps_ms, 90), "ms"),
        }
    return {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "checks": [{"name": c, "ok": bool(ok), "detail": d} for c, ok, d in checks],
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "units": n,
        "samples": {"rounds": len(tally.rounds_ms), "steps": len(tally.steps_ms)},
    }


def _layer_metrics(tracer: Tracer, traced: Tally, untraced: Tally) -> dict:
    out = {}
    for layer, (calls, self_ms) in tracer.layer_totals().items():
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_ms"] = (self_ms, "ms")
    replans = [c for ep in traced.episodes for _, _, c in ep.replans]
    forwards = out["nn.forward.calls"][0]
    out["nn.forward.calls_per_replan"] = (forwards / len(replans) if replans else 0.0, "count")
    out["inference.replans_per_episode"] = (
        len(replans) / len(traced.episodes) if traced.episodes else 0.0, "count")
    out["inference.residual_px_p50"] = (
        float(np.median(np.concatenate([c.residuals_px.ravel() for c in replans])))
        if replans else 0.0, "px")
    out["data.save_dataset.bytes"] = (traced.bytes_saved, "B")
    overhead = traced.wall_s - untraced.wall_s
    out["tracing.overhead_s"] = (overhead, "s")
    out["tracing.overhead_pct"] = (100.0 * overhead / untraced.wall_s, "%")
    return out

