"""Track policy and 6DoF baseline: determinism, checkpoints, frame bookkeeping.

Every case runs a tiny configuration (small nets, 10-step schedule, two
epochs) so the whole module trains in a few seconds. Determinism is checked
bit for bit: a fixed seed must reproduce training logs, samples, chunks,
rollouts and checkpoints exactly, and the sampler must equal a step-by-step
reference that rebuilds every per-step constant and runs the denoiser in
float32 where the sampler does; the float64 references, draws and rollouts
stay within float32 rounding of it. A model is a checked value: its nets come
from its config, building one rejects weights that do not fit them and
freezes its weights, a fixed-seed model's file bytes are pinned, and a draw
validates its seed and fixed conditioning before the first step. The sampler's
float32 weights are built once per model, a `replace` copy with other
weights or another config's schedule builds its own, and the two views of a
replan share one noise draw. Loading a checkpoint draws no initial weights and
turns every malformed meta value or array into SchemaMismatchError.
The co-training step's gradients are checked against finite differences of
the objective each net descends, and the epoch loop, which trains only the
feature cells its pool lights and retargets its pool once, against a
full-width reference loop that retargets every batch. A training call
builds two models, the initial one and its result, and draws its timesteps
as `Generator.choice` would, bit for bit; a step's noise-mse is the forward
process written out, and a config's three noise knobs build its schedule
under the schedule's own checks. A training step takes its batch
as its second argument and is one Adam step of the flat weights; with the
adversarial term off, the discriminator's gradient slice stays zero and
its weights leave training as they began.
"""

import hashlib
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from trackpolicy import data, inference, nn, policy, retarget, sim
from trackpolicy.diffusion import TIME_EMBED_DIM, DiffusionSchedule, draw_noise, timestep_embedding
from trackpolicy.errors import (
    EmptyDatasetError,
    MixedShapesError,
    NonFiniteError,
    SchemaMismatchError,
    ShapeMismatchError,
)
from trackpolicy.geometry import (
    CameraIntrinsics,
    RigidTransform,
    axis_angle_to_matrix,
    project_rotation,
)
from trackpolicy.retarget import KeypointRetargeter

CFG = policy.TrainConfig(epochs=2, batch_size=16, embed_dim=8, encoder_hidden=(16,),
                         denoiser_hidden=(32,), disc_hidden=(8,), seed=3, num_steps=10)


@pytest.fixture(scope="module")
def demos():
    # 8 hand demos x ~8 frames x 2 views clear the retargeter's 100-frame floor
    robot = sim.generate_demos("push", data.ROBOT, 2, "right", seed_start=0)
    human = sim.generate_demos("push", data.HUMAN, 8, "both", seed_start=100)
    return human, robot


@pytest.fixture(scope="module")
def trained(demos):
    human, robot = demos
    return policy.train(human, robot, CFG)


@pytest.fixture(scope="module")
def baseline(demos):
    _, robot = demos
    return inference.train_baseline_6dof(robot, CFG)


def first_rows(human, robot, horizon, n=4):
    """The first n rows of a human and of a robot demo, human first."""
    pool = data.TrainingRows.join([data.chunk(human[0], horizon), data.chunk(robot[0], horizon)])
    return pool.take(np.r_[0:n, pool.n_human:pool.n_human + n])


def observation(view: int = 0, seed: int = 5):
    """(state, feature image, normalized robot keypoints) for one view."""
    state = sim.reset(sim.make_task("push_right"), seed)
    cams = sim.default_cameras()
    img, kps = sim.observe(state, cams[view], sim.robot_embodiment())
    return state, img, data.normalize_keypoints(kps, cams[view][0])


def assert_same_chunk(a, b):
    assert len(a.deltas) == len(b.deltas)
    for da, db in zip(a.deltas, b.deltas):
        assert np.array_equal(da.rotation, db.rotation)
        assert np.array_equal(da.translation, db.translation)
    assert np.array_equal(a.grasps, b.grasps)
    assert np.array_equal(a.residuals_px, b.residuals_px)


# ---------------------------------------------------------------------------
# track policy


def test_train_config_rejects_each_bad_knob():
    for field, bad in (("horizon", 0), ("lambda_da", -0.1), ("lambda_da", 1.5),
                       ("lambda_da", np.nan), ("lambda_kl", -1.0), ("lambda_kl", np.nan),
                       ("lambda_kl", np.inf), ("learning_rate", -1e-3),
                       ("learning_rate", 0.0), ("learning_rate", np.inf),
                       ("learning_rate", np.nan), ("batch_size", 3), ("epochs", -1),
                       ("seed", -1), ("seed", 1.5),
                       # sizes are integer counts: 2.5 used to construct and
                       # then fail inside range() or truncate a layer width
                       ("horizon", 2.5), ("horizon", np.nan), ("batch_size", 6.5),
                       ("batch_size", np.nan), ("epochs", 2.5), ("epochs", np.nan),
                       ("embed_dim", 2.5), ("embed_dim", 0), ("embed_dim", True),
                       ("embed_dim", np.nan), ("embed_dim", (64,)), ("encoder_hidden", (16.9,)),
                       ("encoder_hidden", (16, 0)), ("denoiser_hidden", (256, 255.5)),
                       ("denoiser_hidden", (-1,)), ("disc_hidden", (True,)),
                       ("disc_hidden", (np.float64(32),)),
                       # bools are ints to isinstance, but horizon=True is no
                       # 1-step policy and epochs=False no 0-epoch run
                       ("horizon", True), ("batch_size", True), ("epochs", False),
                       ("epochs", True), ("seed", True), ("seed", False)):
        with pytest.raises(ValueError, match=field):
            policy.TrainConfig(**{field: bad})
    # the edges of each accepted range construct
    for field, good in (("horizon", 1), ("lambda_da", 0.0), ("lambda_da", 1.0),
                        ("lambda_kl", 0.0), ("learning_rate", 1e-12),
                        ("batch_size", 4), ("epochs", 0), ("seed", 0),
                        ("embed_dim", 1), ("encoder_hidden", ()), ("denoiser_hidden", (1, 1)),
                        ("disc_hidden", (np.int64(8),))):
        assert getattr(policy.TrainConfig(**{field: good}), field) == good


def test_train_config_rejects_a_bool_for_its_float_knobs():
    # True == 1 passed every range check, and save_policy wrote true
    for field in ("lambda_kl", "lambda_da", "learning_rate"):
        for bad in (True, False, np.bool_(True), "0.5", None):
            with pytest.raises(ValueError, match=f"{field} must be a real number"):
                policy.TrainConfig(**{field: bad})
    # numbers of any type still construct, stored as plain floats
    cfg = policy.TrainConfig(lambda_kl=1, lambda_da=np.float64(0.5), learning_rate=np.float32(1e-3))
    assert (cfg.lambda_kl, cfg.lambda_da) == (1, 0.5)
    assert cfg.learning_rate == float(np.float32(1e-3))
    assert all(type(getattr(cfg, f)) is float for f in ("lambda_kl", "lambda_da", "learning_rate"))


def test_train_config_builds_its_schedule_from_its_knobs():
    # the schedule's own checks are the config's: same error, same message
    for kwargs in ({"num_steps": True}, {"num_steps": False}, {"num_steps": 10.0},
                   {"num_steps": 2.5}, {"num_steps": 0}, {"beta_start": 0.0},
                   {"beta_start": 0.05}, {"beta_end": 1.0}, {"beta_end": np.nan},
                   {"beta_start": True}, {"beta_end": "0.02"}):
        with pytest.raises(ValueError) as from_config:
            policy.TrainConfig(**kwargs)
        with pytest.raises(ValueError) as from_schedule:
            DiffusionSchedule(**kwargs)
        assert str(from_config.value) == str(from_schedule.value), kwargs
    cfg = policy.TrainConfig()
    assert cfg.schedule == DiffusionSchedule()
    assert "schedule" not in repr(cfg)
    shorter = replace(cfg, num_steps=4).schedule
    assert shorter == DiffusionSchedule(4)
    for name in ("betas", "alphas", "alpha_bars", "timestep_cdf"):
        assert getattr(shorter, name).shape == (4,), name
    assert shorter.timestep_features.shape == (4, TIME_EMBED_DIM)
    assert all(len(c) == 4 for c in shorter.posterior_coefficients)
    # equal configs compare and hash alike, though each builds its own schedule
    twin = policy.TrainConfig()
    assert twin == cfg and hash(twin) == hash(cfg) and twin.schedule is not cfg.schedule
    assert replace(cfg, beta_end=0.03) != cfg


def test_train_step_mse_matches_the_forward_formula(demos):
    # the forward process written out: the same timestep and noise draws,
    # x_t = sqrt(abar) x0 + sqrt(1 - abar) eps, the denoiser's clean
    # prediction, and the noise it implies
    human, robot = demos
    batch = first_rows(human, robot, CFG.horizon)
    model = policy.build_model(CFG, batch.images.shape[1])
    report = policy.train_step(nn.FlatParams(dict(model.params)), batch,
                               np.random.default_rng(7), CountingOptimizer(), model)
    schedule, n = CFG.schedule, len(batch)
    w = 1.0 - schedule.alpha_bars
    rng = np.random.default_rng(7)
    t = rng.choice(schedule.num_steps, size=n, p=w / w.sum())
    eps = rng.standard_normal(batch.targets.shape)
    ab = schedule.alpha_bars[t][:, None]
    x_t = np.sqrt(ab) * batch.targets + np.sqrt(1.0 - ab) * eps
    emb = nn.forward(model.encoder, model.params, batch.images)
    clean = nn.forward(model.denoiser, model.params, np.concatenate(
        [x_t, emb, batch.keypoints.reshape(n, -1), timestep_embedding(t)], axis=1))
    eps_hat = (x_t - np.sqrt(ab) * clean) / np.sqrt(1.0 - ab)
    assert abs(report.mse - np.mean((eps_hat - eps) ** 2)) <= 1e-12


def test_train_log_repeats_for_a_seed(demos, trained):
    human, robot = demos
    model, log = trained
    model2, log2 = policy.train(human, robot, CFG)
    assert log == log2
    assert len(log) == CFG.epochs
    assert all(e["kl"] is not None and e["da"] is not None for e in log)
    assert model.params.keys() == model2.params.keys()
    for name in model.params:
        assert np.array_equal(model.params[name], model2.params[name]), name


def reference_samples(demo, horizon):
    """(embodiment, image, keypoints, flat target) per (view, t), each row
    built on its own from the demo's (t, v) entries."""
    out = []
    for v in range(demo.n_views):
        intr = demo.cameras[v][0]
        track = np.asarray([data.normalize_keypoints(
            points[list(data.HAND_SUBSET_INDICES)] if len(points) == 21 else points, intr)
            for points in demo.keypoints[:, v]])
        grasps = np.asarray([float(g) for g in demo.grasps[:, v]])
        for t in range(demo.length):
            idx = np.minimum(t + 1 + np.arange(horizon), demo.length - 1)
            flat = np.concatenate([(track[idx] - track[t]).reshape(horizon, -1),
                                   (2.0 * grasps[idx] - 1.0)[:, None]], axis=1).reshape(-1)
            out.append((demo.embodiment, demo.images[t, v], track[t], flat))
    return out


def reference_index_batches(n_human, n_robot, batch_size, rng):
    """Index batches into the human-first pool, built one row at a time:
    the bigger pool's permutation in half-batches (a tail under 2 rows
    dropped), each paired with the next rows of the smaller pool's
    permutation, a fresh one drawn the moment it runs out."""
    if not (n_human and n_robot):
        idx = rng.permutation(n_human + n_robot)
        return [idx[s:s + batch_size] for s in range(0, len(idx), batch_size)]
    half = batch_size // 2
    (n_big, big0), (n_small, small0) = ((n_human, 0), (n_robot, n_human)) \
        if n_human >= n_robot else ((n_robot, n_human), (n_human, 0))
    big_idx = big0 + rng.permutation(n_big)
    small_idx, pos = rng.permutation(n_small), 0
    batches = []
    for start in range(0, n_big, half):
        chunk_big = big_idx[start:start + half]
        if len(chunk_big) < 2:
            continue
        chunk_small = np.empty(len(chunk_big), dtype=np.intp)
        for i in range(len(chunk_big)):
            if pos == n_small:
                small_idx, pos = rng.permutation(n_small), 0
            chunk_small[i] = small0 + small_idx[pos]
            pos += 1
        batches.append(np.concatenate([chunk_small, chunk_big]))
    return batches


@pytest.mark.parametrize("n_human, n_robot, batch_size", [
    (6, 20, 8),    # the robot pool is larger
    (30, 3, 8),    # the small pool cycles ten times
    (12, 4, 8),    # it runs out exactly at the last batch
    (13, 5, 8),    # a 1-row tail is dropped
    (8, 8, 4),     # a tie: human is the bigger pool
    (3, 2, 32),    # one short chunk
    (10, 0, 4),    # only one pool
    (0, 9, 4),
])
def test_mixed_batches_match_the_per_row_reference(n_human, n_robot, batch_size):
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    got = policy._mixed_batches(n_human, n_robot, batch_size, rng)
    want = reference_index_batches(n_human, n_robot, batch_size, ref_rng)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert same_bytes(a, b)
    # the same draws in the same order leave the same rng state
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("schedule", [CFG.schedule, DiffusionSchedule()])
def test_timestep_draws_match_weighted_choice(schedule):
    w = 1.0 - schedule.alpha_bars
    w = w / w.sum()
    cdf = schedule.timestep_cdf
    assert not cdf.flags.writeable
    for n in (1, 16, 32, 33):
        rng, ref_rng = np.random.default_rng([n, 4]), np.random.default_rng([n, 4])
        for _ in range(100):
            assert same_bytes(cdf.searchsorted(rng.random(n), side="right"),
                              ref_rng.choice(schedule.num_steps, size=n, p=w))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def reference_batches(human, robot, cfg):
    """Epoch 0's co-training batches built per sample: the per-row index
    batches, each stacked human-first into (x0, images, keypoints,
    n_human)."""
    samples_h = [s for d in human for s in reference_samples(d, cfg.horizon)]
    samples_r = [s for d in robot for s in reference_samples(d, cfg.horizon)]
    samples = samples_h + samples_r
    rng = np.random.default_rng([cfg.seed, policy._TRAIN_STREAM])
    batches = []
    for idx in reference_index_batches(len(samples_h), len(samples_r), cfg.batch_size, rng):
        picked = [samples[i] for i in idx]
        batch = [s for s in picked if s[0] == data.HUMAN] + \
                [s for s in picked if s[0] != data.HUMAN]
        batches.append((np.stack([s[3] for s in batch]),
                        np.stack([np.asarray(s[1], dtype=np.float64).reshape(-1) for s in batch]),
                        np.stack([s[2] for s in batch]),
                        sum(s[0] == data.HUMAN for s in batch)))
    return batches


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_train_step_gets_the_rows_per_sample_stacking_builds(demos, monkeypatch):
    human, robot = demos
    cfg = replace(CFG, epochs=1)
    seen, fitted, retargeters = [], [], []
    train_step, fit = policy.train_step, KeypointRetargeter.fit

    def record_step(params, batch, rng, opt, model):
        seen.append(batch)
        return train_step(params, batch, rng, opt, model)

    def record_fit(points, seed=0):
        fitted.append(np.array(points))
        retargeters.append(fit(points, seed))
        return retargeters[-1]

    monkeypatch.setattr(policy, "train_step", record_step)
    monkeypatch.setattr(KeypointRetargeter, "fit", record_fit)
    policy.train(human, robot, cfg)
    ref = reference_batches(human, robot, cfg)
    # the steps see only the feature cells that some row of the pool lights
    pool = np.stack([np.asarray(s[1]).reshape(-1) for d in human + robot
                     for s in reference_samples(d, cfg.horizon)])
    lit = np.flatnonzero(pool.any(axis=0))
    assert 0 < len(lit) < pool.shape[1]
    assert len(seen) == len(ref) > 1
    # the pool is retargeted once, before the steps: each batch holds its
    # rows' retargeted keypoints, the bits of retargeting the batch alone
    retargeter, = retargeters
    for batch, (x0, images, kps, n_human) in zip(seen, ref):
        assert batch.n_human == n_human == len(batch) // 2
        assert same_bytes(batch.targets, x0)
        assert same_bytes(batch.images, images[:, lit])
        assert same_bytes(batch.keypoints, retargeter.transform_batch(kps))
    # the retargeter trains on every hand frame, view-major within each demo
    frames = np.stack([s[2] for d in human for s in reference_samples(d, cfg.horizon)])
    assert len(fitted) == 1 and same_bytes(fitted[0], frames)


def test_training_retargets_the_pool_once(demos, monkeypatch):
    human, robot = demos
    cfg = replace(CFG, epochs=1)
    calls, fitted = [], []
    transform_batch, fit = KeypointRetargeter.transform_batch, KeypointRetargeter.fit

    def record_transform(self, points):
        calls.append(len(points))
        return transform_batch(self, points)

    def record_fit(points, seed=0):
        fitted.append(fit(points, seed))
        return fitted[-1]

    monkeypatch.setattr(KeypointRetargeter, "transform_batch", record_transform)
    monkeypatch.setattr(KeypointRetargeter, "fit", record_fit)
    model, _ = policy.train(human, robot, cfg)
    pool = data.TrainingRows.join([data.chunk(d, cfg.horizon) for d in human + robot])
    # one call on the whole pool, however many steps the epochs take
    assert calls == [len(pool)]
    assert len(fitted) == 1 and model.retargeter is fitted[0]
    # a robot-only run fits no retargeter and so retargets nothing
    calls.clear()
    robot_only, _ = policy.train([], robot, replace(cfg, lambda_kl=0.0, lambda_da=0.0))
    assert calls == [] and robot_only.retargeter is None and len(fitted) == 1


def test_a_training_call_builds_two_models(demos, monkeypatch):
    # the initial model and the result: the steps step a weights dict
    human, robot = demos
    cfg = replace(CFG, epochs=1)
    built = []
    post_init = policy.PolicyModel.__post_init__

    def count(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(policy.PolicyModel, "__post_init__", count)
    model, _ = policy.train(human, robot, cfg)
    assert len(built) == 2 and built[-1] is model
    built.clear()
    baseline, _ = inference.train_baseline_6dof(robot, cfg)
    assert len(built) == 2 and built[-1] is baseline


def test_training_leaves_unlit_encoder_rows_at_their_initial_values(demos, trained, baseline):
    human, robot = demos
    track_pool = data.TrainingRows.join([data.chunk(d, CFG.horizon) for d in human + robot])
    baseline_pool = data.TrainingRows.join(
        [inference.baseline_samples(d, CFG.horizon) for d in robot])
    for (model, _), pool, target_dim in ((trained, track_pool, None),
                                         (baseline, baseline_pool, 7 * CFG.horizon)):
        lit = pool.images.any(axis=0)   # the cells some row lights
        assert 0 < lit.sum() < len(lit)
        initial = policy.build_model(CFG, len(lit), target_dim=target_dim).params["encoder/w0"]
        w0 = model.params["encoder/w0"]
        assert w0.shape == initial.shape == (3 * sim.RASTER_SIZE ** 2, CFG.encoder_hidden[0])
        assert model.image_dim == len(lit)
        assert w0[~lit].tobytes() == initial[~lit].tobytes()
        assert not np.array_equal(w0[lit], initial[lit])


def reference_train(model, rows):
    """The epoch loop at full width: every step runs the whole encoder on
    its batch, whose keypoints it retargets on their own, and steps all of
    the model's weights. Returns (the model with the last weights, per-epoch
    log)."""
    cfg = model.cfg
    rng = np.random.default_rng([cfg.seed, policy._TRAIN_STREAM])
    opt = nn.Adam(cfg.learning_rate)
    flat = nn.FlatParams(model.params)
    log = []
    for epoch in range(cfg.epochs):
        frac = epoch / max(1, cfg.epochs - 1)
        opt.learning_rate = cfg.learning_rate * (
            0.05 + 0.95 * 0.5 * (1.0 + np.cos(np.pi * frac)))
        reports = []
        for idx in policy._mixed_batches(rows.n_human, len(rows) - rows.n_human,
                                         cfg.batch_size, rng):
            batch = rows.take(idx)
            batch = replace(batch, keypoints=model.retargeter.transform_batch(batch.keypoints))
            reports.append(policy.train_step(flat, batch, rng, opt, model))
        log.append({"epoch": epoch, **{key: float(np.mean([getattr(r, key) for r in reports]))
                                       for key in ("mse", "kl", "da", "disc_accuracy", "total")}})
    return replace(model, params=flat.params), log


def test_lit_training_matches_the_full_width_loop(demos, trained):
    # dropping the cells no row lights changes the arithmetic by rounding only
    human, robot = demos
    model, log = trained
    rows = data.TrainingRows.join([data.chunk(d, CFG.horizon) for d in human + robot])
    retargeter = KeypointRetargeter.fit(rows.keypoints[:rows.n_human], CFG.seed)
    ref, ref_log = reference_train(policy.build_model(
        CFG, rows.images.shape[1], retargeter=retargeter), rows)
    assert [e.keys() for e in log] == [e.keys() for e in ref_log]
    for entry, ref_entry in zip(log, ref_log):
        for key, value in entry.items():
            assert abs(value - ref_entry[key]) <= 1e-10, (entry["epoch"], key)
    assert model.params.keys() == ref.params.keys()
    for name, value in model.params.items():
        np.testing.assert_allclose(value, ref.params[name], rtol=0, atol=1e-10, err_msg=name)


def test_lit_trained_model_round_trips_at_full_width(trained, tmp_path):
    model, _ = trained
    path = tmp_path / "policy.ckpt"
    policy.save_policy(path, model)
    loaded = policy.load_policy(path)
    assert loaded.encoder == model.encoder
    assert loaded.image_dim == 3 * sim.RASTER_SIZE ** 2
    assert loaded.params.keys() == model.params.keys()
    for name, value in model.params.items():
        assert same_bytes(loaded.params[name], value), name
    # an image lighting every cell, the unlit ones included, samples alike
    _, _, kn = observation()
    bright = np.ones((3, sim.RASTER_SIZE, sim.RASTER_SIZE))
    assert same_bytes(policy.sample_flat(loaded, bright, kn, seed=2),
                      policy.sample_flat(model, bright, kn, seed=2))


def dark(demo):
    """The demo with every feature image zeroed."""
    return replace(demo, images=np.zeros_like(demo.images))


def test_training_rejects_a_pool_that_lights_no_cell(demos):
    _, robot = demos
    robot_only = replace(CFG, lambda_kl=0.0, lambda_da=0.0)
    dark_robot = [dark(d) for d in robot]
    with pytest.raises(EmptyDatasetError, match="lights any feature cell"):
        policy.train([], dark_robot, robot_only)
    with pytest.raises(EmptyDatasetError, match="lights any feature cell"):
        inference.train_baseline_6dof(dark_robot, CFG)
    # one lit row is enough
    _, log = policy.train([], [dark(robot[0]), robot[1]], robot_only)
    assert len(log) == CFG.epochs


def test_train_rejects_missing_embodiments(demos):
    human, robot = demos
    with pytest.raises(EmptyDatasetError, match="no demonstrations"):
        policy.train([], [], CFG)
    for h, r in ((human, []), ([], robot)):
        with pytest.raises(EmptyDatasetError, match="alignment losses need both"):
            policy.train(h, r, CFG)


def with_raster(demo, size):
    """The demo with every feature image cropped to size x size."""
    return replace(demo, images=demo.images[..., :size, :size])


def test_train_rejects_mixed_raster_sizes(demos):
    human, robot = demos
    robot_only = replace(CFG, lambda_kl=0.0, lambda_da=0.0)
    with pytest.raises(MixedShapesError, match="part 1: image rows"):
        policy.train([], [robot[0], with_raster(robot[1], 8)], robot_only)
    # the two embodiments' rows meet in the one pool
    with pytest.raises(MixedShapesError, match="image rows"):
        policy.train(human, [with_raster(robot[0], 8)], CFG)


def test_co_training_needs_two_rows_per_embodiment_in_a_batch(demos):
    for size in (2, 3):
        with pytest.raises(ValueError, match="batch_size must be an integer >= 4"):
            replace(CFG, batch_size=size)
    human, robot = demos
    _, log = policy.train(human, robot, replace(CFG, batch_size=4, epochs=1))
    assert all(log[0][key] is not None for key in ("mse", "kl", "da", "total"))


class CountingOptimizer:
    """Adam stand-in: counts the steps train_step takes and leaves the
    weights as they are."""

    steps = 0

    def step(self, params, grads):
        self.steps += 1


def test_train_step_gradients_match_finite_differences(demos):
    # Config seed 5 and this batch leave every relu pre-activation of the
    # three nets at least 3.9e-4 (~40 h) from zero, so no probe straddles a kink.
    cfg = replace(CFG, seed=5)
    human, robot = demos
    batch = first_rows(human, robot, cfg.horizon)
    model = policy.build_model(cfg, batch.images.shape[1])
    base = dict(model.params)
    opt = CountingOptimizer()

    def gradcheck(names, objective):
        def loss_fn(params):
            # a fresh rng per call freezes the timestep and noise draw
            flat = nn.FlatParams({**base, **params})
            report = policy.train_step(flat, batch, np.random.default_rng(0), opt, model)
            return objective(report), {name: flat.grads[name] for name in params}
        return nn.finite_difference_check(loss_fn, {name: base[name] for name in names},
                                          np.random.default_rng(2), n_probes=20)

    def net(prefix):
        return [name for name in base if name.startswith(prefix)]

    # Gradient reversal: the encoder descends the task and KL terms but
    # ascends the adversarial one. The feature raster is sparse, so most
    # first-layer weights get no gradient at all; probe the encoder
    # parameters every sample reaches.
    encoder = [name for name in net("encoder/") if name != "encoder/w0"]
    assert gradcheck(encoder, lambda r: r.mse + cfg.lambda_kl * r.kl - cfg.lambda_da * r.da) < 1e-4
    # the probes see the reversal: without it the encoder check is far off
    assert gradcheck(encoder, lambda r: r.total) > 1e-3
    assert gradcheck(net("denoiser/"), lambda r: r.total) < 1e-4
    # The discriminator descends lambda_da * da, the one term of total that
    # depends on its parameters; differences of total itself (~130 at init,
    # mostly KL) would bury its ~1e-5 gradients in rounding error.
    assert gradcheck(net("disc/"), lambda r: cfg.lambda_da * r.da) < 1e-4


def test_train_step_raises_when_a_layer_overflows(demos):
    # finite parameters whose products overflow: the check on each layer's
    # output, or the one on the loss, trips before any optimizer step
    human, robot = demos
    batch = first_rows(human, robot, CFG.horizon)
    for overrides, message in (
            ({"encoder/w0": 1e308}, "encoder: non-finite values produced by layer 0"),
            ({"denoiser/w0": 1e308}, "denoiser: non-finite values produced by layer 0"),
            # a saturated embedding (every tanh output 1) makes the sum overflow
            ({"encoder/b1": 100.0, "disc/w0": 1e308},
             "disc: non-finite values produced by layer 0"),
            # a finite ~1e200 prediction whose square overflows
            ({"denoiser/b1": 1e200}, "non-finite training loss")):
        model = policy.build_model(CFG, batch.images.shape[1])
        probe = {name: np.full_like(model.params[name], value)
                 for name, value in overrides.items()}
        opt = CountingOptimizer()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match=message):
                policy.train_step(nn.FlatParams({**model.params, **probe}), batch,
                                  np.random.default_rng(0), opt, model)
        assert opt.steps == 0, message


def test_a_training_step_is_one_optimizer_step_on_its_batch(demos, monkeypatch):
    # a benchmark times each train_step call whole, Adam included, and
    # counts its rows from the call's second argument, so the batch must
    # come second and the step must step the optimizer inside, once
    human, robot = demos
    cfg = replace(CFG, epochs=1)
    calls, adam_steps = [], []
    train_step, adam_step = policy.train_step, nn.Adam.step

    def timed(*args, **kwargs):
        before = len(adam_steps)
        out = train_step(*args, **kwargs)
        calls.append((len(args[1]), args[1], len(adam_steps) - before))
        return out

    def counted(self, params, grads):
        adam_steps.append(params.size)
        return adam_step(self, params, grads)

    monkeypatch.setattr(policy, "train_step", timed)
    monkeypatch.setattr(nn.Adam, "step", counted)
    policy.train(human, robot, cfg)
    ref = reference_batches(human, robot, cfg)
    assert [rows for rows, _, _ in calls] == [len(x0) for x0, *_ in ref]
    for rows, batch, steps in calls:
        assert isinstance(batch, data.TrainingRows) and rows == len(batch.targets)
        assert steps == 1


def test_the_discriminator_is_left_alone_at_lambda_da_zero(demos, monkeypatch):
    # its gradient slice of the flat vector is never written, so it stays
    # zero on every step and its weights leave training as they began;
    # with its term on, the same slice carries a gradient
    human, robot = demos
    shapes = policy.build_model(CFG, 1).discriminator.param_shapes()
    disc, n_disc = list(shapes), sum(int(np.prod(shape)) for shape in shapes.values())
    adam_step = nn.Adam.step
    for lambda_da in (0.0, CFG.lambda_da):
        cfg = replace(CFG, epochs=1, lambda_da=lambda_da)
        slices = []

        def recorded(self, params, grads):
            slices.append(grads[-n_disc:].copy())
            return adam_step(self, params, grads)

        monkeypatch.setattr(nn.Adam, "step", recorded)
        model, _ = policy.train(human, robot, cfg)
        initial = policy.build_model(cfg, model.image_dim).params
        # the discriminator's weights are laid out last, after the retargeter
        # fit's steps, whose slices are dropped here
        assert list(model.params)[-len(disc):] == disc
        steps = slices[retarget.STEPS:]
        assert steps
        if lambda_da == 0:
            assert not any(s.any() for s in steps)
            for name in disc:
                assert model.params[name].tobytes() == initial[name].tobytes(), name
        else:
            assert all(s.any() for s in steps)
            assert any(model.params[name].tobytes() != initial[name].tobytes()
                       for name in disc)


def test_sample_is_bit_identical_for_a_seed(trained):
    """The first draw is cold: it builds the model's cached float32 chain
    and the seed's noise draw. The second reuses both, and equals it."""
    model = replace(trained[0])
    policy._seed_noise.cache_clear()
    _, img, kn = observation()
    a_offsets, a_logits = policy.sample(model, img, kn, seed=11)
    b_offsets, b_logits = policy.sample(model, img, kn, seed=11)
    c_offsets, _ = policy.sample(model, img, kn, seed=12)
    assert a_offsets.shape == (CFG.horizon, data.N_TRACK_KEYPOINTS, 2)
    assert a_logits.shape == (CFG.horizon,)
    assert np.array_equal(a_offsets, b_offsets)
    assert np.array_equal(a_logits, b_logits)
    assert not np.array_equal(a_offsets, c_offsets)


def test_checkpoint_round_trip_with_retargeter(trained, tmp_path):
    model, _ = trained
    assert model.retargeter is not None
    path = tmp_path / "policy.ckpt"
    policy.save_policy(path, model)
    loaded = policy.load_policy(path)
    _, img, kn = observation(view=1)
    for a, b in zip(policy.sample(model, img, kn, seed=4), policy.sample(loaded, img, kn, seed=4)):
        assert np.array_equal(a, b)
    assert loaded.cfg == model.cfg and loaded.cfg.schedule == model.cfg.schedule
    pts = np.stack([kn, kn + 0.01])
    assert np.array_equal(loaded.retargeter.transform_batch(pts),
                          model.retargeter.transform_batch(pts))
    again = tmp_path / "again.ckpt"
    policy.save_policy(again, loaded)
    assert again.read_bytes() == path.read_bytes()
    # the retargeter stays frozen after a load, as after a fit
    arrays = loaded.retargeter.to_arrays()
    assert arrays.keys() == model.retargeter.to_arrays().keys()
    for arr in arrays.values():
        with pytest.raises(ValueError):
            arr[...] = 0.0


def test_values_built_from_numpy_scalars_round_trip_through_both_writers(demos, tmp_path):
    # each constructor stores the plain value its rule returns; json.dumps
    # used to raise "Object of type int64 is not JSON serializable"
    cfg = policy.TrainConfig(horizon=np.int64(4), lambda_kl=np.float32(0.5),
                             lambda_da=np.float32(0.25), batch_size=np.int64(16),
                             learning_rate=np.float32(1e-3), epochs=np.int64(1),
                             seed=np.int64(3), embed_dim=np.int64(8),
                             encoder_hidden=(np.int64(16),), denoiser_hidden=(np.int32(32),),
                             disc_hidden=(np.int64(8),), num_steps=np.int64(10),
                             beta_start=np.float32(1e-4), beta_end=np.float64(0.02))
    assert (type(cfg.num_steps), type(cfg.beta_start), type(cfg.beta_end)) == (int, float, float)
    model = policy.build_model(cfg, np.int64(12))
    path = tmp_path / "policy.ckpt"
    policy.save_policy(path, model)
    loaded = policy.load_policy(path)
    assert loaded.cfg == cfg
    assert loaded.cfg.schedule == DiffusionSchedule(10, float(np.float32(1e-4)), 0.02)
    assert (loaded.image_dim, loaded.target_dim) == (12, cfg.target_dim)
    assert loaded.params.keys() == model.params.keys()
    for name, value in model.params.items():
        assert same_bytes(loaded.params[name], value), name

    intr = CameraIntrinsics(fx=np.float32(320), fy=np.float64(320.5), cx=np.int64(64),
                            cy=np.float32(63.5), width=np.int64(128), height=np.int32(128))
    demo = replace(demos[1][0], seed=np.int64(5),
                   cameras=[(intr, pose) for _, pose in demos[1][0].cameras])
    data.save_dataset([demo], tmp_path / "demos.ckpt")
    (back,) = data.load_dataset(tmp_path / "demos.ckpt")
    assert back.seed == 5
    assert [c for c, _ in back.cameras] == [c for c, _ in demo.cameras] == [intr, intr]
    for (_, a), (_, b) in zip(back.cameras, demo.cameras):
        assert same_bytes(a.rotation, b.rotation) and same_bytes(a.translation, b.translation)


# sha256 of save_policy's bytes for fixed-seed tiny models, without and with
# a retargeter: how a model is built may change, the file it writes may not
POLICY_FILE_SHA256 = (
    (False, "47d8abc561033a28c7efac04a3111df19038275d5d46ba4b693a2cebb38f46ae"),
    (True, "6c8027aea3c81f22c534c8de33a20178a136eb1bd278015b2c0b19a18152f9c0"),
)


@pytest.mark.parametrize("with_retargeter, digest", POLICY_FILE_SHA256)
def test_policy_file_bytes_are_pinned(tmp_path, with_retargeter, digest):
    retargeter = KeypointRetargeter(nn.init_params(retarget.NET_SPEC, 7)) \
        if with_retargeter else None
    model = policy.build_model(replace(CFG, horizon=4), 12,
                               retargeter=retargeter)
    path = tmp_path / "policy.ckpt"
    policy.save_policy(path, model)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_load_policy_rejects_other_checkpoint_kinds(trained, tmp_path):
    model, _ = trained
    path = tmp_path / "mislabeled.ckpt"
    nn.save_checkpoint(path, "retargeter", {}, model.retargeter.to_arrays())
    with pytest.raises(SchemaMismatchError, match="'track-policy'"):
        policy.load_policy(path)


def test_load_policy_names_missing_meta_keys(tmp_path):
    path = tmp_path / "incomplete.ckpt"
    nn.save_checkpoint(path, policy.CHECKPOINT_KIND, {"horizon": 16}, {})
    with pytest.raises(SchemaMismatchError, match="'lambda_kl'.*'beta_end'.*'image_dim'"):
        policy.load_policy(path)


def resaved_with(src, dst, drop=(), add=None):
    """A copy of the checkpoint at src without the arrays in drop and with
    the arrays in add."""
    kind, meta, arrays = nn.load_checkpoint(src)
    arrays = {name: arr for name, arr in arrays.items() if name not in drop}
    nn.save_checkpoint(dst, kind, meta, {**arrays, **(add or {})})
    return dst


def test_load_policy_names_missing_arrays(trained, tmp_path):
    path = tmp_path / "policy.ckpt"
    policy.save_policy(path, trained[0])
    bad = resaved_with(path, tmp_path / "missing.ckpt",
                       drop=("denoiser/w1", "retargeter:retargeter/b2"))
    with pytest.raises(SchemaMismatchError, match=r"missing arrays \['denoiser/w1', "
                       r"'retargeter:retargeter/b2'\], unexpected arrays \[\]"):
        policy.load_policy(bad)


def test_load_policy_names_unexpected_arrays(trained, tmp_path):
    path = tmp_path / "policy.ckpt"
    policy.save_policy(path, trained[0])
    bad = resaved_with(path, tmp_path / "extra.ckpt",
                       add={"denoiser/w9": np.zeros(2), "retargeter:scale": np.ones(1)})
    with pytest.raises(SchemaMismatchError, match=r"missing arrays \[\], unexpected arrays "
                       r"\['denoiser/w9', 'retargeter:scale'\]"):
        policy.load_policy(bad)


def test_load_policy_draws_no_initial_weights(trained, tmp_path, monkeypatch):
    model, _ = trained
    path = tmp_path / "policy.ckpt"
    policy.save_policy(path, model)

    def fail(*args):
        raise AssertionError("load_policy drew initial weights")

    monkeypatch.setattr(policy, "init_params", fail)
    loaded = policy.load_policy(path)
    assert loaded.params.keys() == model.params.keys()
    for name, value in model.params.items():
        assert same_bytes(loaded.params[name], value), name


def _reshaped(arrays, name, grow):
    return {**arrays, name: np.zeros(arrays[name].size + grow)}


# (what the rewrite does, meta edit, array edit, message)
MALFORMED_POLICY = [
    ("image_dim as a string", lambda m: {**m, "image_dim": "12"}, None,
     "meta: encoder width must be an integer >= 1, got '12'"),
    ("fractional image_dim", lambda m: {**m, "image_dim": 12.5}, None,
     "meta: encoder width must be an integer >= 1, got 12.5"),
    ("num_steps true", lambda m: {**m, "num_steps": True}, None, "meta: num_steps"),
    ("beta_end as a string", lambda m: {**m, "beta_end": "x"}, None,
     "meta: beta_end must be a real number"),
    ("target_dim as a string", lambda m: {**m, "target_dim": "7"}, None, "meta: can only"),
    ("horizon as a string", lambda m: {**m, "horizon": "16"}, None, "meta: horizon"),
    ("lambda_kl true", lambda m: {**m, "lambda_kl": True}, None, "meta: lambda_kl"),
    ("encoder_hidden not a list", lambda m: {**m, "encoder_hidden": 16}, None,
     "meta: 'int' object is not iterable"),
    ("wrong target_dim", lambda m: {**m, "target_dim": m["target_dim"] - 1}, None,
     r"policy checkpoint: denoiser/w0: expected shape"),
    ("wrong image_dim", lambda m: {**m, "image_dim": m["image_dim"] + 1}, None,
     r"policy checkpoint: encoder/w0: expected shape"),
    ("long denoiser bias", None, lambda a: _reshaped(a, "denoiser/b0", 1),
     r"policy checkpoint: denoiser/b0: expected shape \(32,\), got \(33,\)"),
    ("short retargeter bias", None, lambda a: _reshaped(a, "retargeter:retargeter/b2", -1),
     r"policy checkpoint: retargeter/b2: expected shape"),
]


@pytest.mark.parametrize("edit_meta, edit_arrays, message",
                         [case[1:] for case in MALFORMED_POLICY],
                         ids=[case[0] for case in MALFORMED_POLICY])
def test_load_policy_rejects_malformed_meta_and_arrays(trained, tmp_path, edit_meta, edit_arrays,
                                                       message):
    path = tmp_path / "policy.ckpt"
    policy.save_policy(path, trained[0])
    kind, meta, arrays = nn.load_checkpoint(path)
    nn.save_checkpoint(path, kind, edit_meta(meta) if edit_meta else meta,
                       edit_arrays(arrays) if edit_arrays else arrays)
    with pytest.raises(SchemaMismatchError, match=message) as info:
        policy.load_policy(path)
    # chained from the error that found it
    assert isinstance(info.value.__cause__, (TypeError, ValueError, ShapeMismatchError))


def reference_sample_flat(model, img, kn, seed, dtype=np.float32):
    """The sampler spelled out step by step: layer 0's fixed terms, the
    posterior-mean coefficients and the denoiser's layers are all rebuilt
    inside the loop. The denoiser runs in dtype, cast at the points where
    sample_flat casts: the layer-0 bias summed in float64 and then cast,
    x_t cast on its way in, every weight and bias cast, and the clean
    prediction read back as float64. With float64 every cast is a no-op.
    The timestep features are stacked here from `timestep_embedding`, not
    read from the schedule's table."""
    schedule, params, d = model.cfg.schedule, model.params, model.target_dim
    rng = np.random.default_rng([seed, policy._SAMPLE_STREAM])
    emb = nn.forward(model.encoder, model.params, np.asarray(img).reshape(1, -1))
    kps = model.retargeter.transform_batch(kn[None]).reshape(1, -1)
    cond = np.concatenate([emb, kps], axis=1)
    x = rng.standard_normal((1, d))
    features = np.concatenate([timestep_embedding(t) for t in range(schedule.num_steps)])
    for t in range(schedule.num_steps - 1, -1, -1):
        w0 = params["denoiser/w0"]
        time_term = (features @ w0[d + cond.shape[1]:])[t]
        bias = time_term + (cond @ w0[d:d + cond.shape[1]])[0] + params["denoiser/b0"]
        clean = x.astype(dtype) @ w0[:d].astype(dtype) + bias.astype(dtype)
        # every hidden layer is relu, the output layer identity
        for i in range(1, len(model.denoiser.activations)):
            clean = np.maximum(clean, 0.0) @ params[f"denoiser/w{i}"].astype(dtype) \
                + params[f"denoiser/b{i}"].astype(dtype)
        clean = clean.astype(np.float64)
        abar, beta = schedule.alpha_bars[t], schedule.betas[t]
        abar_prev = schedule.alpha_bars[t - 1] if t > 0 else 1.0
        c0 = np.sqrt(abar_prev) * beta / (1.0 - abar)
        ct = np.sqrt(schedule.alphas[t]) * (1.0 - abar_prev) / (1.0 - abar)
        x = ct * x + c0 * clean
        if t > 0:
            x = x + np.sqrt(beta) * rng.standard_normal(x.shape)
    return x[0]


def reference_eps_sample_flat(model, img, kn, seed):
    """The sampler in its noise-prediction form: the whole concatenated
    input row through the denoiser every step, its clean output turned into
    a noise prediction, and the ancestral update on that."""
    schedule = model.cfg.schedule
    rng = np.random.default_rng([seed, policy._SAMPLE_STREAM])
    emb = nn.forward(model.encoder, model.params, np.asarray(img).reshape(1, -1))
    kps = model.retargeter.transform_batch(kn[None]).reshape(1, -1)
    x = rng.standard_normal((1, model.target_dim))
    for t in range(schedule.num_steps - 1, -1, -1):
        den_in = np.concatenate([x, emb, kps, timestep_embedding(t)], axis=1)
        clean = nn.forward(model.denoiser, model.params, den_in)
        ab = schedule.alpha_bars[[t]][:, None]
        eps = (x - np.sqrt(ab) * clean) / np.sqrt(1.0 - ab)
        beta = schedule.betas[t]
        x = (x - beta / np.sqrt(1.0 - schedule.alpha_bars[t]) * eps) \
            / np.sqrt(schedule.alphas[t])
        if t > 0:
            x = x + np.sqrt(beta) * rng.standard_normal(x.shape)
    return x[0]


def test_sample_flat_matches_the_step_by_step_sampler(trained):
    model, _ = trained
    for view, seed in ((0, 1), (1, 2), (0, 3)):
        _, img, kn = observation(view=view, seed=seed)
        got = policy.sample_flat(model, img, kn, seed=seed)
        assert np.array_equal(got, reference_sample_flat(model, img, kn, seed))
        # the same draw up to float32 rounding in the denoiser: the float64
        # references differ from it by ~3e-8 here, and the split first layer
        # and the posterior-mean update only reorder floating-point sums
        for reference in (reference_sample_flat(model, img, kn, seed, dtype=np.float64),
                          reference_eps_sample_flat(model, img, kn, seed)):
            assert np.abs(got - reference).max() <= 1e-5


def test_sample_flat_runs_the_denoiser_in_float32(trained, baseline, monkeypatch):
    calls = []

    def recording_apply(spec, params, x):
        calls.append((x.dtype, {params[name].dtype for name in spec.param_shapes()}))
        return nn.apply(spec, params, x)

    monkeypatch.setattr(policy, "apply", recording_apply)
    _, img, kn = observation()
    f32 = np.dtype(np.float32)
    for model in (trained[0], baseline[0]):
        calls.clear()
        got = policy.sample_flat(model, img, kn, seed=1)
        assert got.dtype == np.float64 and got.shape == (model.target_dim,)
        assert calls == [(f32, {f32})] * CFG.num_steps
        # the model's own weights stay float64
        assert {arr.dtype for arr in model.params.values()} == {np.dtype(np.float64)}


def test_float32_sampler_rolls_out_like_the_float64_reference(trained, monkeypatch):
    model, _ = trained
    runner = inference.TrackPolicyRunner(model)
    cases = [(sim.make_task(name), seed) for name in ("push_right", "push_left")
             for seed in (21, 22)]
    got = [inference.rollout(runner, task, seed) for task, seed in cases]
    monkeypatch.setattr(policy, "sample_flat", partial(reference_sample_flat, dtype=np.float64))
    want = [inference.rollout(runner, task, seed) for task, seed in cases]
    for a, b in zip(got, want):
        assert a.success == b.success
        assert a.steps_used == b.steps_used
        assert np.abs(a.final_ee - b.final_ee).max() <= 1e-6


def test_draws_share_the_float32_weights_of_a_model(trained, monkeypatch):
    weights = []

    def recording_apply(spec, params, x):
        weights.append({name: arr for name, arr in params.items() if name != "denoiser/b0"})
        return nn.apply(spec, params, x)

    monkeypatch.setattr(policy, "apply", recording_apply)
    model = replace(trained[0])
    _, img, kn = observation()
    policy.sample_flat(model, img, kn, seed=1)
    policy.sample_flat(model, img, kn, seed=2)
    assert len(weights) == 2 * CFG.num_steps
    first = weights[0]
    assert first.keys() == set(model.denoiser.param_shapes()) - {"denoiser/b0"}
    for step in weights[1:]:
        assert step.keys() == first.keys()
        assert all(step[name] is arr for name, arr in first.items())


def test_sample_flat_follows_replaced_denoiser_weights_and_schedule(trained):
    model = replace(trained[0])
    _, img, kn = observation()
    before = policy.sample_flat(model, img, kn, seed=3)
    doubled = with_param(model, "denoiser/w1", 2 * model.params["denoiser/w1"])
    got = policy.sample_flat(doubled, img, kn, seed=3)
    assert not np.array_equal(got, before)
    assert np.array_equal(got, reference_sample_flat(doubled, img, kn, 3))
    shorter = replace(doubled, cfg=replace(doubled.cfg, num_steps=4))
    got = policy.sample_flat(shorter, img, kn, seed=3)
    assert np.array_equal(got, reference_sample_flat(shorter, img, kn, 3))
    # the copies leave the first model's draw as it was
    assert np.array_equal(policy.sample_flat(model, img, kn, seed=3), before)


def test_model_weights_are_read_only_from_construction(trained):
    # the sampler's cached float32 copies would go stale under a write
    fresh = {name: arr.copy() for name, arr in trained[0].params.items()}
    assert all(arr.flags.writeable for arr in fresh.values())
    model = replace(trained[0], params=fresh)
    assert model.params.keys() == fresh.keys()
    for name, arr in model.params.items():
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    # a later change to the dict it was built from does not reach the model
    fresh["denoiser/w1"] = np.zeros(1)
    assert model.params["denoiser/w1"].shape == trained[0].params["denoiser/w1"].shape
    with pytest.raises(TypeError):
        model.params["denoiser/w1"] = np.zeros(1)
    with pytest.raises(AttributeError):
        model.params = {}


def test_a_replan_draws_its_noise_once(trained, monkeypatch):
    calls = []

    def counting_draw_noise(*args):
        calls.append(args[:3])
        return draw_noise(*args)

    model, _ = trained
    state, _, _ = observation()
    task, cams = sim.make_task("push_right"), sim.default_cameras()
    runner = inference.TrackPolicyRunner(model)
    monkeypatch.setattr(policy, "draw_noise", counting_draw_noise)
    policy._seed_noise.cache_clear()
    got = runner.chunk(task, state, cams, seed=41)
    assert calls == [(model.cfg.schedule, 1, model.target_dim)]
    # each view drawing its own noise, as a sampler without the cache would
    monkeypatch.setattr(policy, "sample_flat", reference_sample_flat)
    assert_same_chunk(got, runner.chunk(task, state, cams, seed=41))


@pytest.fixture
def no_sampler_step(monkeypatch):
    """Fails the test if sample_flat reaches the sampler loop."""
    def fail(*args, **kwargs):
        raise AssertionError("the sampler ran before validation failed")
    monkeypatch.setattr(policy, "ancestral_sample", fail)


def with_param(model, name, value):
    params = dict(model.params)
    params[name] = value
    return replace(model, params=params)


def test_model_rejects_misshapen_or_mismatched_nets(trained):
    model, _ = trained
    with pytest.raises(ShapeMismatchError, match="denoiser/b0"):
        with_param(model, "denoiser/b0", np.zeros(model.params["denoiser/b0"].size + 1))
    with pytest.raises(ShapeMismatchError, match="missing parameter disc/w0"):
        replace(model, params={n: a for n, a in model.params.items() if n != "disc/w0"})
    # the nets are built from the config and the two widths, so a config or
    # width that disagrees with the weights names the first parameter that
    # does not fit
    for edit, name in (({"cfg": replace(CFG, encoder_hidden=(17,))}, "encoder/w0"),
                       ({"cfg": replace(CFG, embed_dim=CFG.embed_dim + 1)}, "encoder/w1"),
                       ({"cfg": replace(CFG, denoiser_hidden=(32, 32))}, "denoiser/w1"),
                       ({"cfg": replace(CFG, disc_hidden=(9,))}, "disc/w0"),
                       ({"image_dim": model.image_dim + 1}, "encoder/w0"),
                       ({"target_dim": model.target_dim - 1}, "denoiser/w0")):
        with pytest.raises(ShapeMismatchError, match=f"{name}: expected shape"):
            replace(model, **edit)
    for bad in (True, 2.5, 0, np.float64(12.0)):
        with pytest.raises(ValueError, match="image_dim must be an integer >= 1"):
            replace(model, image_dim=bad)
        with pytest.raises(ValueError, match="target_dim must be an integer >= 1"):
            replace(model, target_dim=bad)
    rebuilt = replace(model, image_dim=np.int64(model.image_dim))
    assert type(rebuilt.image_dim) is int and rebuilt.encoder == model.encoder


def test_sample_flat_rejects_keypoints_of_the_wrong_shape_before_stepping(trained,
                                                                         no_sampler_step):
    model, _ = trained
    _, img, kn = observation()
    hand = np.zeros((21, 2))
    for bad in (hand, kn.reshape(-1), kn[None]):
        with pytest.raises(ValueError, match=r"expected \(5, 2\) keypoints"):
            policy.sample_flat(model, img, bad, seed=1)


def test_sample_flat_rejects_a_seed_it_would_truncate(trained, no_sampler_step, monkeypatch):
    # a seed of 2.7 must not draw seed 2's noise, nor True seed 1's; numpy's
    # SeedSequence rejects -1, but only after the encoder has run
    model, _ = trained
    _, img, kn = observation()

    def fail(*args, **kwargs):
        raise AssertionError("the encoder ran before the seed was checked")

    monkeypatch.setattr(policy, "forward", fail)
    for bad in (2.7, np.float64(2.0), True, np.bool_(True), "1", None, -1, np.int64(-3)):
        with pytest.raises(ValueError, match="seed must be an integer"):
            policy.sample_flat(model, img, kn, seed=bad)
    monkeypatch.undo()
    assert same_bytes(policy.sample_flat(model, img, kn, seed=np.int64(2)),
                      policy.sample_flat(model, img, kn, seed=2))


def test_sample_flat_names_the_layer_a_nan_weight_reaches(trained):
    model, _ = trained
    _, img, kn = observation()
    w1 = model.params["denoiser/w1"].copy()
    w1[3, 0] = np.nan
    with pytest.raises(NonFiniteError, match="denoiser: non-finite values produced by layer 1"):
        policy.sample_flat(with_param(model, "denoiser/w1", w1), img, kn, seed=1)


def test_sample_flat_names_layer_0_for_a_nan_in_any_of_its_blocks(trained, baseline,
                                                                  monkeypatch):
    # the x_t rows multiply x every step; the conditioning rows, the timestep
    # rows and the bias are summed once per draw into each step's layer-0 bias
    steps = []

    def counting_apply(*args):
        steps.append(args)
        return nn.apply(*args)

    monkeypatch.setattr(policy, "apply", counting_apply)
    _, img, kn = observation()
    for model in (trained[0], baseline[0]):
        d, width = model.target_dim, model.denoiser.widths[0]
        k = width - TIME_EMBED_DIM  # the first timestep row
        for name, index in (("denoiser/w0", (3, 1)),        # an x_t row
                            ("denoiser/w0", (d + 2, 0)),    # an embedding row
                            ("denoiser/w0", (k - 1, 4)),    # a keypoint row
                            ("denoiser/w0", (k, 2)),        # timestep rows
                            ("denoiser/w0", (width - 1, 5)),
                            ("denoiser/b0", (7,))):
            value = model.params[name].copy()
            value[index] = np.nan
            steps.clear()
            with pytest.raises(NonFiniteError,
                               match="denoiser: non-finite values produced by layer 0"):
                policy.sample_flat(with_param(model, name, value), img, kn, seed=1)
            assert len(steps) == 1, (name, index)


def test_sample_flat_rejects_non_finite_conditioning_before_stepping(trained, baseline,
                                                                      no_sampler_step):
    model, _ = trained
    _, img, kn = observation()
    w0 = model.params["encoder/w0"].copy()
    w0[0, 2] = np.nan
    with pytest.raises(NonFiniteError, match="encoder: non-finite values produced by layer 0"):
        policy.sample_flat(with_param(model, "encoder/w0", w0), img, kn, seed=1)
    bad_kn = kn.copy()
    bad_kn[1, 0] = np.nan
    with pytest.raises(NonFiniteError, match="points contains NaN or Inf"):
        policy.sample_flat(model, img, bad_kn, seed=1)
    # the baseline has no retargeter: its keypoints reach the denoiser row
    # raw, checked only by sample_flat itself
    base_model, _ = baseline
    bad_kn[1, 0] = np.inf
    with pytest.raises(NonFiniteError, match="non-finite conditioning"):
        policy.sample_flat(base_model, img, bad_kn, seed=1)


def test_learned_rollout_is_bit_identical_for_a_seed(trained):
    model, _ = trained
    task = sim.make_task("push_right")
    runner = inference.TrackPolicyRunner(model)
    a = inference.rollout(runner, task, seed=21)
    b = inference.rollout(runner, task, seed=21)
    c = inference.rollout(runner, task, seed=22)
    assert a.steps_used == b.steps_used > 0
    assert a.success == b.success
    assert np.array(a.residual_log).tobytes() == np.array(b.residual_log).tobytes()
    assert np.array_equal(a.final_ee, b.final_ee)
    assert np.array_equal(a.final_object, b.final_object)
    assert a.residual_log != c.residual_log


# ---------------------------------------------------------------------------
# 6DoF baseline


def test_baseline_log_and_chunk_repeat_for_a_seed(demos, baseline):
    _, robot = demos
    model, log = baseline
    model2, log2 = inference.train_baseline_6dof(robot, CFG)
    assert log == log2
    assert [set(e) for e in log] == [{"epoch", "mse", "total"}] * CFG.epochs
    state, _, _ = observation()
    task, cams = sim.make_task("push_right"), sim.default_cameras()
    a = inference.BaselineRunner(model).chunk(task, state, cams, seed=9)
    b = inference.BaselineRunner(model2).chunk(task, state, cams, seed=9)
    assert a.horizon == CFG.horizon
    assert_same_chunk(a, b)


def test_baseline_deltas_land_on_ee_frame_predictions(baseline):
    model, _ = baseline
    state, img, kn = observation()
    task, cams = sim.make_task("push_right"), sim.default_cameras()
    chunk = inference.BaselineRunner(model).chunk(task, state, cams, seed=9)
    rows = policy.sample_flat(model, img, kn, seed=9).reshape(CFG.horizon, 7)
    ee = state.ee_pose
    for h in range(CFG.horizon):
        predicted = RigidTransform(axis_angle_to_matrix(rows[h, 3:6]), rows[h, :3])
        local = inference.world_to_ee_delta(ee, chunk.delta(h))
        assert np.abs(local.rotation - predicted.rotation).max() < 1e-9
        assert np.abs(local.translation - predicted.translation).max() < 1e-9
        assert chunk.grasps[h] == (rows[h, 6] > 0)
        ee = ee.compose(predicted)


def test_baseline_chunk_rows_equal_per_step_transforms_bitwise(baseline):
    # the pre-conjugated rows go straight into the chunk's arrays with the
    # numerics of one RigidTransform per step
    model, _ = baseline
    state, img, kn = observation(seed=8)
    task, cams = sim.make_task("push_right"), sim.default_cameras()
    chunk = inference.BaselineRunner(model).chunk(task, state, cams, seed=4)
    rows = policy.sample_flat(model, img, kn, seed=4).reshape(CFG.horizon, 7)
    ee = state.ee_pose
    for h in range(CFG.horizon):
        local = RigidTransform(axis_angle_to_matrix(rows[h, 3:6]), rows[h, :3])
        r = ee.rotation @ local.rotation @ ee.rotation.T
        t = ee.rotation @ local.translation + ee.translation - r @ ee.translation
        want = RigidTransform(project_rotation(r), t)
        assert chunk.delta(h).rotation.tobytes() == want.rotation.tobytes()
        assert chunk.delta(h).translation.tobytes() == want.translation.tobytes()
        ee = ee.compose(local)
    assert np.array_equal(chunk.grasps, rows[:, 6] > 0)
    assert np.array_equal(chunk.residuals_px, np.zeros((CFG.horizon, 1)))
