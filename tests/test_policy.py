"""Track policy and 6DoF baseline: determinism, checkpoints, frame bookkeeping.

Every case runs a tiny configuration (small nets, 10-step schedule, two
epochs) so the whole module trains in a few seconds. Determinism is checked
bit for bit: a fixed seed must reproduce training logs, samples, chunks,
rollouts and checkpoints exactly, and the sampler must equal a step-by-step
reference that rebuilds every per-step constant. A draw validates the
denoiser's parameters and its fixed conditioning before the first step.
The co-training step's gradients are checked against finite differences of
the objective each net descends.
"""

from dataclasses import replace

import numpy as np
import pytest

from trackpolicy import data, inference, nn, policy, sim
from trackpolicy.diffusion import (
    TIME_EMBED_DIM,
    DiffusionSchedule,
    timestep_embedding,
    timestep_table,
)
from trackpolicy.errors import (
    EmptyDatasetError,
    MixedShapesError,
    NonFiniteError,
    SchemaMismatchError,
    ShapeMismatchError,
)
from trackpolicy.geometry import RigidTransform, axis_angle_to_matrix, project_rotation
from trackpolicy.retarget import KeypointRetargeter

CFG = policy.TrainConfig(epochs=2, batch_size=16, embed_dim=8, encoder_hidden=(16,),
                         denoiser_hidden=(32,), disc_hidden=(8,), seed=3)
SCHEDULE = DiffusionSchedule(num_steps=10)


@pytest.fixture(scope="module")
def demos():
    # 8 hand demos x ~8 frames x 2 views clear the retargeter's 100-frame floor
    robot = sim.generate_demos("push", data.ROBOT, 2, "right", seed_start=0)
    human = sim.generate_demos("push", data.HUMAN, 8, "both", seed_start=100)
    return human, robot


@pytest.fixture(scope="module")
def trained(demos):
    human, robot = demos
    return policy.train(human, robot, CFG, schedule=SCHEDULE)


@pytest.fixture(scope="module")
def baseline(demos):
    _, robot = demos
    return inference.train_baseline_6dof(robot, CFG, schedule=SCHEDULE)


def first_rows(human, robot, horizon, n=4):
    """The first n rows of a human and of a robot demo, human first."""
    pool = data.TrainingRows.join([data.chunk(human[0], horizon), data.chunk(robot[0], horizon)])
    return pool.take(np.r_[0:n, pool.n_human:pool.n_human + n])


def observation(view: int = 0, seed: int = 5):
    """(state, feature image, normalized robot keypoints) for one view."""
    state = sim.reset(sim.make_task("push_right"), seed)
    cams = sim.default_cameras()
    img, kps = sim.observe(state, cams[view], sim.robot_embodiment(), view_id=view)
    return state, img, data.normalize_keypoints(kps.points, cams[view][0])


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
                       ("learning_rate", np.nan), ("batch_size", 3), ("epochs", -1)):
        with pytest.raises(ValueError, match=field):
            policy.TrainConfig(**{field: bad})
    # the edges of each accepted range construct
    for field, good in (("horizon", 1), ("lambda_da", 0.0), ("lambda_da", 1.0),
                        ("lambda_kl", 0.0), ("learning_rate", 1e-12),
                        ("batch_size", 4), ("epochs", 0)):
        assert getattr(policy.TrainConfig(**{field: good}), field) == good


def test_train_log_repeats_for_a_seed(demos, trained):
    human, robot = demos
    model, log = trained
    model2, log2 = policy.train(human, robot, CFG, schedule=SCHEDULE)
    assert log == log2
    assert len(log) == CFG.epochs
    assert all(e["kl"] is not None and e["da"] is not None for e in log)
    assert model.params.keys() == model2.params.keys()
    for name in model.params:
        assert np.array_equal(model.params[name], model2.params[name]), name


def reference_samples(demo, horizon):
    """(embodiment, image, keypoints, flat target) per (view, t), each row
    built on its own from the demo's frames."""
    out = []
    for v in range(demo.n_views):
        intr = demo.cameras[v][0]
        track = np.asarray([data.normalize_keypoints(
            views[v].keypoints.points[list(data.HAND_SUBSET_INDICES)]
            if views[v].keypoints.k == 21 else views[v].keypoints.points, intr)
            for views in demo.frames])
        grasps = np.asarray([views[v].grasp for views in demo.frames], dtype=np.float64)
        for t in range(demo.length):
            idx = np.minimum(t + 1 + np.arange(horizon), demo.length - 1)
            flat = np.concatenate([(track[idx] - track[t]).reshape(horizon, -1),
                                   (2.0 * grasps[idx] - 1.0)[:, None]], axis=1).reshape(-1)
            out.append((demo.embodiment, demo.frames[t][v].image, track[t], flat))
    return out


def reference_batches(human, robot, cfg):
    """Epoch 0's co-training batches built per sample: shuffled sample
    lists (the smaller pool cycling), each stacked human-first into
    (x0, images, keypoints, n_human)."""
    samples_h = [s for d in human for s in reference_samples(d, cfg.horizon)]
    samples_r = [s for d in robot for s in reference_samples(d, cfg.horizon)]
    rng = np.random.default_rng([cfg.seed, policy._TRAIN_STREAM])
    half = cfg.batch_size // 2
    big, small = (samples_h, samples_r) if len(samples_h) >= len(samples_r) \
        else (samples_r, samples_h)
    big_idx, small_idx = rng.permutation(len(big)), rng.permutation(len(small))
    batches, pos = [], 0
    for start in range(0, len(big), half):
        chunk_big = [big[i] for i in big_idx[start:start + half]]
        if len(chunk_big) < 2:
            continue
        chunk_small = []
        for _ in chunk_big:
            if pos == len(small_idx):
                small_idx, pos = rng.permutation(len(small)), 0
            chunk_small.append(small[small_idx[pos]])
            pos += 1
        batch = [s for s in chunk_small + chunk_big if s[0] == data.HUMAN] + \
                [s for s in chunk_small + chunk_big if s[0] != data.HUMAN]
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
    seen, fitted = [], []
    train_step, fit = policy.train_step, KeypointRetargeter.fit

    def record_step(model, batch, rng, opt=None):
        seen.append(batch)
        return train_step(model, batch, rng, opt)

    def record_fit(self, points):
        fitted.append(np.array(points))
        return fit(self, points)

    monkeypatch.setattr(policy, "train_step", record_step)
    monkeypatch.setattr(KeypointRetargeter, "fit", record_fit)
    policy.train(human, robot, cfg, schedule=SCHEDULE)
    ref = reference_batches(human, robot, cfg)
    assert len(seen) == len(ref) > 1
    for batch, (x0, images, kps, n_human) in zip(seen, ref):
        assert batch.n_human == n_human == len(batch) // 2
        assert same_bytes(batch.targets, x0)
        assert same_bytes(batch.images, images)
        assert same_bytes(batch.keypoints, kps)
    # the retargeter trains on every hand frame, view-major within each demo
    frames = np.stack([s[2] for d in human for s in reference_samples(d, cfg.horizon)])
    assert len(fitted) == 1 and same_bytes(fitted[0], frames)


def test_train_rejects_missing_embodiments(demos):
    human, robot = demos
    with pytest.raises(EmptyDatasetError, match="no demonstrations"):
        policy.train([], [], CFG)
    for h, r in ((human, []), ([], robot)):
        with pytest.raises(EmptyDatasetError, match="alignment losses need both"):
            policy.train(h, r, CFG)


def with_raster(demo, size):
    """The demo with every feature image cropped to size x size."""
    frames = tuple(tuple(data.FrameView(fv.image[:, :size, :size], fv.keypoints, fv.grasp)
                         for fv in views) for views in demo.frames)
    return replace(demo, frames=frames)


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
        with pytest.raises(ValueError, match="batch_size must be >= 4"):
            replace(CFG, batch_size=size)
    human, robot = demos
    _, log = policy.train(human, robot, replace(CFG, batch_size=4, epochs=1),
                          schedule=SCHEDULE)
    assert all(log[0][key] is not None for key in ("mse", "kl", "da", "total"))


class RecordingOptimizer:
    """Adam stand-in: keeps the gradients train_step hands it and returns
    the parameters unchanged."""

    def step(self, params, grads):
        self.grads = grads
        return params


def test_train_step_gradients_match_finite_differences(demos):
    # Config seed 5 and this batch leave every relu pre-activation of the
    # three nets at least 3.9e-4 (~40 h) from zero, so no probe straddles a kink.
    cfg = replace(CFG, seed=5)
    human, robot = demos
    batch = first_rows(human, robot, cfg.horizon)
    model = policy.build_model(cfg, batch.images.shape[1], schedule=SCHEDULE)
    base = dict(model.params)
    opt = RecordingOptimizer()

    def gradcheck(names, objective):
        def loss_fn(params):
            model.params = {**base, **params}
            # a fresh rng per call freezes the timestep and noise draw
            report = policy.train_step(model, batch, np.random.default_rng(0), opt)
            return objective(report), {name: opt.grads[name] for name in params}
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
    # output, or the one on the loss, trips before any optimizer step, so no
    # parameter moves
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
        model = policy.build_model(CFG, batch.images.shape[1], schedule=SCHEDULE)
        for name, value in overrides.items():
            model.params[name] = np.full_like(model.params[name], value)
        before = dict(model.params)
        opt = RecordingOptimizer()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match=message):
                policy.train_step(model, batch, np.random.default_rng(0), opt)
        assert not hasattr(opt, "grads"), message
        assert model.params.keys() == before.keys()
        assert all(model.params[name] is arr for name, arr in before.items()), message


def test_sample_is_bit_identical_for_a_seed(trained):
    model, _ = trained
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
    assert loaded.cfg == model.cfg
    assert (loaded.schedule.num_steps, loaded.schedule.beta_start, loaded.schedule.beta_end) \
        == (model.schedule.num_steps, model.schedule.beta_start, model.schedule.beta_end)
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


def test_load_policy_rejects_other_checkpoint_kinds(trained, tmp_path):
    model, _ = trained
    path = tmp_path / "mislabeled.ckpt"
    nn.save_checkpoint(path, "retargeter", {}, model.retargeter.to_arrays())
    with pytest.raises(SchemaMismatchError, match="'track-policy'"):
        policy.load_policy(path)


def test_load_policy_names_missing_meta_keys(tmp_path):
    path = tmp_path / "incomplete.ckpt"
    nn.save_checkpoint(path, policy.CHECKPOINT_KIND, {"horizon": 16}, {})
    with pytest.raises(SchemaMismatchError, match="'lambda_kl'.*'image_dim'.*'beta_end'"):
        policy.load_policy(path)


def reference_sample_flat(model, img, kn, seed):
    """The sampler spelled out step by step: layer 0's fixed terms, the
    posterior-mean coefficients and the denoiser's layers are all rebuilt
    inside the loop."""
    schedule, params, d = model.schedule, model.params, model.target_dim
    rng = np.random.default_rng([seed, policy._SAMPLE_STREAM])
    emb = nn.forward(model.encoder, model.params, np.asarray(img).reshape(1, -1))
    kps = model.retargeter.transform_batch(kn[None]).reshape(1, -1)
    cond = np.concatenate([emb, kps], axis=1)
    x = rng.standard_normal((1, d))
    for t in range(schedule.num_steps - 1, -1, -1):
        w0 = params["denoiser/w0"]
        time_term = (timestep_table(schedule.num_steps) @ w0[d + cond.shape[1]:])[t]
        bias = time_term + (cond @ w0[d:d + cond.shape[1]])[0] + params["denoiser/b0"]
        clean = x @ w0[:d] + bias
        # every hidden layer is relu, the output layer identity
        for i in range(1, len(model.denoiser.activations)):
            clean = np.maximum(clean, 0.0) @ params[f"denoiser/w{i}"] + params[f"denoiser/b{i}"]
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
    schedule = model.schedule
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
        # the same draw up to rounding: the split first layer and the
        # posterior-mean update only reorder floating-point sums
        assert np.abs(got - reference_eps_sample_flat(model, img, kn, seed)).max() <= 1e-10


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


def test_sample_flat_rejects_a_misshapen_denoiser_before_stepping(trained, no_sampler_step):
    model, _ = trained
    _, img, kn = observation()
    bad = with_param(model, "denoiser/b0", np.zeros(model.params["denoiser/b0"].size + 1))
    with pytest.raises(ShapeMismatchError, match="denoiser/b0"):
        policy.sample_flat(bad, img, kn, seed=1)
    # an encoder one unit wider than the denoiser's embedding block
    wide = nn.MlpSpec(model.encoder.widths[:-1] + (CFG.embed_dim + 1,),
                      model.encoder.activations, name="encoder")
    bad = replace(model, encoder=wide, params={**model.params, **nn.init_params(wide, 0)})
    with pytest.raises(ShapeMismatchError, match="denoiser input width"):
        policy.sample_flat(bad, img, kn, seed=1)


def test_sample_flat_rejects_keypoints_of_the_wrong_shape_before_stepping(trained,
                                                                         no_sampler_step):
    model, _ = trained
    _, img, kn = observation()
    hand = np.zeros((21, 2))
    for bad in (hand, kn.reshape(-1), kn[None]):
        with pytest.raises(ValueError, match=r"expected \(5, 2\) keypoints"):
            policy.sample_flat(model, img, bad, seed=1)


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
    model2, log2 = inference.train_baseline_6dof(robot, CFG, schedule=SCHEDULE)
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
