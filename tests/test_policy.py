"""Track policy and 6DoF baseline: determinism, checkpoints, frame bookkeeping.

Every case runs a tiny configuration (small nets, 10-step schedule, two
epochs) so the whole module trains in a few seconds. Determinism is checked
bit for bit: a fixed seed must reproduce training logs, samples, chunks,
rollouts and checkpoints exactly, and the sampler must equal a step-by-step
reference that rebuilds every per-step constant. The co-training step's
gradients are checked against finite differences of the objective each net
descends.
"""

from dataclasses import replace

import numpy as np
import pytest

from trackpolicy import data, inference, nn, policy, sim
from trackpolicy.diffusion import DiffusionSchedule, timestep_embedding
from trackpolicy.errors import NonFiniteError
from trackpolicy.geometry import RigidTransform, axis_angle_to_matrix

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


def observation(view: int = 0, seed: int = 5):
    """(state, feature image, normalized robot keypoints) for one view."""
    state = sim.reset(sim.make_task("push_right"), seed)
    cams = sim.default_cameras()
    img, kps, _ = sim.observe(state, cams[view], sim.robot_embodiment(), view_id=view)
    stats = data.stats_for_camera(cams[view][0])
    return state, img, data.KeypointSet2D(stats.normalize(kps.points), data.ROBOT, view)


def assert_same_chunk(a, b):
    assert len(a.deltas) == len(b.deltas)
    for da, db in zip(a.deltas, b.deltas):
        assert np.array_equal(da.rotation, db.rotation)
        assert np.array_equal(da.translation, db.translation)
    assert np.array_equal(a.grasps, b.grasps)
    assert np.array_equal(a.residuals_px, b.residuals_px)


# ---------------------------------------------------------------------------
# track policy


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
    batch = data.chunk(human[0], cfg.horizon)[:4] + data.chunk(robot[0], cfg.horizon)[:4]
    model = policy.build_model(cfg, batch[0].image.size, schedule=SCHEDULE)
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
    batch = data.chunk(human[0], CFG.horizon)[:4] + data.chunk(robot[0], CFG.horizon)[:4]
    for overrides, message in (
            ({"encoder/w0": 1e308}, "encoder: non-finite values produced by layer 0"),
            ({"denoiser/w0": 1e308}, "denoiser: non-finite values produced by layer 0"),
            # a saturated embedding (every tanh output 1) makes the sum overflow
            ({"encoder/b1": 100.0, "disc/w0": 1e308},
             "disc: non-finite values produced by layer 0"),
            # a finite ~1e200 prediction whose square overflows
            ({"denoiser/b1": 1e200}, "non-finite training loss")):
        model = policy.build_model(CFG, batch[0].image.size, schedule=SCHEDULE)
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
    a = policy.sample(model, img, kn, seed=11)
    b = policy.sample(model, img, kn, seed=11)
    c = policy.sample(model, img, kn, seed=12)
    assert a.offsets.shape == (CFG.horizon, data.N_TRACK_KEYPOINTS, 2)
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.grasp_logits, b.grasp_logits)
    assert not np.array_equal(a.offsets, c.offsets)


def test_checkpoint_round_trip_with_retargeter(trained, tmp_path):
    model, _ = trained
    assert model.retargeter is not None
    path = tmp_path / "policy.ckpt"
    policy.save_policy(path, model)
    loaded = policy.load_policy(path)
    _, img, kn = observation(view=1)
    a = policy.sample(model, img, kn, seed=4)
    b = policy.sample(loaded, img, kn, seed=4)
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.grasp_logits, b.grasp_logits)
    assert loaded.cfg == model.cfg
    assert (loaded.schedule.num_steps, loaded.schedule.beta_start, loaded.schedule.beta_end) \
        == (model.schedule.num_steps, model.schedule.beta_start, model.schedule.beta_end)
    assert loaded.retargeter.get_params() == model.retargeter.get_params()
    pts = np.stack([kn.points, kn.points + 0.01])
    assert np.array_equal(loaded.retargeter.transform_batch(pts),
                          model.retargeter.transform_batch(pts))
    again = tmp_path / "again.ckpt"
    policy.save_policy(again, loaded)
    assert again.read_bytes() == path.read_bytes()
    # the retargeter stays frozen after a load, as after a fit
    meta, arrays = loaded.retargeter.to_arrays()
    assert meta == model.retargeter.to_arrays()[0]
    for arr in arrays.values():
        with pytest.raises(ValueError):
            arr[...] = 0.0


def reference_sample_flat(model, img, kn, seed):
    """The ancestral sampler spelled out step by step, every per-step
    constant (timestep features, sqrt(abar) factors, conditioning row)
    rebuilt inside the loop."""
    schedule = model.schedule
    rng = np.random.default_rng([seed, policy._SAMPLE_STREAM])
    emb = nn.forward(model.encoder, model.params, np.asarray(img).reshape(1, -1))
    kps = model.retargeter.transform_batch(kn.points[None]).reshape(1, -1)
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
        assert np.array_equal(policy.sample_flat(model, img, kn, seed=seed),
                              reference_sample_flat(model, img, kn, seed))


def test_learned_rollout_is_bit_identical_for_a_seed(trained):
    model, _ = trained
    task = sim.make_task("push_right")
    a = inference.rollout(model, task, seed=21)
    b = inference.rollout(model, task, seed=21)
    c = inference.rollout(model, task, seed=22)
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
        local = inference.world_to_ee_delta(ee, chunk.deltas[h])
        assert np.abs(local.rotation - predicted.rotation).max() < 1e-9
        assert np.abs(local.translation - predicted.translation).max() < 1e-9
        assert chunk.grasps[h] == (rows[h, 6] > 0)
        ee = ee.compose(predicted)
