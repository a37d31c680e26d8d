"""Motion-track policy network and its training loop.

Three small MLPs share one loss: an observation encoder (feature raster ->
embedding), a conditional denoiser (noisy flattened track+grasp target ++
embedding ++ retargeted keypoints ++ timestep features -> noise prediction),
and a domain discriminator fed through gradient reversal. The auxiliary
losses pull the two embodiments' embedding distributions together (moment
KL) and make them indistinguishable to the discriminator (adversarial BCE),
so tracks learned from human hands transfer to the gripper.

The denoiser MLP regresses the clean target; its noise prediction is
recovered analytically as (x_t - sqrt(abar)*clean_hat) / sqrt(1-abar). The
two parameterizations share the same optimum, but a plain MLP asked for the
noise directly must modulate an input gain of 1/sqrt(1-abar) (1 to ~50 over
the schedule) by timestep, which it learns orders of magnitude more slowly
than the smooth clean-target map. Loss and sampler both consume the noise
prediction.

Conditioning keypoints always pass through the frozen retargeter first; a
model built with retargeter=None conditions on raw keypoints (identity
retargeting, for robot-only ablations).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import data
from .diffusion import (
    TIME_EMBED_DIM,
    DiffusionSchedule,
    add_noise,
    ancestral_sample,
    timestep_embedding,
    timestep_table,
)
from .errors import EmptyDatasetError, MixedShapesError, NonFiniteError, SchemaMismatchError
from .nn import (
    Adam,
    MlpSpec,
    apply,
    bce_with_logits,
    check_params,
    forward,
    gaussian_kl_alignment,
    init_params,
    load_checkpoint,
    mse_loss,
    save_checkpoint,
)
from .nn import tensor as T
from .retarget import KeypointRetargeter

CHECKPOINT_KIND = "track-policy"

# rng stream tags, decoupled so reseeding one stage cannot alias another
_TRAIN_STREAM = 5519
_SAMPLE_STREAM = 6607


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for co-training; aux weights follow the mixing role they play.

    lambda_kl weights the embedding moment-alignment term, lambda_da the
    adversarial term. Both zero = plain diffusion behavior cloning.
    """

    horizon: int = 16
    lambda_kl: float = 1.0
    lambda_da: float = 0.3
    batch_size: int = 32
    learning_rate: float = 1e-3
    epochs: int = 30
    seed: int = 0
    embed_dim: int = 64
    encoder_hidden: tuple = (128,)
    denoiser_hidden: tuple = (256, 256)
    disc_hidden: tuple = (32,)

    def __post_init__(self):
        object.__setattr__(self, "encoder_hidden", tuple(self.encoder_hidden))
        object.__setattr__(self, "denoiser_hidden", tuple(self.denoiser_hidden))
        object.__setattr__(self, "disc_hidden", tuple(self.disc_hidden))
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not 0.0 <= self.lambda_da <= 1.0:
            raise ValueError(f"lambda_da must be in [0, 1], got {self.lambda_da}")
        if self.lambda_kl < 0.0:
            raise ValueError(f"lambda_kl must be >= 0, got {self.lambda_kl}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")

    @property
    def target_dim(self) -> int:
        # per step: 2 coords per keypoint plus the grasp channel
        return (2 * data.N_TRACK_KEYPOINTS + 1) * self.horizon


@dataclass(frozen=True)
class LossReport:
    """One optimizer step's loss breakdown.

    kl / da / disc_accuracy are None when the corresponding weight is zero
    (the term is skipped, not just zero-valued). total is exactly
    mse + lambda_kl * kl + lambda_da * da over the present terms.
    """

    mse: float
    kl: float | None
    da: float | None
    disc_accuracy: float | None
    total: float


@dataclass(frozen=True)
class MotionTrack:
    """Sampled prediction: per-step keypoint displacements plus grasp logits.

    offsets[h] is the displacement from the *current* keypoints to the
    predicted keypoints at t+h+1, in normalized image units (same convention
    as TrainingSample). Grasp decision per step is logit > 0.
    """

    offsets: np.ndarray       # (H, k, 2)
    grasp_logits: np.ndarray  # (H,)
    view_id: int = 0

    def __post_init__(self):
        off = np.asarray(self.offsets, dtype=np.float64)
        gl = np.asarray(self.grasp_logits, dtype=np.float64)
        if off.ndim != 3 or off.shape[2] != 2:
            raise ValueError(f"offsets must be (H, k, 2), got {off.shape}")
        if gl.shape != (off.shape[0],):
            raise ValueError(f"need one grasp logit per step, got {gl.shape}")
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "grasp_logits", gl)

    @property
    def horizon(self) -> int:
        return self.offsets.shape[0]

    @property
    def grasps(self) -> np.ndarray:
        return self.grasp_logits > 0

    def absolute(self, current_keypoints) -> np.ndarray:
        """Predicted keypoint positions s_{t+1..t+H}: current + offsets."""
        cur = np.asarray(current_keypoints, dtype=np.float64)
        if cur.shape != self.offsets.shape[1:]:
            raise ValueError(f"keypoints {cur.shape} vs offsets {self.offsets.shape}")
        return cur[None] + self.offsets

    def flat(self) -> np.ndarray:
        """(2k+1)*H vector in TrainingSample.flat_target layout."""
        h = self.horizon
        return np.concatenate(
            [self.offsets.reshape(h, -1), self.grasp_logits[:, None]], axis=1).reshape(-1)


@dataclass
class PolicyModel:
    """Parameter bundle: three net specs, one flat name->array dict."""

    encoder: MlpSpec
    denoiser: MlpSpec
    discriminator: MlpSpec
    params: dict
    cfg: TrainConfig
    schedule: DiffusionSchedule
    retargeter: KeypointRetargeter | None = None

    @property
    def image_dim(self) -> int:
        return self.encoder.widths[0]

    @property
    def target_dim(self) -> int:
        return self.denoiser.widths[-1]


def build_model(cfg: TrainConfig, image_dim: int, target_dim: int | None = None,
                schedule: DiffusionSchedule | None = None,
                retargeter: KeypointRetargeter | None = None) -> PolicyModel:
    """Fresh model with seed-derived initialization for each net."""
    if target_dim is None:
        target_dim = cfg.target_dim
    cond_dim = target_dim + cfg.embed_dim + 2 * data.N_TRACK_KEYPOINTS + TIME_EMBED_DIM
    # bounded embedding head: with an unbounded output the task loss can
    # inflate embedding scale along embodiment-separating directions, where
    # the moment-alignment gradient (~1/variance) fades and the adversarial
    # one never catches up
    encoder = MlpSpec((image_dim, *cfg.encoder_hidden, cfg.embed_dim),
                      ("relu",) * len(cfg.encoder_hidden) + ("tanh",), name="encoder")
    denoiser = MlpSpec((cond_dim, *cfg.denoiser_hidden, target_dim),
                       ("relu",) * len(cfg.denoiser_hidden) + ("identity",), name="denoiser")
    disc = MlpSpec((cfg.embed_dim, *cfg.disc_hidden, 1),
                   ("relu",) * len(cfg.disc_hidden) + ("identity",), name="disc")
    seeds = np.random.SeedSequence(cfg.seed).generate_state(3)
    params = {}
    for spec, s in zip((encoder, denoiser, disc), seeds):
        params.update(init_params(spec, int(s)))
    return PolicyModel(encoder, denoiser, disc, params,
                       cfg, schedule or DiffusionSchedule(), retargeter)


def _retarget_flat(retargeter, kps_batch: np.ndarray) -> np.ndarray:
    """(n, k, 2) conditioning keypoints -> (n, 2k), retargeted if available."""
    if retargeter is not None:
        kps_batch = retargeter.transform_batch(kps_batch)
    return kps_batch.reshape(kps_batch.shape[0], -1)


def _stack_batch(batch, target_dim: int):
    """Partition a sample batch human-first and stack its arrays.

    Returns (x0, images, keypoints, n_human). Shape disagreements across the
    batch raise MixedShapesError with the offending index.
    """
    batch = list(batch)
    if not batch:
        raise EmptyDatasetError("empty training batch")
    order = [i for i, s in enumerate(batch) if s.embodiment == data.HUMAN] + \
            [i for i, s in enumerate(batch) if s.embodiment != data.HUMAN]
    n_human = sum(1 for s in batch if s.embodiment == data.HUMAN)
    x0 = np.empty((len(batch), target_dim))
    img0 = np.asarray(batch[0].image)
    images = np.empty((len(batch), img0.size))
    k = data.N_TRACK_KEYPOINTS
    kps = np.empty((len(batch), k, 2))
    for row, i in enumerate(order):
        s = batch[i]
        t = s.flat_target()
        if t.shape != (target_dim,):
            raise MixedShapesError(
                f"sample {i}: target {t.shape}, expected ({target_dim},)")
        if np.asarray(s.image).shape != img0.shape:
            raise MixedShapesError(
                f"sample {i}: image {np.asarray(s.image).shape}, expected {img0.shape}")
        if s.keypoints_norm.shape != (k, 2):
            raise MixedShapesError(
                f"sample {i}: keypoints {s.keypoints_norm.shape}, expected ({k}, 2)")
        x0[row] = t
        images[row] = np.asarray(s.image, dtype=np.float64).reshape(-1)
        kps[row] = s.keypoints_norm
    return x0, images, kps, n_human


def _timestep_weights(schedule: DiffusionSchedule) -> np.ndarray:
    w = 1.0 - schedule.alpha_bars
    return w / w.sum()


def train_step(model: PolicyModel, batch, rng, opt: Adam | None = None) -> LossReport:
    """One optimizer step on a mixed batch; updates model.params in place.

    Loss weights come from model.cfg, noise levels from model.schedule. Pass
    the same Adam across calls to keep its moments; a fresh one is created
    per call otherwise (single-step usage, tests). Each loss returns its own
    gradient and tensor.backward carries it back through each net; a net
    whose term is off gets zero gradients.
    """
    cfg, schedule = model.cfg, model.schedule
    params = model.params
    x0, images, kps, n_human = _stack_batch(batch, model.target_dim)
    n = x0.shape[0]

    kps_cond = _retarget_flat(model.retargeter, kps)
    # The noise-mse seen through the clean-target head weighs clean-target
    # error by abar/(1-abar): ~1e4 near t=0, where x_t ~ x0 makes the job
    # trivial, vs ~0.6 at the noisiest steps that actually decide sample
    # quality.  Drawing t ~ (1-abar) flattens that to ~abar so the
    # conditional map gets gradient parity with the near-identity regime.
    t = rng.choice(schedule.num_steps, size=n, p=_timestep_weights(schedule))
    eps = rng.standard_normal(x0.shape)
    x_t = add_noise(schedule, x0, t, eps)
    temb = timestep_embedding(t)

    # rows are human-first, so the alignment losses address each embodiment
    # as a row block of the one embedding batch
    emb, enc_cache = apply(model.encoder, params, images)
    den_in = np.concatenate([x_t, emb, kps_cond, temb], axis=1)
    clean_hat, den_cache = apply(model.denoiser, params, den_in)
    ab = schedule.alpha_bars[t][:, None]
    sqrt_ab, sqrt_1mab = np.sqrt(ab), np.sqrt(1.0 - ab)
    eps_hat = (x_t - clean_hat * sqrt_ab) / sqrt_1mab
    mse, g_eps_hat = mse_loss(eps_hat, eps)
    den_grads, g_den_in = T.backward(model.denoiser, params, den_cache,
                                     -(g_eps_hat / sqrt_1mab) * sqrt_ab, input_grad=True)
    d = model.target_dim
    g_emb = g_den_in[:, d:d + cfg.embed_dim]

    total = mse
    kl_value = da_value = accuracy = None
    if cfg.lambda_kl > 0:
        if n_human in (0, n):
            raise EmptyDatasetError(
                "lambda_kl > 0 needs both embodiments in every batch")
        kl_value, g_h, g_r = gaussian_kl_alignment(emb[:n_human], emb[n_human:])
        total = total + cfg.lambda_kl * kl_value
        g_emb = g_emb + cfg.lambda_kl * np.concatenate([g_h, g_r])
    if cfg.lambda_da > 0:
        labels = (np.arange(n) < n_human).astype(np.float64)[:, None]
        logits, disc_cache = apply(model.discriminator, params, emb)
        da_value, g_logits = bce_with_logits(logits, labels)
        total = total + cfg.lambda_da * da_value
        accuracy = float(np.mean((logits > 0) == (labels > 0.5)))
        disc_grads, g_disc_in = T.backward(model.discriminator, params, disc_cache,
                                           cfg.lambda_da * g_logits, input_grad=True)
        # gradient reversal: the discriminator descends the adversarial term
        # and the encoder ascends it
        g_emb = g_emb - g_disc_in
    else:
        disc_grads = {name: np.zeros(shape)
                      for name, shape in model.discriminator.param_shapes().items()}
    if not np.isfinite(total):
        raise NonFiniteError(f"non-finite training loss {total}")

    enc_grads, _ = T.backward(model.encoder, params, enc_cache, g_emb)
    opt = opt if opt is not None else Adam(cfg.learning_rate)
    model.params = opt.step(params, {**enc_grads, **den_grads, **disc_grads})
    return LossReport(mse, kl_value, da_value, accuracy, total)


def _mixed_batches(samples_h, samples_r, batch_size: int, rng):
    """Shuffled batches; with both pools present each batch is half/half,
    the smaller pool cycling. Single-pool batches otherwise."""
    if samples_h and samples_r:
        half = max(1, batch_size // 2)
        big, small = (samples_h, samples_r) if len(samples_h) >= len(samples_r) \
            else (samples_r, samples_h)
        big_idx = rng.permutation(len(big))
        small_idx = rng.permutation(len(small))
        out = []
        pos = 0
        for start in range(0, len(big), half):
            chunk_big = [big[i] for i in big_idx[start:start + half]]
            if len(chunk_big) < 2:
                continue  # moment losses need >= 2 rows per side; drop the tail
            chunk_small = []
            for _ in range(len(chunk_big)):
                if pos == len(small_idx):
                    small_idx = rng.permutation(len(small))
                    pos = 0
                chunk_small.append(small[small_idx[pos]])
                pos += 1
            out.append(chunk_small + chunk_big)
        return out
    pool = samples_h or samples_r
    idx = rng.permutation(len(pool))
    return [[pool[i] for i in idx[s:s + batch_size]]
            for s in range(0, len(pool), batch_size)]


def train_epochs(model: PolicyModel, samples_h, samples_r):
    """The epoch loop: yields one log entry per epoch as model.params update.

    Runs model.cfg's epochs with one Adam for the whole run, its learning
    rate on a cosine decay to 5%; batches from _mixed_batches. An entry holds
    the epoch index and the mean of each LossReport field over the epoch's
    steps (None where every step skipped that term).
    """
    cfg = model.cfg
    rng = np.random.default_rng([cfg.seed, _TRAIN_STREAM])
    opt = Adam(cfg.learning_rate)
    for epoch in range(cfg.epochs):
        # cosine decay to 5%: late epochs at full lr kick the loss out of
        # the basin every few hundred steps
        frac = epoch / max(1, cfg.epochs - 1)
        opt.learning_rate = cfg.learning_rate * (
            0.05 + 0.95 * 0.5 * (1.0 + np.cos(np.pi * frac)))
        reports = [train_step(model, b, rng, opt)
                   for b in _mixed_batches(samples_h, samples_r, cfg.batch_size, rng)]
        entry = {"epoch": epoch}
        for key in ("mse", "kl", "da", "disc_accuracy", "total"):
            vals = [getattr(r, key) for r in reports if getattr(r, key) is not None]
            entry[key] = float(np.mean(vals)) if vals else None
        yield entry


def train(dataset_human, dataset_robot, cfg: TrainConfig,
          schedule: DiffusionSchedule | None = None, log_fn=None):
    """Co-train on mixed demonstrations. Returns (model after the last epoch,
    per-epoch log).

    The retargeter is fit on the human demos' keypoint frames; with no human
    data conditioning stays raw. Aux weights > 0 require both datasets
    (EmptyDatasetError otherwise). log_fn, if given, receives each log entry
    as its epoch ends.
    """
    human = list(dataset_human)
    robot = list(dataset_robot)
    if not human and not robot:
        raise EmptyDatasetError("no demonstrations at all")
    aux_on = cfg.lambda_kl > 0 or cfg.lambda_da > 0
    if aux_on and (not human or not robot):
        raise EmptyDatasetError(
            "alignment losses need both embodiments; set lambda_kl=lambda_da=0 "
            "for single-embodiment training")

    samples_h = [s for d in human for s in data.chunk(d, cfg.horizon)]
    samples_r = [s for d in robot for s in data.chunk(d, cfg.horizon)]

    frames = [f for d in human for f in data.normalized_keypoint_frames(d)]
    retargeter = KeypointRetargeter(seed=cfg.seed).fit(frames) if human else None

    image_dim = int(np.asarray((samples_h or samples_r)[0].image).size)
    model = build_model(cfg, image_dim, schedule=schedule, retargeter=retargeter)
    log = []
    for entry in train_epochs(model, samples_h, samples_r):
        log.append(entry)
        if log_fn is not None:
            log_fn(entry)
    return model, log


def sample_flat(model: PolicyModel, feature_image, keypoints: data.KeypointSet2D,
                seed: int = 0) -> np.ndarray:
    """Raw conditional diffusion draw: the flat target vector, un-reshaped.

    Runs model.schedule's steps; the draw is a function of seed alone. The
    track policy wraps this into a MotionTrack; the 6DoF-delta baseline
    reads its action rows straight out of the flat vector.
    """
    schedule = model.schedule
    rng = np.random.default_rng([int(seed), _SAMPLE_STREAM])
    if keypoints.k != data.N_TRACK_KEYPOINTS:
        raise ValueError(f"expected k={data.N_TRACK_KEYPOINTS}, got k={keypoints.k}")
    img = np.asarray(feature_image, dtype=np.float64).reshape(1, -1)
    d = model.target_dim
    # the denoiser's input row is [x_t | embedding | keypoints | timestep
    # features]; only the first and last blocks change between steps
    den_in = np.concatenate([
        np.zeros((1, d)), forward(model.encoder, model.params, img),
        _retarget_flat(model.retargeter, keypoints.points[None]),
        np.zeros((1, TIME_EMBED_DIM))], axis=1)
    temb = timestep_table(schedule.num_steps)
    sqrt_ab = np.sqrt(schedule.alpha_bars)
    sqrt_1mab = np.sqrt(1.0 - schedule.alpha_bars)

    def eps_fn(x, t):
        den_in[:, :d] = x
        den_in[:, -TIME_EMBED_DIM:] = temb[t]
        clean_hat = forward(model.denoiser, model.params, den_in)
        return (x - sqrt_ab[t] * clean_hat) / sqrt_1mab[t]

    return ancestral_sample(eps_fn, 1, d, schedule, rng)[0]


def sample(model: PolicyModel, feature_image, keypoints: data.KeypointSet2D,
           seed: int = 0) -> MotionTrack:
    """Draw one motion track conditioned on an observation.

    keypoints: normalized units, k matching the model. Bit-identical for a
    given seed.
    """
    k = data.N_TRACK_KEYPOINTS
    per_step = sample_flat(model, feature_image, keypoints, seed).reshape(-1, 2 * k + 1)
    return MotionTrack(per_step[:, :-1].reshape(-1, k, 2), per_step[:, -1], keypoints.view_id)


# ---------------------------------------------------------------------------
# persistence


def save_policy(path, model: PolicyModel) -> None:
    meta = {f.name: getattr(model.cfg, f.name) for f in fields(TrainConfig)}
    meta.update(image_dim=model.image_dim, target_dim=model.target_dim,
                num_steps=model.schedule.num_steps,
                beta_start=model.schedule.beta_start,
                beta_end=model.schedule.beta_end,
                has_retargeter=model.retargeter is not None)
    arrays = dict(model.params)
    if model.retargeter is not None:
        meta["retargeter_params"], ret_arrays = model.retargeter.to_arrays()
        for name, arr in ret_arrays.items():
            arrays[f"retargeter:{name}"] = arr
    save_checkpoint(path, CHECKPOINT_KIND, meta, arrays)


def load_policy(path) -> PolicyModel:
    kind, meta, arrays = load_checkpoint(path)
    if kind != CHECKPOINT_KIND:
        raise SchemaMismatchError(f"expected a {CHECKPOINT_KIND!r} checkpoint, got {kind!r}")
    cfg = TrainConfig(**{f.name: meta[f.name] for f in fields(TrainConfig)})
    schedule = DiffusionSchedule(meta["num_steps"], meta["beta_start"], meta["beta_end"])
    retargeter = None
    params = {}
    ret_arrays = {}
    for name, arr in arrays.items():
        if name.startswith("retargeter:"):
            ret_arrays[name.split(":", 1)[1]] = arr
        else:
            params[name] = arr
    if meta.get("has_retargeter"):
        retargeter = KeypointRetargeter.from_arrays(meta["retargeter_params"], ret_arrays)
    model = build_model(cfg, meta["image_dim"], target_dim=meta["target_dim"],
                        schedule=schedule, retargeter=retargeter)
    for spec in (model.encoder, model.denoiser, model.discriminator):
        check_params(spec, params)
    model.params = params
    return model
