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
than the smooth clean-target map. The loss consumes the noise prediction,
the sampler the clean one.

A policy's noise process is part of its config: `TrainConfig` builds its one
`DiffusionSchedule`, `cfg.schedule`, from three knobs, and that schedule owns
every table that training and sampling read. The one module-level cache here,
`_seed_noise`, holds the noise drawn for a seed.

Conditioning keypoints always pass through the frozen retargeter first; a
model built with retargeter=None conditions on raw keypoints (identity
retargeting, for robot-only ablations). Training retargets them once per
pool (`train_epochs`, one `transform_batch` call on every row) and sampling
once per draw (`sample_flat`); `train_step` takes its batch's keypoints as
they are.

Sampling runs the denoiser chain in float32, which halves the weight bytes
each step's matrix-vector products read. At one row per draw, though, a
step's time goes mostly to numpy dispatch: three products, their bias adds
and activations, a finiteness check per layer and one on the sampler's x.
Those checks use the package's one predicate (`errors.has_nonfinite`), which
skips `ndarray.all`'s reduction wrapper. Everything else stays float64: the
model's weights, training, checkpoints, the encoder, the retargeter and the
sampler's own update. A draw differs from its float64 counterpart by float32
rounding (a few 1e-8 on the test models). A model's weights never change,
so what a draw needs from them alone (the float32 copies and layer 0's
timestep term) is built by its first draw and kept with it; x_T and the
step noise, a function of the seed alone, are drawn once for the two views
of a replan, which share their seed.

`train_epochs` is the one training loop, for the track head and the 6DoF
baseline. It lays the weights out once in one flat vector (`FlatParams`),
and its steps (`train_step`) step that vector in place: the nets read
per-name views of it, `tensor.backward` writes every gradient into views of
one flat gradient vector, and one `Adam.step` steps the whole vector. So a
training call builds one model, its result. It trains only the feature cells
its pool lights: a raster cell that is zero in every training row cannot
move its encoder weights, so the steps run on those cells' rows of
encoder/w0, and the model keeps its full input width with the other rows at
their initial values.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType

import numpy as np

from . import data
from .diffusion import TIME_EMBED_DIM, DiffusionSchedule, ancestral_sample, draw_noise
from .errors import (
    EmptyDatasetError,
    NonFiniteError,
    SchemaMismatchError,
    ShapeMismatchError,
    check_int,
    check_real,
    has_nonfinite,
)
from .nn import (
    Adam,
    FlatParams,
    MlpSpec,
    apply,
    bce_with_logits,
    check_array_names,
    check_keys,
    check_params,
    forward,
    gaussian_kl_alignment,
    init_params,
    load_checkpoint,
    mse_loss,
    save_checkpoint,
)
from .nn import tensor as T
from .retarget import NET_SPEC as RETARGET_SPEC, KeypointRetargeter

CHECKPOINT_KIND = "track-policy"

# rng stream tags, decoupled so reseeding one stage cannot alias another
_TRAIN_STREAM = 5519
_SAMPLE_STREAM = 6607


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for co-training; aux weights follow the mixing role they play.

    lambda_kl weights the embedding moment-alignment term, lambda_da the
    adversarial term. Both zero = plain diffusion behavior cloning.
    num_steps, beta_start and beta_end build the one `DiffusionSchedule`,
    whose checks are theirs, kept as `schedule`; equality and hashing ignore
    it, since the three knobs determine it.

    Knobs are stored as plain Python values (`errors.check_int`,
    `errors.check_real`), whatever numeric type they came as, so a
    checkpoint's JSON meta holds every knob a config accepts.
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
    num_steps: int = 100
    beta_start: float = 1e-4
    beta_end: float = 0.02
    schedule: DiffusionSchedule = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # co-training batches are half human, half robot, and the moment
        # losses need at least 2 rows on each side; the seed feeds numpy's
        # SeedSequence, which takes integers >= 0 only
        for name, low in (("horizon", 1), ("batch_size", 4), ("epochs", 0), ("seed", 0),
                          ("embed_dim", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), low))
        for name in ("encoder_hidden", "denoiser_hidden", "disc_hidden"):
            object.__setattr__(self, name, tuple(check_int(name, w, 1)
                                                 for w in getattr(self, name)))
        for name in ("lambda_kl", "lambda_da", "learning_rate"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        # written so that NaN fails them
        if not 0.0 <= self.lambda_da <= 1.0:
            raise ValueError(f"lambda_da must be in [0, 1], got {self.lambda_da}")
        if not 0.0 <= self.lambda_kl < np.inf:
            raise ValueError(f"lambda_kl must be finite and >= 0, got {self.lambda_kl}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        schedule = DiffusionSchedule(self.num_steps, self.beta_start, self.beta_end)
        for name in ("num_steps", "beta_start", "beta_end"):
            object.__setattr__(self, name, getattr(schedule, name))
        object.__setattr__(self, "schedule", schedule)

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


@dataclass(frozen=True, eq=False)
class PolicyModel:
    """A policy as a value: cfg, image_dim feature cells in, target_dim
    values out, and one flat name->array mapping of weights, checked once
    when built (integer dims >= 1, else ValueError; ShapeMismatchError).

    Its nets come from cfg, image_dim and target_dim (`_specs`), so they
    cannot disagree with cfg. The denoiser reads [target | embedding | 2k
    keypoint coordinates | timestep features], the discriminator the
    embedding. Its noise process is cfg.schedule. params is stored as a
    read-only mapping of arrays made read-only in place, so a
    `dataclasses.replace` copy is a new model.
    """

    cfg: TrainConfig
    image_dim: int
    target_dim: int
    params: Mapping
    retargeter: KeypointRetargeter | None = None
    encoder: MlpSpec = field(init=False)
    denoiser: MlpSpec = field(init=False)
    discriminator: MlpSpec = field(init=False)

    def __post_init__(self):
        for name in ("image_dim", "target_dim"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 1))
        params = dict(self.params)
        for name, spec in zip(("encoder", "denoiser", "discriminator"),
                              _specs(self.cfg, self.image_dim, self.target_dim)):
            check_params(spec, params)
            object.__setattr__(self, name, spec)
        for arr in params.values():
            arr.flags.writeable = False
        object.__setattr__(self, "params", MappingProxyType(params))

    @functools.cached_property
    def _chain(self) -> tuple:
        """The sampler's weight-only state, (params, time_term), read-only.

        params: float32 copies of layer 0's x_t block (`denoiser/w0` rows :d)
        and of every denoiser parameter past layer 0. time_term: the float64
        (num_steps, hidden) product of cfg.schedule's timestep features and
        w0's time rows.
        """
        d = self.target_dim
        w0 = self.params["denoiser/w0"]
        params = {name: self.params[name].astype(np.float32)
                  for name in self.denoiser.param_shapes()
                  if name not in ("denoiser/w0", "denoiser/b0")}
        params["denoiser/w0"] = w0[:d].astype(np.float32)
        time_term = self.cfg.schedule.timestep_features @ w0[-TIME_EMBED_DIM:]
        for arr in (*params.values(), time_term):
            arr.flags.writeable = False
        return params, time_term


def _specs(cfg: TrainConfig, image_dim: int, target_dim: int) -> tuple:
    """The (encoder, denoiser, discriminator) specs of a model with cfg's
    widths that reads image_dim feature cells and predicts target_dim values."""
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
    return encoder, denoiser, disc


def build_model(cfg: TrainConfig, image_dim: int, target_dim: int | None = None,
                retargeter: KeypointRetargeter | None = None) -> PolicyModel:
    """Fresh model with seed-derived initialization for each net."""
    target_dim = cfg.target_dim if target_dim is None else target_dim
    seeds = np.random.SeedSequence(cfg.seed).generate_state(3)
    params = {}
    for spec, s in zip(_specs(cfg, image_dim, target_dim), seeds):
        params.update(init_params(spec, int(s)))
    return PolicyModel(cfg, image_dim, target_dim, params, retargeter)


def train_step(flat: FlatParams, batch: data.TrainingRows, rng, opt: Adam,
               model: PolicyModel) -> LossReport:
    """One optimizer step, in place, of the flat weights on a human-first
    batch of rows. Returns its LossReport.

    model supplies the nets' layer names and activations, the loss weights
    and noise levels (cfg and cfg.schedule), never its params or retargeter:
    batch.keypoints condition the denoiser as they are. opt keeps its
    moments across calls. Each loss returns its own gradient and
    tensor.backward carries it back through each net into flat.grads; the
    discriminator's slice is never written when its term is off, so it
    stays zero and its weights do not move.
    """
    cfg, schedule = model.cfg, model.cfg.schedule
    params, grads = flat.params, flat.grads
    x0, n_human, n = batch.targets, batch.n_human, len(batch)

    # The noise-mse seen through the clean-target head weighs clean-target
    # error by abar/(1-abar): ~1e4 near t=0, where x_t ~ x0 makes the job
    # trivial, vs ~0.6 at the noisiest steps that actually decide sample
    # quality.  Drawing t ~ (1-abar) flattens that to ~abar so the
    # conditional map gets gradient parity with the near-identity regime.
    t = schedule.timestep_cdf.searchsorted(rng.random(n), side="right")
    eps = rng.standard_normal(x0.shape)
    # forward process q(x_t | x0) = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps
    ab = schedule.alpha_bars[t][:, None]
    sqrt_ab, sqrt_1mab = np.sqrt(ab), np.sqrt(1.0 - ab)
    x_t = sqrt_ab * x0 + sqrt_1mab * eps

    # rows are human-first, so the alignment losses address each embodiment
    # as a row block of the one embedding batch
    emb, enc_cache = apply(model.encoder, params, batch.images)
    den_in = np.concatenate([x_t, emb, batch.keypoints.reshape(n, -1),
                             schedule.timestep_features[t]], axis=1)
    clean_hat, den_cache = apply(model.denoiser, params, den_in)
    eps_hat = (x_t - clean_hat * sqrt_ab) / sqrt_1mab
    mse, g_eps_hat = mse_loss(eps_hat, eps)
    g_den_in = T.backward(model.denoiser, params, den_cache,
                          -(g_eps_hat / sqrt_1mab) * sqrt_ab, grads, input_grad=True)
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
        g_disc_in = T.backward(model.discriminator, params, disc_cache,
                               cfg.lambda_da * g_logits, grads, input_grad=True)
        # gradient reversal: the discriminator descends the adversarial term
        # and the encoder ascends it
        g_emb = g_emb - g_disc_in
    if not np.isfinite(total):
        raise NonFiniteError(f"non-finite training loss {total}")

    T.backward(model.encoder, params, enc_cache, g_emb, grads)
    opt.step(flat.vector, flat.grad)
    return LossReport(mse, kl_value, da_value, accuracy, total)


def _mixed_batches(n_human: int, n_robot: int, batch_size: int, rng) -> list:
    """Shuffled index batches into a human-first pool of n_human + n_robot
    rows. With both embodiments present each batch is half/half, the
    smaller pool cycling; single-pool batches otherwise.

    Returns a list, not a generator: every permutation of an epoch is drawn
    before its first train_step draws from the same rng.
    """
    if n_human and n_robot:
        half = batch_size // 2
        # (rows, first index) of each pool; human is the bigger one on a tie
        (n_big, big0), (n_small, small0) = ((n_human, 0), (n_robot, n_human)) \
            if n_human >= n_robot else ((n_robot, n_human), (n_human, 0))
        big_idx = big0 + rng.permutation(n_big)
        # moment losses need >= 2 rows per side; drop a shorter tail
        chunks = [c for c in np.split(big_idx, range(half, n_big, half)) if len(c) >= 2]
        ends = np.cumsum([0] + [len(c) for c in chunks])
        # the smaller pool cycles through as many fresh permutations as the
        # kept chunks use up, the first drawn even when they use none
        small_idx = small0 + np.concatenate([rng.permutation(n_small)
                                             for _ in range(max(1, -(-ends[-1] // n_small)))])
        return [np.concatenate([small_idx[a:b], c]) for c, a, b in zip(chunks, ends, ends[1:])]
    idx = rng.permutation(n_human + n_robot)
    return [idx[s:s + batch_size] for s in range(0, len(idx), batch_size)]


def train_epochs(model: PolicyModel, rows: data.TrainingRows, log_fn=None) -> tuple:
    """The epoch loop. Returns (the model after the last epoch, per-epoch
    log); log_fn, if given, receives each log entry as its epoch ends.

    Runs model.cfg's epochs with one Adam for the whole run, its learning
    rate on a cosine decay to 5%; each batch gathers the rows that
    _mixed_batches picks from the human-first pool `rows`. An entry holds
    the epoch index and the mean of each LossReport field over the epoch's
    steps (None where every step skipped that term).

    Only the feature cells that some row of the pool lights are trained. A
    cell that is zero in every row adds nothing to the encoder's input layer
    and gets an exactly zero gradient, so its encoder/w0 row keeps its
    initial value whatever the loop does. The steps therefore step flat
    weights (`FlatParams`) holding the lit cells' rows of encoder/w0, fed
    the pool's lit image columns. The model returned, the one the loop
    builds, takes the stepped weights' views with the full encoder/w0
    rebuilt from the initial one, so it keeps its full input width and a
    cell no row lit still meets its initial weights. A pool that lights no
    cell raises EmptyDatasetError.

    The retargeter is frozen for the whole loop, so the pool's conditioning
    keypoints are retargeted once, by one `transform_batch` call on all its
    rows, rather than by every step on its batch: a row's retargeted
    keypoints do not depend on the rows retargeted beside it.
    """
    cfg = model.cfg
    lit = np.flatnonzero(rows.images.any(axis=0))
    if not len(lit):
        raise EmptyDatasetError("no training row lights any feature cell")
    w0 = model.params["encoder/w0"]
    # `apply` and `tensor.backward` read only a spec's layer names and
    # activations, so model.encoder runs these lit rows of w0 as it is
    flat = FlatParams({**model.params, "encoder/w0": w0[lit]})
    rows = replace(rows, images=rows.images[:, lit])
    if model.retargeter is not None:
        rows = replace(rows, keypoints=model.retargeter.transform_batch(rows.keypoints))
    rng = np.random.default_rng([cfg.seed, _TRAIN_STREAM])
    opt = Adam(cfg.learning_rate)
    n_robot = len(rows) - rows.n_human
    log = []
    for epoch in range(cfg.epochs):
        # cosine decay to 5%: late epochs at full lr kick the loss out of
        # the basin every few hundred steps
        frac = epoch / max(1, cfg.epochs - 1)
        opt.learning_rate = cfg.learning_rate * (
            0.05 + 0.95 * 0.5 * (1.0 + np.cos(np.pi * frac)))
        reports = [train_step(flat, rows.take(idx), rng, opt, model)
                   for idx in _mixed_batches(rows.n_human, n_robot, cfg.batch_size, rng)]
        entry = {"epoch": epoch}
        for key in ("mse", "kl", "da", "disc_accuracy", "total"):
            vals = [getattr(r, key) for r in reports if getattr(r, key) is not None]
            entry[key] = float(np.mean(vals)) if vals else None
        log.append(entry)
        if log_fn is not None:
            log_fn(entry)
    w0 = w0.copy()
    w0[lit] = flat.params["encoder/w0"]
    return replace(model, params={**flat.params, "encoder/w0": w0}), log


def train(dataset_human, dataset_robot, cfg: TrainConfig, log_fn=None):
    """Co-train on mixed demonstrations. Returns (model after the last epoch,
    per-epoch log).

    Every demo's rows are joined into one human-first pool (MixedShapesError
    if their raster sizes differ). The retargeter is fit on the pool's human
    keypoints; with no human data conditioning stays raw. Aux weights > 0
    require both datasets (EmptyDatasetError otherwise). log_fn, if given,
    receives each log entry as its epoch ends.
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

    rows = data.TrainingRows.join([data.chunk(d, cfg.horizon) for d in human + robot])
    retargeter = KeypointRetargeter.fit(rows.keypoints[:rows.n_human], cfg.seed) \
        if human else None
    model = build_model(cfg, rows.images.shape[1], retargeter=retargeter)
    return train_epochs(model, rows, log_fn)


@functools.lru_cache(maxsize=2)
def _seed_noise(schedule: DiffusionSchedule, dim: int, seed: int) -> tuple:
    """`draw_noise` for one row from seed's sampler stream, read-only and
    cached: both views of a replan draw with the same seed."""
    return draw_noise(schedule, 1, dim, np.random.default_rng([seed, _SAMPLE_STREAM]))


def sample_flat(model: PolicyModel, feature_image, keypoints,
                seed: int = 0) -> np.ndarray:
    """Raw conditional diffusion draw: the flat target vector, un-reshaped.

    keypoints: the observation's normalized (5, 2) keypoints. Runs
    model.cfg.schedule's steps; the draw is a function of seed alone. The
    track policy splits it into offsets and grasp logits (`sample`); the
    6DoF-delta baseline reads its action rows straight out of it.

    Validated on every draw: the seed (an integer >= 0, not a bool:
    ValueError) and the keypoints' shape before the encoder runs, then the
    finiteness of the fixed conditioning (embedding and retargeted
    keypoints); the model's shapes were checked when it was built. The input
    row is [x_t | conditioning | timestep features] and only x_t varies
    within a draw, so layer 0's other terms are summed into a (num_steps,
    hidden) table whose row t is step t's layer-0 bias: the model's cached
    timestep term plus this draw's conditioning term plus `denoiser/b0`, in
    float64.
    Each step runs the denoiser on x_t alone through `apply`, whose
    per-layer check catches a non-finite output (a NaN in any block of layer
    0's weights or in its bias reaches the first step's), hands the clean
    prediction to the sampler, and the sampler checks every x_t.

    The denoiser chain runs in float32. The float32 weights (layer 0's x_t
    block and every later layer) and the timestep term depend only on the
    weights, which a model never changes, so its first draw builds them
    (`PolicyModel._chain`). Per draw only the bias table is cast, and each
    step casts x_t on its way in; the sampler assigns the float32 clean
    prediction into its float64 scratch and scales it there, so the result
    is float64. A NaN or Inf weight stays non-finite in float32 and is
    caught. x_T and the step noise depend only on (schedule, target width,
    seed) and are drawn once for the last two such keys, so the second view
    of a replan reuses the first view's draw.
    """
    seed = check_int("seed", seed, 0)
    schedule = model.cfg.schedule
    kps = np.asarray(keypoints, dtype=np.float64)
    if kps.shape != (data.N_TRACK_KEYPOINTS, 2):
        raise ValueError(f"expected ({data.N_TRACK_KEYPOINTS}, 2) keypoints, got {kps.shape}")
    img = np.asarray(feature_image, dtype=np.float64).reshape(1, -1)
    d = model.target_dim
    kps = kps[None] if model.retargeter is None else model.retargeter.transform_batch(kps[None])
    cond = np.concatenate([forward(model.encoder, model.params, img), kps.reshape(1, -1)], axis=1)
    if has_nonfinite(cond):
        raise NonFiniteError("non-finite conditioning (embedding or keypoints)")
    weights, time_term = model._chain
    pre = time_term + cond @ model.params["denoiser/w0"][d:-TIME_EMBED_DIM]
    pre += model.params["denoiser/b0"]
    pre = pre.astype(np.float32)
    params = dict(weights)

    def clean_fn(x, t):
        params["denoiser/b0"] = pre[t]
        return apply(model.denoiser, params, x.astype(np.float32))[0]

    return ancestral_sample(clean_fn, schedule, *_seed_noise(schedule, d, seed))[0]


def sample(model: PolicyModel, feature_image, keypoints, seed: int = 0):
    """Draw one motion track conditioned on an observation.

    keypoints: the normalized (5, 2) keypoints. Returns (offsets (H, 5, 2),
    grasp logits (H,)): offsets[h] is the displacement from the current
    keypoints to the predicted keypoints at t+h+1 in normalized units (as in
    `data.chunk`'s targets), and step h grasps when its logit is > 0.
    Bit-identical for a given seed.
    """
    k = data.N_TRACK_KEYPOINTS
    per_step = sample_flat(model, feature_image, keypoints, seed).reshape(-1, 2 * k + 1)
    return per_step[:, :-1].reshape(-1, k, 2), per_step[:, -1]


# ---------------------------------------------------------------------------
# persistence

# a checkpoint's meta holds the config's settable fields, not its schedule
_CFG_KEYS = tuple(f.name for f in fields(TrainConfig) if f.init)


def save_policy(path, model: PolicyModel) -> None:
    meta = {name: getattr(model.cfg, name) for name in _CFG_KEYS}
    meta.update(image_dim=model.image_dim, target_dim=model.target_dim,
                has_retargeter=model.retargeter is not None)
    arrays = dict(model.params)
    if model.retargeter is not None:
        for name, arr in model.retargeter.to_arrays().items():
            arrays[f"retargeter:{name}"] = arr
    save_checkpoint(path, CHECKPOINT_KIND, meta, arrays)


def load_policy(path) -> PolicyModel:
    """Inverse of save_policy. The wrong kind, a missing or malformed meta
    value, a missing, unexpected or misshapen array or a corrupt container
    raise SchemaMismatchError."""
    kind, meta, arrays = load_checkpoint(path)
    if kind != CHECKPOINT_KIND:
        raise SchemaMismatchError(f"expected a {CHECKPOINT_KIND!r} checkpoint, got {kind!r}")
    check_keys(meta, [*_CFG_KEYS, "image_dim", "target_dim"], "policy checkpoint meta")
    try:
        cfg = TrainConfig(**{name: meta[name] for name in _CFG_KEYS})
        names = [name for spec in _specs(cfg, meta["image_dim"], meta["target_dim"])
                 for name in spec.param_shapes()]
    except (TypeError, ValueError) as err:
        raise SchemaMismatchError(f"{path}: policy checkpoint meta: {err}") from err
    retarget = {f"retargeter:{name}": name for name in RETARGET_SPEC.param_shapes()} \
        if meta.get("has_retargeter") else {}
    # every missing or unexpected array is named in one error before any is used
    check_array_names(arrays, [*names, *retarget], f"{path}: policy checkpoint")
    try:
        retargeter = KeypointRetargeter({name: arrays[key] for key, name in retarget.items()}) \
            if retarget else None
        return PolicyModel(cfg, meta["image_dim"], meta["target_dim"],
                           {name: arrays[name] for name in names}, retargeter)
    except ShapeMismatchError as err:
        raise SchemaMismatchError(f"{path}: policy checkpoint: {err}") from err
