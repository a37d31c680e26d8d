"""Denoising keypoint retargeter.

A small MLP trained to reconstruct clean hand keypoint layouts from copies
corrupted with uniform noise on every point except a fixed anchor (the
wrist).  Because training only ever shows hand layouts, the map's attractor
set is hand-shaped: feeding it a gripper layout pulls the points toward
hand-like spacing, while hand layouts pass through nearly unchanged.  The
net operates on anchor-relative coordinates in normalized image units and
the anchor is copied, not predicted, so anchor preservation and translation
equivariance hold by construction rather than by training.

Frozen after fit: parameter arrays are made read-only and transform_batch
is a pure function of them. A fitted retargeter is persisted inside the
policy checkpoint through to_arrays/from_arrays.
"""

from __future__ import annotations

import numpy as np

from . import data
from .errors import (
    InsufficientDataError,
    NonFiniteError,
    NotFittedError,
    ShapeMismatchError,
    WrongDimensionError,
    WrongEmbodimentError,
)
from .nn import (
    Adam,
    MlpSpec,
    apply,
    check_params,
    forward,
    init_params,
    mse_loss,
)
from .nn import tensor as T

MIN_TRAIN_FRAMES = 100

# Noise stream is decoupled from the init stream so changing one cannot
# silently reseed the other.
_NOISE_STREAM = 4021


class KeypointRetargeter:
    """Estimator mapping k=5 keypoint layouts toward hand-like spacing.

    fit() consumes hand keypoint frames (normalized image coordinates, the
    5-point subset); transform_batch() then applies the frozen denoiser to any
    5-point layout regardless of embodiment tag.
    """

    def __init__(self, noise_bound: float = 0.15, anchor_index: int = 0,
                 hidden=(64, 64), epochs: int = 400,
                 learning_rate: float = 1e-3, seed: int = 0):
        self.noise_bound = noise_bound
        self.anchor_index = anchor_index
        self.hidden = tuple(hidden)
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.seed = seed

    def get_params(self) -> dict:
        return {"noise_bound": self.noise_bound,
                "anchor_index": self.anchor_index,
                "hidden": self.hidden,
                "epochs": self.epochs,
                "learning_rate": self.learning_rate,
                "seed": self.seed}

    @property
    def fitted(self) -> bool:
        return getattr(self, "_params", None) is not None

    # -- training ----------------------------------------------------------

    def fit(self, frames) -> "KeypointRetargeter":
        """Train on hand keypoint frames; freezes the result.

        frames: sequence of KeypointSet2D, hand embodiment, k=5, points in
        normalized units, as data.normalize_keypoints returns them.
        """
        if not (self.noise_bound > 0):
            raise ValueError("noise_bound must be positive")
        k = data.N_TRACK_KEYPOINTS
        if not 0 <= self.anchor_index < k:
            raise ValueError(f"anchor_index must be in [0, {k})")
        frames = list(frames)
        if len(frames) < MIN_TRAIN_FRAMES:
            raise InsufficientDataError(
                f"need at least {MIN_TRAIN_FRAMES} frames, got {len(frames)}")
        for f in frames:
            if f.embodiment != data.HUMAN:
                raise WrongEmbodimentError(
                    f"retargeter trains on hand keypoints, got {f.embodiment!r}")
            if f.k != k:
                raise WrongDimensionError(
                    f"expected {k}-point frames (apply select_hand_subset), got k={f.k}")
        pts = np.stack([f.points for f in frames])  # (n, k, 2)
        n = pts.shape[0]

        spec = _net_spec(self.hidden)
        params = init_params(spec, self.seed)
        rng = np.random.default_rng([self.seed, _NOISE_STREAM])

        a = self.anchor_index
        # anchor-relative targets; anchor output dims are masked out of the
        # loss because transform_batch() discards them
        rel_clean = (pts - pts[:, a:a + 1]).reshape(n, 2 * k)
        mask = np.ones(2 * k)
        mask[2 * a:2 * a + 2] = 0.0
        target = rel_clean * mask

        opt = Adam(self.learning_rate)
        loss_value = float("nan")
        for _ in range(self.epochs):
            noise = rng.uniform(-self.noise_bound, self.noise_bound, size=pts.shape)
            noise[:, a] = 0.0
            noisy = pts + noise
            rel_in = (noisy - noisy[:, a:a + 1]).reshape(n, 2 * k)
            out, cache = apply(spec, params, rel_in)
            loss_value, g = mse_loss(out * mask, target)
            grads, _ = T.backward(spec, params, cache, g * mask)
            params = opt.step(params, grads)

        fitted = self.from_arrays(self.get_params(), params)
        self._spec, self._params = fitted._spec, fitted._params
        self.train_loss_ = loss_value
        return self

    # -- inference ---------------------------------------------------------

    def transform_batch(self, points) -> np.ndarray:
        """Retarget a stack of keypoint frames, (n, k, 2) -> (n, k, 2); the
        anchor point of each frame is copied verbatim.

        Takes raw arrays, as they arrive on the policy hot path.
        """
        if not self.fitted:
            raise NotFittedError("call fit() or from_arrays() before transform_batch()")
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 3:
            raise ShapeMismatchError(
                f"points: expected 3 dims, got {pts.ndim} (shape {pts.shape})")
        if not np.isfinite(pts).all():
            raise NonFiniteError("points contains NaN or Inf")
        if pts.shape[1:] != (data.N_TRACK_KEYPOINTS, 2):
            raise WrongDimensionError(
                f"expected (n, {data.N_TRACK_KEYPOINTS}, 2), got {pts.shape}")
        a = self.anchor_index
        anchors = pts[:, a:a + 1]
        rel = (pts - anchors).reshape(pts.shape[0], -1)
        out = forward(self._spec, self._params, rel)
        result = out.reshape(pts.shape) + anchors
        result[:, a] = pts[:, a]
        return result

    # -- persistence -------------------------------------------------------

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict) -> "KeypointRetargeter":
        """A fitted retargeter from constructor params and weight arrays.

        The inverse of to_arrays. The net's spec follows meta["hidden"]; the
        arrays are frozen in place (made read-only), not copied.
        """
        est = cls(**{**meta, "hidden": tuple(meta["hidden"])})
        spec = _net_spec(est.hidden)
        check_params(spec, arrays)
        for arr in arrays.values():
            arr.flags.writeable = False
        est._spec = spec
        est._params = arrays
        est.train_loss_ = float("nan")
        return est

    def to_arrays(self) -> tuple:
        """(meta, arrays): JSON-ready constructor params and the frozen weights."""
        if not self.fitted:
            raise NotFittedError("nothing to save before fit()")
        meta = dict(self.get_params())
        meta["hidden"] = list(meta["hidden"])
        return meta, self._params


def _net_spec(hidden) -> MlpSpec:
    """Anchor-relative 2k inputs -> 2k outputs through relu hidden layers."""
    k = data.N_TRACK_KEYPOINTS
    return MlpSpec((2 * k, *hidden, 2 * k),
                   ("relu",) * len(hidden) + ("identity",), name="retargeter")
