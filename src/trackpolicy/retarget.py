"""Denoising keypoint retargeter.

A small MLP trained to reconstruct clean hand keypoint layouts from copies
corrupted with uniform noise on every point except a fixed anchor (the
wrist).  Because training only ever shows hand layouts, the map's attractor
set is hand-shaped: feeding it a gripper layout pulls the points toward
hand-like spacing, while hand layouts pass through nearly unchanged.  The
net operates on anchor-relative coordinates in normalized image units and
the anchor is copied, not predicted, so anchor preservation and translation
equivariance hold by construction rather than by training.

fit() takes an (n, 5, 2) array of hand layouts (normalized image units,
the 5-point subset); transform_batch() takes any (n, 5, 2) stack. Frozen
after fit: parameter arrays are made read-only and transform_batch
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
NOISE_BOUND = 0.15   # uniform corruption per coordinate, normalized units
ANCHOR_INDEX = 0     # the wrist / gripper center, never corrupted
EPOCHS = 400
LEARNING_RATE = 1e-3

# anchor-relative 2k inputs -> 2k outputs through two relu hidden layers
NET_SPEC = MlpSpec((2 * data.N_TRACK_KEYPOINTS, 64, 64, 2 * data.N_TRACK_KEYPOINTS),
                   ("relu", "relu", "identity"), name="retargeter")

# Noise stream is decoupled from the init stream so changing one cannot
# silently reseed the other.
_NOISE_STREAM = 4021


def _check_points(pts: np.ndarray) -> None:
    if pts.ndim != 3:
        raise ShapeMismatchError(
            f"points: expected 3 dims, got {pts.ndim} (shape {pts.shape})")
    if not np.isfinite(pts).all():
        raise NonFiniteError("points contains NaN or Inf")
    if pts.shape[1:] != (data.N_TRACK_KEYPOINTS, 2):
        raise ShapeMismatchError(
            f"expected (n, {data.N_TRACK_KEYPOINTS}, 2), got {pts.shape}")


def _denoising_loss(params: dict, rel_in: np.ndarray, target: np.ndarray,
                    mask: np.ndarray):
    """fit's training loss and its gradient: (mse, grads by parameter name).

    rel_in holds the noisy anchor-relative (n, 2k) inputs, target the clean
    ones with the anchor dims zeroed; mask zeroes the anchor's output dims
    too, because transform_batch discards them.
    """
    out, cache = apply(NET_SPEC, params, rel_in)
    loss, g = mse_loss(out * mask, target)
    grads, _ = T.backward(NET_SPEC, params, cache, g * mask)
    return loss, grads


def _frozen(arrays: dict) -> dict:
    check_params(NET_SPEC, arrays)
    for arr in arrays.values():
        arr.flags.writeable = False
    return arrays


class KeypointRetargeter:
    """Estimator mapping k=5 keypoint layouts toward hand-like spacing.

    fit() consumes an (n, 5, 2) array of hand layouts; transform_batch()
    then applies the frozen denoiser to any 5-point layout regardless of
    embodiment. The seed fixes the net's initialization and the training
    noise.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    @property
    def fitted(self) -> bool:
        return getattr(self, "_params", None) is not None

    # -- training ----------------------------------------------------------

    def fit(self, points) -> "KeypointRetargeter":
        """Train on hand keypoint frames; freezes the result.

        points: an (n, 5, 2) array of hand layouts in normalized units, the
        5-point subset, as `data.chunk` stacks them into `keypoints`.
        """
        pts = np.asarray(points, dtype=np.float64)
        _check_points(pts)
        n = pts.shape[0]
        if n < MIN_TRAIN_FRAMES:
            raise InsufficientDataError(f"need at least {MIN_TRAIN_FRAMES} frames, got {n}")
        k = data.N_TRACK_KEYPOINTS

        params = init_params(NET_SPEC, self.seed)
        rng = np.random.default_rng([self.seed, _NOISE_STREAM])

        a = ANCHOR_INDEX
        # anchor-relative targets, anchor dims masked (see _denoising_loss)
        rel_clean = (pts - pts[:, a:a + 1]).reshape(n, 2 * k)
        mask = np.ones(2 * k)
        mask[2 * a:2 * a + 2] = 0.0
        target = rel_clean * mask

        opt = Adam(LEARNING_RATE)
        for _ in range(EPOCHS):
            noise = rng.uniform(-NOISE_BOUND, NOISE_BOUND, size=pts.shape)
            noise[:, a] = 0.0
            noisy = pts + noise
            rel_in = (noisy - noisy[:, a:a + 1]).reshape(n, 2 * k)
            _, grads = _denoising_loss(params, rel_in, target, mask)
            params = opt.step(params, grads)

        self._params = _frozen(params)
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
        _check_points(pts)
        a = ANCHOR_INDEX
        anchors = pts[:, a:a + 1]
        rel = (pts - anchors).reshape(pts.shape[0], -1)
        out = forward(NET_SPEC, self._params, rel)
        result = out.reshape(pts.shape) + anchors
        result[:, a] = pts[:, a]
        return result

    # -- persistence -------------------------------------------------------

    @classmethod
    def from_arrays(cls, arrays: dict) -> "KeypointRetargeter":
        """A fitted retargeter from NET_SPEC weight arrays; the inverse of
        to_arrays. The arrays are frozen in place (made read-only), not
        copied."""
        est = cls()
        est._params = _frozen(arrays)
        return est

    def to_arrays(self) -> dict:
        """The frozen weights, by NET_SPEC parameter name."""
        if not self.fitted:
            raise NotFittedError("nothing to save before fit()")
        return self._params
