"""Denoising keypoint retargeter.

A small MLP trained to reconstruct clean hand keypoint layouts from copies
corrupted with uniform noise on every point except a fixed anchor (the
wrist).  Because training only ever shows hand layouts, the map's attractor
set is hand-shaped: feeding it a gripper layout pulls the points toward
hand-like spacing, while hand layouts pass through nearly unchanged.  The
net operates on anchor-relative coordinates in normalized image units and
the anchor is copied, not predicted, so anchor preservation and translation
equivariance hold by construction rather than by training.

A retargeter is its frozen NET_SPEC weights and nothing else. There are two
ways to get one: KeypointRetargeter(params) wraps given weights (a policy
checkpoint's, through to_arrays and back), and KeypointRetargeter.fit(points,
seed) trains weights on an (n, 5, 2) array of hand layouts (normalized image
units, the 5-point subset) and returns the retargeter built from them.
Either way the arrays are made read-only, so transform_batch, which takes
any (n, 5, 2) stack, is a pure function of them.

fit() takes STEPS Adam steps, each on BATCH_ROWS rows drawn with
replacement from the corpus, so a fit costs the same at any corpus size. A
denoiser over a 10-dim layout can afford that: its targets are a few hand
shapes seen at many poses, not a set to memorize. The weights live in one
flat vector for the whole fit (`FlatParams`): each step's backward pass
writes its gradients into views of one flat gradient vector, Adam steps the
weight vector in place, and the retargeter is built from the final views.
"""

from __future__ import annotations

import numpy as np

from . import data
from .errors import (
    InsufficientDataError,
    NonFiniteError,
    ShapeMismatchError,
    has_nonfinite,
)
from .nn import (
    Adam,
    FlatParams,
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
STEPS = 400
BATCH_ROWS = 128     # rows per step
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
    if has_nonfinite(pts):
        raise NonFiniteError("points contains NaN or Inf")
    if pts.shape[1:] != (data.N_TRACK_KEYPOINTS, 2):
        raise ShapeMismatchError(
            f"expected (n, {data.N_TRACK_KEYPOINTS}, 2), got {pts.shape}")


def _denoising_loss(params: dict, grads: dict, rel_in: np.ndarray, target: np.ndarray,
                    mask: np.ndarray) -> float:
    """fit's training loss (the mse), its gradient written into grads, an
    array by parameter name.

    rel_in holds the noisy anchor-relative (n, 2k) inputs, target the clean
    ones with the anchor dims zeroed; mask zeroes the anchor's output dims
    too, because transform_batch discards them.
    """
    out, cache = apply(NET_SPEC, params, rel_in)
    loss, g = mse_loss(out * mask, target)
    T.backward(NET_SPEC, params, cache, g * mask, grads)
    return loss


class KeypointRetargeter:
    """Frozen denoiser mapping k=5 keypoint layouts toward hand-like spacing.

    Built from NET_SPEC weight arrays, or returned by fit() trained on hand
    layouts; transform_batch() applies it to any 5-point layout regardless
    of embodiment.
    """

    def __init__(self, params: dict):
        """Wrap NET_SPEC weight arrays (ShapeMismatchError if one is missing
        or misshapen). The arrays are frozen in place (made read-only), not
        copied; the dict is copied, so later changes to it do not reach the
        retargeter."""
        params = dict(params)
        check_params(NET_SPEC, params)
        for arr in params.values():
            arr.flags.writeable = False
        self._params = params

    # -- training ----------------------------------------------------------

    @staticmethod
    def fit(points, seed: int = 0) -> "KeypointRetargeter":
        """A retargeter trained on hand keypoint frames.

        points: an (n, 5, 2) array of hand layouts in normalized units, the
        5-point subset, as `data.chunk` stacks them into `keypoints`. The
        seed fixes the init and, through the noise stream, each step's rows
        and noise (see the module docstring).
        """
        pts = np.asarray(points, dtype=np.float64)
        _check_points(pts)
        n = pts.shape[0]
        if n < MIN_TRAIN_FRAMES:
            raise InsufficientDataError(f"need at least {MIN_TRAIN_FRAMES} frames, got {n}")
        k = data.N_TRACK_KEYPOINTS

        flat = FlatParams(init_params(NET_SPEC, seed))
        rng = np.random.default_rng([seed, _NOISE_STREAM])

        a = ANCHOR_INDEX
        # anchor-relative targets, anchor dims masked (see _denoising_loss)
        rel_clean = (pts - pts[:, a:a + 1]).reshape(n, 2 * k)
        mask = np.ones(2 * k)
        mask[2 * a:2 * a + 2] = 0.0
        target = rel_clean * mask

        opt = Adam(LEARNING_RATE)
        for _ in range(STEPS):
            idx = rng.integers(n, size=BATCH_ROWS)
            noise = rng.uniform(-NOISE_BOUND, NOISE_BOUND, size=(BATCH_ROWS, k, 2))
            noise[:, a] = 0.0
            noisy = pts[idx] + noise
            rel_in = (noisy - noisy[:, a:a + 1]).reshape(BATCH_ROWS, 2 * k)
            _denoising_loss(flat.params, flat.grads, rel_in, target[idx], mask)
            opt.step(flat.vector, flat.grad)

        return KeypointRetargeter(flat.params)

    # -- inference ---------------------------------------------------------

    def transform_batch(self, points) -> np.ndarray:
        """Retarget a stack of keypoint frames, (n, k, 2) -> (n, k, 2); the
        anchor point of each frame is copied verbatim.

        Takes raw arrays, as they arrive on the policy hot path.
        """
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

    def to_arrays(self) -> dict:
        """The frozen weights, by NET_SPEC parameter name: a new dict of the
        retargeter's read-only arrays; KeypointRetargeter(arrays) is its
        inverse."""
        return dict(self._params)
