"""Exception classes shared across the package, and its three value rules,
each the package's one check of its kind: finite, integer and number."""

import numpy as np


class TrackPolicyError(Exception):
    """Base class for all package-specific errors."""


class BehindCameraError(TrackPolicyError):
    """Point does not lie in front of the camera (camera-frame z <= 1e-6 m)."""


class DegenerateRaysError(TrackPolicyError):
    """Triangulation rays are parallel or the cameras are coincident."""


class EmptyDemoError(TrackPolicyError):
    """Demonstration has no frames."""


class EmptyDatasetError(TrackPolicyError):
    """Dataset required for this training mode is empty."""


class SchemaMismatchError(TrackPolicyError):
    """Serialized artifact is corrupt or disagrees with its expected layout."""


class ShapeMismatchError(TrackPolicyError):
    """Array shape disagrees with the declared specification."""


class NonFiniteError(TrackPolicyError):
    """A NaN or Inf appeared in a numeric computation."""


class BatchTooSmallError(TrackPolicyError):
    """Batch statistics need at least two rows per side."""


class InsufficientDataError(TrackPolicyError):
    """Not enough training frames to fit the model."""


class MixedShapesError(TrackPolicyError):
    """Training batch mixes incompatible array shapes."""


class ScriptFailureError(TrackPolicyError):
    """Scripted demonstrator did not reach task success within the step budget."""


class MissingArtifactError(TrackPolicyError):
    """Referenced checkpoint does not exist."""

    def __init__(self, message, artifact=None):
        super().__init__(message)
        self.artifact = artifact


class ResidualTooHighError(TrackPolicyError):
    """Cross-view track predictions disagree beyond a gate.

    Nothing in the package raises it any more; the benchmark's episode loop
    still names it among the errors it records.
    """


def has_nonfinite(a: np.ndarray) -> bool:
    """True iff the array (or numpy scalar) holds a NaN, +inf or -inf.

    The package's one finiteness check. It tests the same values as
    `not np.isfinite(a).all()` but counts the finite entries instead of
    reducing them with `ndarray.all`, whose wrapper is most of the cost on
    the one-row arrays each denoising step checks. An empty array is finite.
    """
    return np.count_nonzero(np.isfinite(a)) != a.size


def check_int(name: str, value, low: int, high: int | None = None) -> int:
    """value as a plain int if it is a Python or numpy integer, not a bool,
    in [low, high] (no upper bound when high is None); ValueError naming it
    otherwise. A float, even 2.0, is rejected rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def check_real(name: str, value) -> float:
    """value as a plain float if it is a Python or numpy int or float, not a
    bool; ValueError naming it otherwise. NaN and the infinities pass: each
    caller tests its own range, written so that NaN fails it."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)
