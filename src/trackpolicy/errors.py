"""Exception classes shared across the package, and the finiteness test
that guards most NonFiniteError and ValueError raises."""

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
