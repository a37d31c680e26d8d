"""Exception classes shared across the package."""


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
    """Serialized artifact disagrees with the expected schema version or shape."""


class DatasetCorruptError(TrackPolicyError):
    """Dataset file is truncated or contains an unparseable record."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


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


class NotFittedError(TrackPolicyError):
    """Estimator used before fit()."""
