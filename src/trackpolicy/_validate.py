"""Small input-validation helpers shared by the estimators and IO layers."""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError


def as_float_array(x, name: str, shape=None, ndim=None) -> np.ndarray:
    """Coerce to float64 ndarray, checking shape/ndim and finiteness."""
    a = np.asarray(x, dtype=np.float64)
    if shape is not None and a.shape != tuple(shape):
        raise ShapeMismatchError(f"{name}: expected shape {tuple(shape)}, got {a.shape}")
    if ndim is not None and a.ndim != ndim:
        raise ShapeMismatchError(f"{name}: expected {ndim} dims, got {a.ndim} (shape {a.shape})")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{name} contains NaN or Inf")
    return a
