"""Small input-checking helpers used by the model modules."""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DimensionMismatch


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array of finite values."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array of finite values."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def positive_number(value) -> bool:
    """True for a finite real number above zero; a bool or a string is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 < value < np.inf
