"""Lightweight argument validation helpers used across the library."""

from __future__ import annotations

import numpy as np


def check_array_2d(
    x, name: str, dtype=np.float64, *, allow_empty: bool = False
) -> np.ndarray:
    """Coerce ``x`` to a 2-D float array, raising a clear error otherwise.

    Zero-size arrays are rejected unless ``allow_empty`` (scoring paths,
    where a zero-document request is legal).
    """
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size == 0 and not allow_empty:
        raise ValueError(f"{name} must be non-empty")
    return arr


def check_array_1d(x, name: str, dtype=np.float64) -> np.ndarray:
    """Coerce ``x`` to a 1-D array, raising a clear error otherwise."""
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    return arr


def check_positive(value, name: str, *, strict: bool = True) -> float:
    """Validate that a scalar is positive (or non-negative if not strict)."""
    v = float(value)
    if strict and v <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and v < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return v


def check_fraction(value, name: str, *, inclusive: bool = True) -> float:
    """Validate that a scalar lies in [0, 1] (or (0, 1) when not inclusive)."""
    v = float(value)
    if inclusive:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    else:
        if not 0.0 < v < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value}")
    return v


def check_same_length(a, b, name_a: str, name_b: str) -> None:
    """Validate that two sequences have matching leading dimension."""
    if len(a) != len(b):
        raise ValueError(
            f"{name_a} and {name_b} must have the same length, got {len(a)} != {len(b)}"
        )
