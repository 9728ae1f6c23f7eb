"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_array_1d,
    check_array_2d,
    check_fraction,
    check_positive,
    check_same_length,
)


class TestCheckArray2d:
    def test_accepts_lists(self):
        out = check_array_2d([[1, 2], [3, 4]], "x")
        assert out.shape == (2, 2)
        assert out.dtype == np.float64

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            check_array_2d([1, 2, 3], "x")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            check_array_2d(np.empty((0, 3)), "x")

    def test_allow_empty(self):
        assert check_array_2d(np.empty((0, 3)), "x", allow_empty=True).shape == (0, 3)
        with pytest.raises(ValueError, match="2-dimensional"):
            check_array_2d(np.empty(0), "x", allow_empty=True)

    def test_custom_dtype(self):
        out = check_array_2d([[1, 2]], "x", dtype=np.int64)
        assert out.dtype == np.int64


class TestCheckArray1d:
    def test_accepts_list(self):
        out = check_array_1d([1.0, 2.0], "y")
        assert out.shape == (2,)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            check_array_1d([[1.0]], "y")


class TestCheckPositive:
    def test_positive_ok(self):
        assert check_positive(3, "v") == 3.0

    def test_zero_rejected_strict(self):
        with pytest.raises(ValueError):
            check_positive(0, "v")

    def test_zero_ok_nonstrict(self):
        assert check_positive(0, "v", strict=False) == 0.0

    def test_negative_rejected_nonstrict(self):
        with pytest.raises(ValueError):
            check_positive(-1, "v", strict=False)


class TestCheckFraction:
    def test_bounds_inclusive(self):
        assert check_fraction(0.0, "f") == 0.0
        assert check_fraction(1.0, "f") == 1.0

    def test_bounds_exclusive(self):
        with pytest.raises(ValueError):
            check_fraction(0.0, "f", inclusive=False)
        with pytest.raises(ValueError):
            check_fraction(1.0, "f", inclusive=False)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_fraction(1.5, "f")


class TestCheckSameLength:
    def test_equal_ok(self):
        check_same_length([1, 2], [3, 4], "a", "b")

    def test_unequal_raises(self):
        with pytest.raises(ValueError, match="same length"):
            check_same_length([1], [1, 2], "a", "b")
