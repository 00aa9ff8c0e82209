"""Tests for argument-validation helpers."""

import pytest

from repro.util.validation import (
    check_in_range,
    check_non_empty,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 0.5) == 0.5

    @pytest.mark.parametrize("value", [0, -1, -0.001])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", value)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_positive("x", float("nan"))


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -1e-9)


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range("x", 1.0, 1.0, 2.0) == 1.0
        assert check_in_range("x", 2.0, 1.0, 2.0) == 2.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError):
            check_in_range("x", 1.0, 1.0, 2.0, inclusive=False)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[1.*2.*\]"):
            check_in_range("x", 3.0, 1.0, 2.0)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_rejects(self, value):
        with pytest.raises(ValueError):
            check_probability("p", value)


class TestCheckNonEmpty:
    def test_accepts_non_empty(self):
        assert check_non_empty("xs", [1]) == [1]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="xs"):
            check_non_empty("xs", [])

    def test_rejects_unsized(self):
        with pytest.raises(TypeError):
            check_non_empty("xs", iter([1]))
