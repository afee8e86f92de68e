"""Tests for repro.utils.validation and the error hierarchy."""

import numpy as np
import pytest

from repro.utils import (
    InvalidDistributionError,
    InvalidParameterError,
    ReproError,
    check_fraction,
    check_in_range,
    check_int_array,
    check_positive,
    check_positive_int,
    check_probability,
    check_probability_vector,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 2.5) == 2.5

    def test_rejects_zero(self):
        with pytest.raises(InvalidParameterError, match="x"):
            check_positive("x", 0.0)

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            check_positive("x", -1.0)


class TestCheckPositiveInt:
    def test_accepts_int(self):
        assert check_positive_int("n", 3) == 3

    def test_accepts_numpy_integer(self):
        assert check_positive_int("n", np.int64(7)) == 7

    def test_returns_builtin_int(self):
        assert type(check_positive_int("n", np.int64(7))) is int

    def test_rejects_bool(self):
        with pytest.raises(InvalidParameterError):
            check_positive_int("n", True)

    def test_rejects_float(self):
        with pytest.raises(InvalidParameterError):
            check_positive_int("n", 3.0)

    def test_respects_minimum(self):
        with pytest.raises(InvalidParameterError, match=">= 2"):
            check_positive_int("n", 1, minimum=2)

    def test_minimum_zero_allows_zero(self):
        assert check_positive_int("n", 0, minimum=0) == 0


class TestCheckIntArray:
    def test_int64_passes_without_copy(self):
        values = np.arange(4)
        assert check_int_array("x", values) is values

    def test_integral_floats_and_narrow_ints_convert(self):
        for values in ([0.0, 3.0], np.array([0, 3], dtype=np.uint8)):
            out = check_int_array("x", values)
            assert out.dtype == np.int64 and list(out) == [0, 3]

    @pytest.mark.parametrize("values, match", [
        ([1.0, 2.5], "x must hold integers, got 2.5"),
        ([1.0, np.inf], "x must hold integers, got inf"),
        ([True, False], "dtype bool"),
        (["1"], "dtype <U1"),
        (np.zeros((2, 2), dtype=np.int64), "1-D array, got shape"),
        (3, "1-D array, got shape"),
    ])
    def test_refuses(self, values, match):
        with pytest.raises(InvalidParameterError, match=match):
            check_int_array("x", values)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan")])
    def test_rejects_outside(self, value):
        with pytest.raises(InvalidParameterError):
            check_probability("p", value)

    def test_rejects_non_numeric(self):
        with pytest.raises(InvalidParameterError):
            check_probability("p", "half")

    def test_fraction_alias(self):
        assert check_fraction("f", 0.25) == 0.25


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range("x", 1.0, 1.0, 2.0) == 1.0
        assert check_in_range("x", 2.0, 1.0, 2.0) == 2.0

    def test_exclusive_bounds(self):
        with pytest.raises(InvalidParameterError):
            check_in_range("x", 1.0, 1.0, 2.0, inclusive=False)

    def test_rejects_nan(self):
        with pytest.raises(InvalidParameterError):
            check_in_range("x", float("nan"), 0.0, 1.0)


class TestCheckProbabilityVector:
    def test_accepts_distribution(self):
        out = check_probability_vector("mu", [0.25, 0.75])
        assert out.sum() == pytest.approx(1.0)

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidDistributionError):
            check_probability_vector("mu", [-0.1, 1.1])

    def test_rejects_wrong_sum(self):
        with pytest.raises(InvalidDistributionError, match="sum"):
            check_probability_vector("mu", [0.3, 0.3])

    def test_rejects_empty(self):
        with pytest.raises(InvalidDistributionError):
            check_probability_vector("mu", [])

    def test_rejects_matrix(self):
        with pytest.raises(InvalidDistributionError):
            check_probability_vector("mu", [[0.5, 0.5]])

    def test_clips_tiny_negatives(self):
        out = check_probability_vector("mu", [1.0 + 1e-13, -1e-13])
        assert (out >= 0).all()


class TestErrorHierarchy:
    def test_parameter_error_is_repro_and_value_error(self):
        assert issubclass(InvalidParameterError, ReproError)
        assert issubclass(InvalidParameterError, ValueError)

    def test_distribution_error_is_repro_error(self):
        assert issubclass(InvalidDistributionError, ReproError)

    def test_library_errors_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            check_positive("x", -1)
