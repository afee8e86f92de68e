"""Tests for the analysis utilities (stats, tables)."""

import numpy as np
import pytest

from repro.analysis.stats import (
    bootstrap_confidence_interval,
    chi_square_goodness_of_fit,
    fit_power_law,
    mean_confidence_interval,
)
from repro.analysis.tables import format_records, format_table, sparkline
from repro.utils import InvalidParameterError


class TestMeanConfidenceInterval:
    def test_contains_mean(self, rng):
        samples = rng.normal(5.0, 1.0, size=200)
        mean, low, high = mean_confidence_interval(samples)
        assert low < mean < high
        assert mean == pytest.approx(samples.mean())

    def test_single_sample_degenerate(self):
        mean, low, high = mean_confidence_interval([3.0])
        assert mean == low == high == 3.0

    def test_constant_samples_degenerate(self):
        mean, low, high = mean_confidence_interval([2.0, 2.0, 2.0])
        assert mean == low == high == 2.0

    def test_coverage(self, rng):
        """~95% of intervals cover the true mean."""
        covered = 0
        for _ in range(200):
            samples = rng.normal(0.0, 1.0, size=30)
            _, low, high = mean_confidence_interval(samples)
            covered += low <= 0.0 <= high
        assert covered >= 170

    def test_empty_raises(self):
        with pytest.raises(InvalidParameterError):
            mean_confidence_interval([])


class TestBootstrap:
    def test_contains_point(self, rng):
        samples = rng.exponential(2.0, size=100)
        point, low, high = bootstrap_confidence_interval(
            samples, statistic=np.median, seed=rng, n_resamples=500)
        assert low <= point <= high

    def test_reproducible(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        a = bootstrap_confidence_interval(samples, seed=7, n_resamples=200)
        b = bootstrap_confidence_interval(samples, seed=7, n_resamples=200)
        assert a == b


class TestChiSquare:
    def test_good_fit_high_p(self, rng):
        probs = np.array([0.25, 0.25, 0.5])
        counts = rng.multinomial(2000, probs)
        _, p = chi_square_goodness_of_fit(counts, probs)
        assert p > 0.001

    def test_bad_fit_low_p(self):
        probs = np.array([0.5, 0.5])
        counts = np.array([900, 100])
        _, p = chi_square_goodness_of_fit(counts, probs)
        assert p < 1e-6

    def test_small_bins_pooled(self):
        probs = np.array([0.98, 0.01, 0.01])
        counts = np.array([98, 1, 1])
        statistic, p = chi_square_goodness_of_fit(counts, probs)
        assert p >= 0.0  # pooling keeps the test valid

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            chi_square_goodness_of_fit([1, 2], [0.5, 0.25, 0.25])

    def test_zero_counts_raise(self):
        with pytest.raises(InvalidParameterError):
            chi_square_goodness_of_fit([0, 0], [0.5, 0.5])


class TestPowerLawFit:
    def test_exact_power_law(self):
        x = np.array([1, 2, 4, 8, 16])
        y = 3.0 * x**1.5
        alpha, constant = fit_power_law(x, y)
        assert alpha == pytest.approx(1.5)
        assert constant == pytest.approx(3.0)

    def test_inverse_law(self):
        x = np.array([2, 4, 8, 16])
        alpha, _ = fit_power_law(x, 5.0 / x)
        assert alpha == pytest.approx(-1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            fit_power_law([1, 2], [0.0, 1.0])

    def test_rejects_single_point(self):
        with pytest.raises(InvalidParameterError):
            fit_power_law([1], [1])


class TestTables:
    def test_format_table_basic(self):
        text = format_table(["x", "y"], [[1, 2.5], [10, 0.001]])
        lines = text.splitlines()
        assert "x" in lines[0] and "y" in lines[0]
        assert len(lines) == 4

    def test_title(self):
        text = format_table(["a"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_row_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            format_table(["a", "b"], [[1]])

    def test_cell_formats(self):
        text = format_table(["v"], [[True], [None], [1e-9], [float("nan")]])
        assert "yes" in text
        assert "-" in text
        assert "e-09" in text
        assert "nan" in text

    def test_format_records(self):
        records = [{"a": 1, "b": 2}, {"a": 3}]
        text = format_records(records, ["a", "b"])
        assert "3" in text

    def test_sparkline_range(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_constant(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_sparkline_empty(self):
        assert sparkline([]) == ""
