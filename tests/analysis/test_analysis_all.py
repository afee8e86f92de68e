"""Tests for the analysis utilities (stats, tables)."""

import numpy as np
import pytest

from repro.analysis.stats import fit_power_law
from repro.analysis.tables import format_table, sparkline
from repro.utils import InvalidParameterError


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

    def test_sparkline_range(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_constant(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_sparkline_empty(self):
        assert sparkline([]) == ""
