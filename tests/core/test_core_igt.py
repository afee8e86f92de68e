"""Tests for the generosity grid and the k-IGT update rule."""

import numpy as np
import pytest

from repro.core.igt import AgentType, GenerosityGrid
from repro.engine import igt_model, igt_update
from repro.experiments import run_experiment
from repro.utils import InvalidParameterError


class TestGenerosityGrid:
    def test_values_equidistant(self):
        grid = GenerosityGrid(k=5, g_max=0.8)
        assert np.allclose(grid.values, [0.0, 0.2, 0.4, 0.6, 0.8])

    def test_endpoints(self):
        grid = GenerosityGrid(k=7, g_max=0.63)
        assert grid.value(0) == 0.0
        assert grid.value(6) == pytest.approx(0.63)

    def test_spacing(self):
        assert GenerosityGrid(k=4, g_max=0.6).spacing == pytest.approx(0.2)

    def test_k_two_minimal(self):
        grid = GenerosityGrid(k=2, g_max=1.0)
        assert np.allclose(grid.values, [0.0, 1.0])

    def test_rejects_k_one(self):
        with pytest.raises(InvalidParameterError):
            GenerosityGrid(k=1, g_max=0.5)

    def test_rejects_zero_g_max(self):
        with pytest.raises(InvalidParameterError):
            GenerosityGrid(k=3, g_max=0.0)

    def test_rejects_g_max_above_one(self):
        with pytest.raises(InvalidParameterError):
            GenerosityGrid(k=3, g_max=1.5)

    def test_value_out_of_range(self):
        grid = GenerosityGrid(k=3, g_max=0.5)
        with pytest.raises(InvalidParameterError):
            grid.value(3)

    def test_nearest_index_roundtrip(self):
        grid = GenerosityGrid(k=5, g_max=0.8)
        for j in range(5):
            assert grid.nearest_index(grid.value(j)) == j

    def test_nearest_index_above_max(self):
        grid = GenerosityGrid(k=5, g_max=0.8)
        assert grid.nearest_index(0.95) == 4

    def test_matches_paper_definition(self):
        """g_j = g_max * (j-1)/(k-1) for 1-based j."""
        grid = GenerosityGrid(k=6, g_max=1.0)
        for j in range(1, 7):
            assert grid.value(j - 1) == pytest.approx((j - 1) / 5)


class TestIGTRule:
    """The k-IGT rule's one implementation, :func:`igt_update`."""

    K = 4

    def test_increment_on_ac(self):
        assert igt_update(1, self.K, reads_ad=False, partner_ac=True) == 2

    def test_increment_on_gtft(self):
        assert igt_update(1, self.K, reads_ad=False) == 2

    def test_decrement_on_ad(self):
        assert igt_update(2, self.K, reads_ad=True) == 1

    def test_truncation_top(self):
        assert igt_update(3, self.K, reads_ad=False, partner_ac=True) == 3

    def test_truncation_bottom(self):
        assert igt_update(0, self.K, reads_ad=True) == 0

    def test_out_of_range_raises(self):
        with pytest.raises(InvalidParameterError, match="0..3, got 4"):
            igt_update(4, self.K, reads_ad=False, partner_ac=True)
        with pytest.raises(InvalidParameterError, match="0..3, got -1"):
            igt_update(np.array([2, -1]), self.K, reads_ad=True)

    def test_vectorized_over_indices_and_readings(self):
        new = igt_update(np.arange(4), self.K,
                         reads_ad=np.array([False, True, False, True]))
        assert new.tolist() == [1, 0, 3, 2]

    def test_inc_dec_helpers(self):
        assert igt_update(np.arange(4), self.K, False).tolist() == [1, 2, 3, 3]
        assert igt_update(np.arange(4), self.K, True).tolist() == [0, 0, 1, 2]

    def test_strict_variant_ignores_ac(self):
        def strict(reads_ad, partner_ac):
            return igt_update(1, self.K, reads_ad, partner_ac, strict=True)

        assert strict(False, True) == 1
        assert strict(False, False) == 2
        assert strict(True, False) == 0

    def test_transition_diagram_covers_all_states(self):
        rows = run_experiment("E1", params={"k": 4}).rows
        assert [row[0] for row in rows] == ["g_1", "g_2", "g_3", "g_4"]

    def test_transition_diagram_consistent_with_rule(self):
        rows = run_experiment("E1", params={"k": 4}).rows
        for j, row in enumerate(rows):
            up = int(igt_update(j, self.K, False, partner_ac=True))
            down = int(igt_update(j, self.K, True))
            assert row[2] == f"g_{up + 1} (w.p. 1-beta)"
            assert row[4] == f"g_{down + 1} (w.p. beta)"


def _read(table, k, kind):
    """Initiator destinations of ``igt_model``'s table after ``kind``."""
    column = {AgentType.AC: k, AgentType.AD: k + 1, AgentType.GTFT: 0}[kind]
    return table[:k, column, 0]


class TestFigure1ReadsTheEngineTables:
    """E1 and the engine tables evaluate one rule, so they agree."""

    @pytest.mark.parametrize("k", range(2, 9))
    def test_e1_rows_and_checks_read_the_standard_table(self, k):
        table = igt_model(k).table
        report = run_experiment("E1", params={"k": k})
        on_ac, on_gtft, on_ad = (_read(table, k, kind) for kind in (
            AgentType.AC, AgentType.GTFT, AgentType.AD))
        assert report.rows == [
            [f"g_{j + 1}", round(j / (k - 1), 4),
             f"g_{on_ac[j] + 1} (w.p. 1-beta)",
             f"g_{on_gtft[j] + 1} (w.p. 1-beta)",
             f"g_{on_ad[j] + 1} (w.p. beta)"] for j in range(k)]
        index = np.arange(k)
        assert list(report.checks.values()) == [
            all(on_ac[:-1] == index[1:]) and all(on_gtft[:-1] == index[1:]),
            all(on_ad[1:] == index[:-1]),
            on_ad[0] == 0,
            on_ac[-1] == k - 1 and on_gtft[-1] == k - 1,
            True,
        ]
        assert report.all_checks_pass

    @pytest.mark.parametrize("k", range(2, 9))
    def test_update_on_three_partner_kinds_reads_both_tables(self, k):
        for mode in ("strategy", "strict"):
            table = igt_model(k, mode=mode).table
            for kind in AgentType:
                new = igt_update(np.arange(k), k,
                                 reads_ad=kind == AgentType.AD,
                                 partner_ac=kind == AgentType.AC,
                                 strict=mode == "strict")
                assert np.array_equal(new, _read(table, k, kind))
            # Every GTFT partner reads the same, whatever its index.
            assert (table[:k, :k, 0] == table[:k, :1, 0]).all()


class TestAgentType:
    def test_three_types(self):
        assert {AgentType.AC, AgentType.AD, AgentType.GTFT} == set(AgentType)

    def test_values_stable(self):
        assert int(AgentType.AC) == 0
        assert int(AgentType.AD) == 1
        assert int(AgentType.GTFT) == 2
