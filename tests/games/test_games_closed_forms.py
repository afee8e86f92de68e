"""The paper's closed-form payoffs and their g-derivative (Appendix B)."""

import numpy as np
import pytest

from repro.games.closed_forms import (
    payoff_derivative_in_g,
    payoff_gtft_vs_ac,
    payoff_gtft_vs_ad,
    payoff_gtft_vs_gtft,
    proposition_2_2_conditions,
)
from repro.games.donation import DonationGame
from repro.games.expected_payoff import expected_payoff
from repro.games.strategies import (
    always_cooperate,
    always_defect,
    generous_tit_for_tat,
)
from repro.utils import InvalidParameterError

PARAMS = dict(b=4.0, c=1.0, delta=0.7, s1=0.5)
V = DonationGame(4.0, 1.0).reward_vector


class TestClosedFormsVsResolvent:
    """Eqs. 44-46 must equal q1(I - dM)^{-1}v for every argument."""

    @pytest.mark.parametrize("g", [0.0, 0.25, 0.5, 0.9, 1.0])
    def test_vs_ac(self, g):
        closed = payoff_gtft_vs_ac(g, **PARAMS)
        resolvent = expected_payoff(generous_tit_for_tat(g, 0.5),
                                    always_cooperate(), V, 0.7)
        assert closed == pytest.approx(resolvent, abs=1e-12)

    @pytest.mark.parametrize("g", [0.0, 0.25, 0.5, 0.9, 1.0])
    def test_vs_ad(self, g):
        closed = payoff_gtft_vs_ad(g, **PARAMS)
        resolvent = expected_payoff(generous_tit_for_tat(g, 0.5),
                                    always_defect(), V, 0.7)
        assert closed == pytest.approx(resolvent, abs=1e-12)

    @pytest.mark.parametrize("g,gp", [
        (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.3, 0.7), (0.5, 0.5),
        (0.9, 0.1),
    ])
    def test_vs_gtft(self, g, gp):
        closed = payoff_gtft_vs_gtft(g, gp, **PARAMS)
        resolvent = expected_payoff(generous_tit_for_tat(g, 0.5),
                                    generous_tit_for_tat(gp, 0.5), V, 0.7)
        assert closed == pytest.approx(resolvent, abs=1e-10)

    @pytest.mark.parametrize("delta", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("s1", [0.0, 0.5, 1.0])
    def test_parameter_sweep(self, delta, s1):
        closed = payoff_gtft_vs_gtft(0.4, 0.6, 4.0, 1.0, delta, s1)
        resolvent = expected_payoff(generous_tit_for_tat(0.4, s1),
                                    generous_tit_for_tat(0.6, s1), V, delta)
        assert closed == pytest.approx(resolvent, abs=1e-10)


class TestClosedFormStructure:
    def test_ac_payoff_independent_of_g(self):
        values = {payoff_gtft_vs_ac(g, **PARAMS) for g in (0.0, 0.5, 1.0)}
        assert len(values) == 1

    def test_ad_payoff_linear_decreasing(self):
        f0 = payoff_gtft_vs_ad(0.0, **PARAMS)
        f1 = payoff_gtft_vs_ad(1.0, **PARAMS)
        fh = payoff_gtft_vs_ad(0.5, **PARAMS)
        assert f0 > fh > f1
        assert fh == pytest.approx((f0 + f1) / 2)

    def test_ad_slope(self):
        slope = (payoff_gtft_vs_ad(1.0, **PARAMS)
                 - payoff_gtft_vs_ad(0.0, **PARAMS))
        assert slope == pytest.approx(-PARAMS["c"] * PARAMS["delta"]
                                      / (1 - PARAMS["delta"]))

    def test_rejects_invalid_delta(self):
        with pytest.raises(InvalidParameterError):
            payoff_gtft_vs_ac(0.3, 4.0, 1.0, 1.0, 0.5)

    def test_rejects_b_below_c(self):
        with pytest.raises(InvalidParameterError):
            payoff_gtft_vs_ac(0.3, 1.0, 4.0, 0.5, 0.5)


def second_derivative_bound(b, c, delta, s1) -> float:
    """Proposition D.3's constant ``L`` bounding ``|d²f/dg²|`` on
    ``[0, ĝ]²``: ``(1 − s1)·max(2cδ³(1+δ), 2bδ⁴(1+δ)) / (1 − δ²)³``, the
    worst case ``g = g′ = 0`` of eqs. (58)–(59)."""
    return (1 - s1) * max(2 * c * delta**3 * (1 + delta),
                          2 * b * delta**4 * (1 + delta)) / (1 - delta**2)**3


class TestDerivatives:
    @pytest.mark.parametrize("g,gp", [(0.1, 0.2), (0.4, 0.6), (0.7, 0.3)])
    def test_first_derivative_vs_numeric(self, g, gp):
        h = 1e-6
        numeric = (payoff_gtft_vs_gtft(g + h, gp, **PARAMS)
                   - payoff_gtft_vs_gtft(g - h, gp, **PARAMS)) / (2 * h)
        analytic = payoff_derivative_in_g(g, gp, **PARAMS)
        assert analytic == pytest.approx(numeric, rel=1e-5)

    @pytest.mark.parametrize("gp", [0.0, 0.3, 0.6])
    def test_derivative_is_lipschitz_with_d3_constant(self, gp):
        """Eq. 47 changes no faster than Proposition D.3's L allows, the
        bound behind the DE proof's Taylor remainder."""
        grid = np.linspace(0.0, 0.6, 61)
        slopes = np.array([payoff_derivative_in_g(float(g), gp, **PARAMS)
                           for g in grid])
        steepest = np.max(np.abs(np.diff(slopes)) / np.diff(grid))
        assert steepest <= second_derivative_bound(**PARAMS)

    def test_derivative_positive_in_regime(self):
        """Proposition 2.2(i): strictly increasing within the regime."""
        for g in np.linspace(0, 0.6, 7):
            for gp in np.linspace(0, 0.6, 7):
                assert payoff_derivative_in_g(float(g), float(gp),
                                              **PARAMS) > 0


class TestProposition22Conditions:
    def test_all_hold_in_regime(self):
        conditions = proposition_2_2_conditions(4.0, 1.0, 0.7, 0.5, 0.6)
        assert conditions.all_hold

    def test_delta_too_small(self):
        conditions = proposition_2_2_conditions(4.0, 1.0, 0.2, 0.5, 0.1)
        assert not conditions.delta_above_c_over_b
        assert not conditions.all_hold

    def test_g_max_too_large(self):
        # threshold = 1 - c/(delta b) = 1 - 1/2.8 ~ 0.643
        conditions = proposition_2_2_conditions(4.0, 1.0, 0.7, 0.5, 0.7)
        assert not conditions.g_max_below_threshold

    def test_s1_one_fails(self):
        conditions = proposition_2_2_conditions(4.0, 1.0, 0.7, 1.0, 0.3)
        assert not conditions.s1_below_one


class TestProposition22Statements:
    """The three statements, verified exactly via the closed forms."""

    def test_statement_i_strict_increase(self):
        for gpp in (0.0, 0.3, 0.6):
            assert payoff_gtft_vs_gtft(0.2, gpp, **PARAMS) \
                < payoff_gtft_vs_gtft(0.5, gpp, **PARAMS)

    def test_statement_ii_non_decrease_vs_ac(self):
        assert payoff_gtft_vs_ac(0.2, **PARAMS) \
            <= payoff_gtft_vs_ac(0.5, **PARAMS)

    def test_statement_iii_strict_decrease_vs_ad(self):
        assert payoff_gtft_vs_ad(0.2, **PARAMS) \
            > payoff_gtft_vs_ad(0.5, **PARAMS)
