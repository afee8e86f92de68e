"""Tests for regimes (Thm 2.9 conditions) and theory bound formulas."""

import math

import pytest

from repro.core.equilibrium import RDSetting
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import PopulationShares
from repro.core.regimes import (
    default_theorem_2_9_setting,
    literal_only_theorem_2_9_setting,
    payoff_increase_margin,
    theorem_2_9_conditions,
    theorem_2_9_delta_bound,
    theorem_2_9_g_max_bound,
)
from repro.core.stationary import igt_ehrenfest_process
from repro.core.theory import (
    igt_mixing_lower_bound,
    igt_mixing_upper_bound,
    per_agent_state_count,
)
from repro.markov.ehrenfest import EhrenfestProcess
from repro.markov.mixing import exact_mixing_time
from repro.utils import InvalidParameterError


class TestTheorem29Conditions:
    def test_canonical_setting_passes_all(self):
        setting, shares, g_max = default_theorem_2_9_setting()
        conditions = theorem_2_9_conditions(
            setting, shares, GenerosityGrid(k=4, g_max=g_max))
        assert conditions.all_hold

    def test_literal_setting_passes_all(self):
        setting, shares, g_max = literal_only_theorem_2_9_setting()
        conditions = theorem_2_9_conditions(
            setting, shares, GenerosityGrid(k=4, g_max=g_max))
        assert conditions.all_hold

    def test_lambda_below_two_fails(self):
        shares = PopulationShares(alpha=0.2, beta=0.4, gamma=0.4)
        setting = RDSetting(b=20.0, c=1.0, delta=0.5, s1=0.5)
        conditions = theorem_2_9_conditions(
            setting, shares, GenerosityGrid(k=3, g_max=0.3))
        assert not conditions.lambda_at_least_two
        assert not conditions.all_hold

    def test_delta_above_threshold_fails(self):
        shares = PopulationShares(alpha=0.3, beta=0.1, gamma=0.6)
        bound = theorem_2_9_delta_bound(4.0, 1.0, 0.5, shares)
        setting = RDSetting(b=4.0, c=1.0, delta=min(bound + 0.01, 0.999),
                            s1=0.5)
        conditions = theorem_2_9_conditions(
            setting, shares, GenerosityGrid(k=3, g_max=0.3))
        assert not conditions.delta_ok

    def test_ratio_condition(self):
        shares = PopulationShares(alpha=0.3, beta=0.1, gamma=0.6)
        # b/c = 1.2 < 1 + beta*c/(gamma(1-s1)) = 1.333.
        setting = RDSetting(b=1.2, c=1.0, delta=0.5, s1=0.5)
        conditions = theorem_2_9_conditions(
            setting, shares, GenerosityGrid(k=3, g_max=0.3))
        assert not conditions.reward_ratio_ok

    def test_requires_positive_beta(self):
        shares = PopulationShares(alpha=0.5, beta=0.0, gamma=0.5)
        setting = RDSetting(b=4.0, c=1.0, delta=0.5, s1=0.5)
        with pytest.raises(InvalidParameterError):
            theorem_2_9_conditions(setting, shares,
                                   GenerosityGrid(k=3, g_max=0.3))

    def test_delta_bound_formula(self):
        shares = PopulationShares(alpha=0.3, beta=0.1, gamma=0.6)
        bound = theorem_2_9_delta_bound(4.0, 1.0, 0.5, shares)
        expected = math.sqrt(1 - 0.1 / (0.6 * 3.0 * 0.5))
        assert bound == pytest.approx(expected)

    def test_g_max_bound_formula(self):
        shares = PopulationShares(alpha=0.3, beta=0.1, gamma=0.6)
        setting = RDSetting(b=4.0, c=1.0, delta=0.7, s1=0.5)
        bound = theorem_2_9_g_max_bound(setting, shares)
        inner = 0.1 / (0.6 * 3.0 * 0.3 * 0.5) - 1.0
        assert bound == pytest.approx(1.0 - inner / 0.7)


class TestEffectiveMargin:
    def test_canonical_positive(self):
        setting, shares, g_max = default_theorem_2_9_setting()
        assert payoff_increase_margin(setting, shares, g_max) > 0

    def test_literal_negative(self):
        setting, shares, g_max = literal_only_theorem_2_9_setting()
        assert payoff_increase_margin(setting, shares, g_max) < 0

    def test_margin_shrinks_with_beta(self):
        setting = RDSetting(b=20.0, c=1.0, delta=0.8, s1=0.5)
        margins = []
        for beta in (0.02, 0.1, 0.2):
            shares = PopulationShares(alpha=0.2, beta=beta,
                                      gamma=0.8 - beta)
            margins.append(payoff_increase_margin(setting, shares, 0.4))
        assert margins[0] > margins[1] > margins[2]

    def test_positive_margin_implies_increasing_deviation_payoff(self):
        """The margin certifies max of F at the top grid point."""
        import numpy as np

        from repro.core.equilibrium import (
            grid_payoffs_vs_mixture,
            mean_stationary_mu,
        )
        setting, shares, g_max = default_theorem_2_9_setting()
        for k in (2, 5, 9):
            grid = GenerosityGrid(k=k, g_max=g_max)
            mu = mean_stationary_mu(k, beta=shares.beta)
            payoffs = grid_payoffs_vs_mixture(mu, grid, setting, shares)
            assert int(np.argmax(payoffs)) == k - 1


class TestTheoryBounds:
    """The bounds are EhrenfestProcess methods; igt_* evaluate them."""

    def test_phi_branches(self):
        assert EhrenfestProcess(4, 0.5, 0.1, 10).phi() == pytest.approx(100.0)
        assert EhrenfestProcess(10, 0.35, 0.3, 5).phi() == pytest.approx(
            min(10 / 0.05, 100) * 5)
        assert EhrenfestProcess(4, 0.3, 0.3, 10).phi() == pytest.approx(160.0)

    def test_phi_rejects_bad_rates(self):
        with pytest.raises(InvalidParameterError):
            EhrenfestProcess(4, 0.0, 0.3, 10)
        with pytest.raises(InvalidParameterError):
            EhrenfestProcess(4, 0.8, 0.3, 10)

    def test_upper_bound_constant(self):
        process = EhrenfestProcess(3, 0.4, 0.2, 8)
        assert process.mixing_time_upper_bound() == pytest.approx(
            2 * process.phi() * math.log(32))

    def test_lower_bound(self):
        assert EhrenfestProcess(4, 0.4, 0.2, 10).mixing_time_lower_bound() \
            == 20.0

    def test_igt_bounds_consistent_with_ehrenfest(self):
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        n = 200
        upper = igt_mixing_upper_bound(3, shares, n)
        a, b = 0.5 * 0.8, 0.5 * 0.2
        assert upper == pytest.approx(
            EhrenfestProcess(3, a, b, 100).mixing_time_upper_bound())
        assert igt_mixing_lower_bound(3, shares, n) == pytest.approx(150.0)

    @pytest.mark.parametrize("k, beta", [(3, 0.1), (3, 0.4), (4, 0.25)])
    def test_exact_mixing_time_between_igt_bounds(self, k, beta):
        """Theorem 2.7 on an exactly solved embedding (n = 16): the
        k-IGT count chain's t_mix lies between the two bounds."""
        shares = PopulationShares(alpha=0.5 - beta, beta=beta, gamma=0.5)
        process = igt_ehrenfest_process(shares, 16,
                                        GenerosityGrid(k=k, g_max=0.6))
        tmix = exact_mixing_time(process.exact_chain(),
                                 pi=process.stationary_distribution(),
                                 t_max=10_000)
        assert igt_mixing_lower_bound(k, shares, 16) <= tmix
        assert tmix <= igt_mixing_upper_bound(k, shares, 16)

    def test_igt_lower_accepts_beta_zero(self):
        """The diameter bound needs no AD agent: ``k·m/2`` at ``β = 0``."""
        shares = PopulationShares(alpha=0.5, beta=0.0, gamma=0.5)
        assert igt_mixing_lower_bound(3, shares, 100) == 75.0

    def test_igt_upper_requires_beta(self):
        shares = PopulationShares(alpha=0.5, beta=0.0, gamma=0.5)
        with pytest.raises(InvalidParameterError):
            igt_mixing_upper_bound(3, shares, 100)

    def test_upper_grows_linearly_in_k_strong_bias(self):
        shares = PopulationShares(alpha=0.1, beta=0.05, gamma=0.85)
        values = [igt_mixing_upper_bound(k, shares, 1000)
                  for k in (8, 16, 32)]
        assert values[1] / values[0] == pytest.approx(2.0, rel=0.01)
        assert values[2] / values[1] == pytest.approx(2.0, rel=0.01)

    def test_state_count(self):
        assert per_agent_state_count(7) == 7
        with pytest.raises(InvalidParameterError):
            per_agent_state_count(1)
