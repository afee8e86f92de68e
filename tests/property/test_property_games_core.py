"""Property-based tests for the games substrate and the paper core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.equilibrium import RDSetting, de_gap, mean_stationary_mu
from repro.core.generosity import (
    average_stationary_generosity,
    generosity_closed_form,
)
from repro.core.igt import AgentType, GenerosityGrid
from repro.core.population_igt import PopulationShares
from repro.engine import igt_update
from repro.games.closed_forms import (
    payoff_gtft_vs_ac,
    payoff_gtft_vs_ad,
    payoff_gtft_vs_gtft,
)
from repro.games.donation import DonationGame
from repro.games.expected_payoff import expected_payoff
from repro.games.strategies import (
    generous_tit_for_tat,
    reactive,
    with_execution_noise,
)

probabilities = st.floats(min_value=0.0, max_value=1.0)
deltas = st.floats(min_value=0.0, max_value=0.95)
generosities = st.floats(min_value=0.0, max_value=1.0)


class TestPayoffProperties:
    @given(g=generosities, gp=generosities, delta=deltas, s1=probabilities)
    @settings(max_examples=60, deadline=None)
    def test_closed_form_equals_resolvent_everywhere(self, g, gp, delta, s1):
        b, c = 4.0, 1.0
        closed = payoff_gtft_vs_gtft(g, gp, b, c, delta, s1)
        resolvent = expected_payoff(generous_tit_for_tat(g, s1),
                                    generous_tit_for_tat(gp, s1),
                                    DonationGame(b, c).reward_vector, delta)
        assert closed == pytest.approx(resolvent, abs=1e-8)

    @given(g=generosities, delta=deltas, s1=probabilities)
    @settings(max_examples=40, deadline=None)
    def test_payoff_bounded_by_extremes(self, g, delta, s1):
        """Every repeated-game payoff lies in [-c, b] per expected round."""
        b, c = 4.0, 1.0
        rounds = 1.0 / (1.0 - delta)
        for f in (payoff_gtft_vs_ac(g, b, c, delta, s1),
                  payoff_gtft_vs_ad(g, b, c, delta, s1),
                  payoff_gtft_vs_gtft(g, g, b, c, delta, s1)):
            assert -c * rounds - 1e-9 <= f <= b * rounds + 1e-9

    @given(p=probabilities, q=probabilities, s1=probabilities,
           noise=st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=40, deadline=None)
    def test_noise_keeps_probabilities_valid(self, p, q, s1, noise):
        noisy = with_execution_noise(reactive(p, q, s1), noise)
        assert all(0.0 <= prob <= 1.0 for prob in noisy.coop_probs)
        assert 0.0 <= noisy.initial_coop_prob <= 1.0

    @given(g=generosities, gp=generosities, delta=deltas, s1=probabilities)
    @settings(max_examples=40, deadline=None)
    def test_joint_cooperative_payoffs_sum(self, g, gp, delta, s1):
        """f(g,g') + f(g',g) <= 2(b-c)/(1-delta): total welfare is capped by
        full mutual cooperation in donation games."""
        b, c = 4.0, 1.0
        total = (payoff_gtft_vs_gtft(g, gp, b, c, delta, s1)
                 + payoff_gtft_vs_gtft(gp, g, b, c, delta, s1))
        cap = 2 * (b - c) / (1 - delta)
        assert total <= cap + 1e-8


class TestIGTRuleProperties:
    """Properties of the k-IGT rule's one implementation, igt_update."""

    @given(k=st.integers(min_value=2, max_value=12),
           index=st.integers(min_value=0, max_value=11),
           partner=st.sampled_from(list(AgentType)),
           strict=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_rule_stays_on_grid_and_moves_one(self, k, index, partner,
                                              strict):
        if index >= k:
            return
        new = int(igt_update(index, k, reads_ad=partner == AgentType.AD,
                             partner_ac=partner == AgentType.AC,
                             strict=strict))
        assert 0 <= new < k
        assert abs(new - index) <= 1

    @given(k=st.integers(min_value=2, max_value=12),
           index=st.integers(min_value=0, max_value=11),
           strict=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_ad_never_increases(self, k, index, strict):
        if index >= k:
            return
        assert igt_update(index, k, reads_ad=True, strict=strict) <= index

    @given(k=st.integers(min_value=2, max_value=12),
           index=st.integers(min_value=0, max_value=11),
           strict=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_ac_never_decreases(self, k, index, strict):
        if index >= k:
            return
        assert igt_update(index, k, reads_ad=False, partner_ac=True,
                          strict=strict) >= index


class TestStationaryProperties:
    @given(k=st.integers(min_value=2, max_value=30),
           beta=st.floats(min_value=0.02, max_value=0.98))
    @settings(max_examples=60, deadline=None)
    def test_generosity_formulas_agree(self, k, beta):
        g_max = 0.9
        assert generosity_closed_form(k, beta, g_max) == pytest.approx(
            average_stationary_generosity(k, beta, g_max), abs=1e-8)

    @given(k=st.integers(min_value=2, max_value=30),
           beta=st.floats(min_value=0.02, max_value=0.98))
    @settings(max_examples=60, deadline=None)
    def test_generosity_within_grid_range(self, k, beta):
        value = average_stationary_generosity(k, beta, 0.7)
        assert 0.0 <= value <= 0.7

    @given(k=st.integers(min_value=2, max_value=20),
           beta=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=40, deadline=None)
    def test_mean_stationary_mu_is_distribution(self, k, beta):
        mu = mean_stationary_mu(k, beta=beta)
        assert mu.shape == (k,)
        assert mu.sum() == pytest.approx(1.0)
        assert (mu >= 0).all()


class TestDeGapProperties:
    @given(k=st.integers(min_value=2, max_value=8),
           raw=st.lists(st.floats(min_value=0.01, max_value=1.0),
                        min_size=8, max_size=8),
           beta=st.floats(min_value=0.05, max_value=0.4))
    @settings(max_examples=30, deadline=None)
    def test_gap_nonnegative_for_any_mixture(self, k, raw, beta):
        """Psi >= 0 for every distribution (max dominates the average)."""
        setting = RDSetting(b=4.0, c=1.0, delta=0.7, s1=0.5)
        alpha = (1 - beta) / 2
        shares = PopulationShares(alpha=alpha, beta=beta,
                                  gamma=1 - alpha - beta)
        grid = GenerosityGrid(k=k, g_max=0.6)
        mu = np.array(raw[:k])
        mu = mu / mu.sum()
        assert de_gap(mu, grid, setting, shares) >= -1e-10


class TestSharesProperties:
    @given(alpha=st.floats(min_value=0.0, max_value=0.8),
           beta=st.floats(min_value=0.0, max_value=0.8))
    @settings(max_examples=40, deadline=None)
    def test_agent_counts_partition(self, alpha, beta):
        if alpha + beta >= 0.95:
            return
        shares = PopulationShares(alpha=alpha, beta=beta,
                                  gamma=1 - alpha - beta)
        n = 137
        n_ac, n_ad, n_gtft = shares.agent_counts(n)
        assert n_ac + n_ad + n_gtft == n
        assert n_gtft >= 1
