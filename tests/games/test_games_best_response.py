"""Best responses among deterministic memory-one strategies.

Against a fixed memory-one opponent the repeated game is a discounted
MDP over the last joint action, so a deterministic memory-one strategy
is optimal among all strategies.  Enumerating the 32 of them through the
exact payoff ``q₁(I − δM)^{-1}v`` checks ``expected_payoff`` against the
textbook thresholds, and checks the closed-form population payoffs of
``repro.core.equilibrium`` against the same exact formula.
"""

import itertools

import numpy as np
import pytest

from repro.core.equilibrium import (
    RDSetting,
    de_gap,
    grid_payoffs_vs_mixture,
    induced_full_distribution,
    mean_stationary_mu,
)
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import PopulationShares
from repro.core.regimes import default_theorem_2_9_setting
from repro.games.donation import DonationGame
from repro.games.expected_payoff import expected_payoff
from repro.games.strategies import (
    MemoryOneStrategy,
    always_cooperate,
    always_defect,
    generous_tit_for_tat,
    grim_trigger,
    reactive,
    tit_for_tat,
)
from repro.utils import InvalidParameterError

GAME = DonationGame(4.0, 1.0)
V = GAME.reward_vector


def deterministic_strategies() -> list:
    return [MemoryOneStrategy(initial_coop_prob=float(bits[0]),
                              coop_probs=tuple(float(p) for p in bits[1:]))
            for bits in itertools.product((0, 1), repeat=5)]


def best_response(opponent, reward_vector, delta):
    values = [(expected_payoff(candidate, opponent, reward_vector, delta),
               candidate) for candidate in deterministic_strategies()]
    return max(values, key=lambda pair: pair[0])


def population_opponents(grid, setting, shares):
    opponents = [generous_tit_for_tat(float(g), setting.s1)
                 for g in grid.values]
    return opponents + [always_cooperate(), always_defect()]


def population_value(strategy, mu, grid, setting, shares) -> float:
    weights = induced_full_distribution(mu, shares)
    return sum(w * expected_payoff(strategy, opponent,
                                   setting.game.reward_vector, setting.delta)
               for w, opponent in zip(weights, population_opponents(
                   grid, setting, shares)))


def best_deviation(mu, grid, setting, shares):
    values = [(population_value(candidate, mu, grid, setting, shares),
               candidate) for candidate in deterministic_strategies()]
    return max(values, key=lambda pair: pair[0])


def memory_one_gap(mu, grid, setting, shares) -> float:
    payoffs = grid_payoffs_vs_mixture(mu, grid, setting, shares)
    best, _ = best_deviation(mu, grid, setting, shares)
    return max(best, float(np.max(payoffs))) - float(np.asarray(mu) @ payoffs)


class TestEnumeration:
    def test_thirty_two_strategies(self):
        assert len(deterministic_strategies()) == 32

    def test_all_deterministic_and_distinct(self):
        strategies = deterministic_strategies()
        signatures = {(s.initial_coop_prob, s.coop_probs) for s in strategies}
        assert len(signatures) == 32
        assert all(s.is_deterministic for s in strategies)


class TestBestResponse:
    def test_vs_ac_is_permanent_defection(self):
        value, strategy = best_response(always_cooperate(), V, 0.8)
        assert value == pytest.approx(GAME.b / 0.2)
        assert strategy.initial_coop_prob == 0.0

    def test_vs_ad_is_zero(self):
        value, _ = best_response(always_defect(), V, 0.8)
        assert value == pytest.approx(0.0)

    def test_vs_grim_high_delta_cooperates(self):
        value, strategy = best_response(grim_trigger(), V, 0.9)
        assert value == pytest.approx((GAME.b - GAME.c) / 0.1)
        assert strategy.initial_coop_prob == 1.0

    def test_vs_grim_low_delta_defects(self):
        """Below delta = c/b one-shot exploitation beats cooperation."""
        value, strategy = best_response(grim_trigger(), V, 0.1)
        assert strategy.initial_coop_prob == 0.0
        assert value > (GAME.b - GAME.c) / 0.9

    def test_vs_tft_threshold(self):
        high, _ = best_response(tit_for_tat(), V, 0.9)
        assert high == pytest.approx(3.0 / 0.1)
        _, low = best_response(tit_for_tat(), V, 0.05)
        assert low.initial_coop_prob == 0.0

    def test_dominates_random_strategies(self, rng):
        """MDP optimality: no stochastic memory-one strategy does better."""
        opponent = generous_tit_for_tat(0.3, 0.5)
        value, _ = best_response(opponent, V, 0.7)
        for _ in range(100):
            challenger = reactive(float(rng.random()), float(rng.random()),
                                  float(rng.random()))
            assert expected_payoff(challenger, opponent, V, 0.7) \
                <= value + 1e-9

    def test_rejects_bad_reward_vector(self):
        with pytest.raises(InvalidParameterError, match="length 4"):
            expected_payoff(always_defect(), always_defect(), [1.0, 2.0], 0.5)


class TestPopulationDeviation:
    @pytest.fixture
    def instance(self):
        setting, shares, g_max = default_theorem_2_9_setting()
        grid = GenerosityGrid(k=4, g_max=g_max)
        mu = mean_stationary_mu(4, beta=shares.beta)
        return setting, shares, grid, mu

    def test_gap_dominates_grid_gap(self, instance):
        setting, shares, grid, mu = instance
        wide = memory_one_gap(mu, grid, setting, shares)
        narrow = de_gap(mu, grid, setting, shares)
        assert wide >= narrow - 1e-12

    def test_pure_cooperator_wins_in_canonical_setting(self, instance):
        """The s1 insight: the best memory-one deviation opens with C and
        cooperates unconditionally (harvesting the opening rounds the
        s1 = 0.5 incumbents waste)."""
        setting, shares, grid, mu = instance
        value, best = best_deviation(mu, grid, setting, shares)
        assert best.initial_coop_prob == 1.0
        # Never defecting, the winner only visits CC and CD.
        assert best.coop_probs[:2] == (1.0, 1.0)
        assert population_value(always_cooperate(), mu, grid, setting,
                                shares) == pytest.approx(value, rel=1e-12)

    def test_grid_deviation_values_match_closed_form(self, instance):
        """Each grid value's µ̂-weighted exact payoff is the closed-form
        ``grid_payoffs_vs_mixture`` entry."""
        setting, shares, grid, mu = instance
        closed = grid_payoffs_vs_mixture(mu, grid, setting, shares)
        exact = [population_value(generous_tit_for_tat(float(g), setting.s1),
                                  mu, grid, setting, shares)
                 for g in grid.values]
        assert np.allclose(exact, closed, rtol=1e-10)

    def test_mu_length_validated(self, instance):
        setting, shares, grid, _ = instance
        with pytest.raises(InvalidParameterError, match="k=4"):
            grid_payoffs_vs_mixture([0.5, 0.5], grid, setting, shares)

    def test_s1_one_shrinks_the_family_gap(self):
        """With s1 = 1 incumbents open cooperatively, removing the
        opening-round arbitrage: the widened gap gets (much) closer to the
        grid gap."""
        shares = PopulationShares(alpha=0.2, beta=0.05, gamma=0.75)
        grid = GenerosityGrid(k=4, g_max=0.4)
        mu = mean_stationary_mu(4, beta=shares.beta)
        lazy = RDSetting(b=20.0, c=1.0, delta=0.8, s1=0.5)
        eager = RDSetting(b=20.0, c=1.0, delta=0.8, s1=1.0)
        gap_lazy = memory_one_gap(mu, grid, lazy, shares)
        gap_eager = memory_one_gap(mu, grid, eager, shares)
        assert gap_eager < gap_lazy / 2
