"""Cooperation rates of memory-one pairs, read off the joint action chain.

How often does each player cooperate?  In a δ-restart game it is the
occupancy-weighted share of rounds in the states where that player
cooperated, ``q₁(I − δM)^{-1}`` dotted with an indicator and divided by
the expected game length; in the limit of means it is the stationary
mass of those states, which ``average_payoff_pair`` yields for a "game"
whose per-round payoffs are the indicators.  The occupancy is built here
from the public joint action chain and round-1 distribution, so it is an
independent reference for ``expected_payoff`` as well.
"""

import numpy as np
import pytest

from repro.games.donation import DonationGame
from repro.games.expected_payoff import expected_payoff, joint_action_chain
from repro.games.strategies import (
    always_cooperate,
    always_defect,
    generous_tit_for_tat,
    joint_initial_distribution,
    reactive,
    tit_for_tat,
    win_stay_lose_shift,
    with_execution_noise,
)
from repro.games.zd import average_payoff_pair
from repro.utils import InvalidParameterError

#: Indicators over (CC, CD, DC, DD) of each player cooperating.
FIRST_COOPERATES = np.array([1.0, 1.0, 0.0, 0.0])
SECOND_COOPERATES = np.array([1.0, 0.0, 1.0, 0.0])


def discounted_state_occupancy(first, second, delta) -> np.ndarray:
    """Expected rounds spent in each joint state, ``q₁ (I − δM)^{-1}``."""
    chain = joint_action_chain(first, second)
    return joint_initial_distribution(first, second) @ np.linalg.inv(
        np.eye(4) - delta * chain)


def expected_game_length(delta) -> float:
    """Expected number of rounds ``1/(1 − δ)`` under the restart rule."""
    return 1.0 / (1.0 - delta)


class CooperationIndicators:
    """A stand-in game paying each player 1 for every round it cooperates."""

    reward_vector = FIRST_COOPERATES
    second_player_reward_vector = SECOND_COOPERATES


def discounted_rates(first, second, delta):
    occupancy = discounted_state_occupancy(first, second, delta)
    length = expected_game_length(delta)
    return (float(occupancy @ FIRST_COOPERATES) / length,
            float(occupancy @ SECOND_COOPERATES) / length)


def limit_rates(first, second):
    return average_payoff_pair(first, second, CooperationIndicators())


def mutual_cooperation(first, second, delta):
    occupancy = discounted_state_occupancy(first, second, delta)
    return float(occupancy[0]) / expected_game_length(delta)


class TestDiscountedRates:
    def test_ac_vs_ad(self):
        r1, r2 = discounted_rates(always_cooperate(), always_defect(), 0.8)
        assert r1 == pytest.approx(1.0)
        assert r2 == pytest.approx(0.0)

    def test_gtft_vs_ad_rate_approaches_g(self):
        """Against AD, GTFT cooperates w.p. s1 in round 1 and g after."""
        g, s1, delta = 0.3, 0.5, 0.9
        r1, _ = discounted_rates(generous_tit_for_tat(g, s1),
                                 always_defect(), delta)
        # Exact: (s1 + g * delta/(1-delta)) / (1/(1-delta)).
        expected = (s1 + g * delta / (1 - delta)) * (1 - delta)
        assert r1 == pytest.approx(expected)

    def test_symmetric_pair_equal_rates(self):
        strategy = generous_tit_for_tat(0.4, 0.5)
        r1, r2 = discounted_rates(strategy, strategy, 0.7)
        assert r1 == pytest.approx(r2)

    def test_rates_in_unit_interval(self):
        for delta in (0.0, 0.5, 0.9):
            r1, r2 = discounted_rates(reactive(0.7, 0.2, 0.4),
                                      reactive(0.3, 0.8, 0.6), delta)
            assert 0.0 <= r1 <= 1.0
            assert 0.0 <= r2 <= 1.0


class TestLimitRates:
    def test_gtft_pair_fully_cooperative(self):
        gtft = generous_tit_for_tat(0.2, 0.5)
        r1, r2 = limit_rates(gtft, gtft)
        assert r1 == pytest.approx(1.0)
        assert r2 == pytest.approx(1.0)

    def test_gtft_vs_ad_limit_is_g(self):
        g = 0.35
        r1, r2 = limit_rates(generous_tit_for_tat(g, 0.5), always_defect())
        assert r1 == pytest.approx(g)
        assert r2 == pytest.approx(0.0)

    def test_degenerate_pair_raises(self):
        with pytest.raises(InvalidParameterError, match="unit eigenvalues"):
            limit_rates(tit_for_tat(), tit_for_tat())

    def test_discounted_approaches_limit(self):
        """As delta -> 1, discounted rates converge to the limit rates."""
        first = reactive(0.8, 0.3, 0.5)
        second = reactive(0.4, 0.6, 0.5)
        limit_r1, _ = limit_rates(first, second)
        d_r1, _ = discounted_rates(first, second, 0.999)
        assert d_r1 == pytest.approx(limit_r1, abs=0.01)


class TestMutualCooperation:
    def test_ac_pair_always_cc(self):
        assert mutual_cooperation(always_cooperate(), always_cooperate(),
                                  0.7) == pytest.approx(1.0)

    def test_ad_pair_never_cc(self):
        assert mutual_cooperation(always_defect(), always_defect(),
                                  0.7) == pytest.approx(0.0)

    def test_noise_lowers_mutual_cooperation(self):
        clean = mutual_cooperation(tit_for_tat(), tit_for_tat(), 0.9)
        noisy_strategy = with_execution_noise(tit_for_tat(), 0.1)
        noisy = mutual_cooperation(noisy_strategy, noisy_strategy, 0.9)
        assert noisy < clean

    def test_generosity_restores_mutual_cooperation(self):
        """Under noise, GTFT holds more CC mass than TFT — the quantified
        version of the paper's Section 1.1.2 robustness discussion."""
        noise, delta = 0.05, 0.9
        tft = with_execution_noise(tit_for_tat(), noise)
        gtft = with_execution_noise(generous_tit_for_tat(0.3, 1.0), noise)
        assert mutual_cooperation(gtft, gtft, delta) > \
            mutual_cooperation(tft, tft, delta)


class TestOccupancy:
    def test_occupancy_sums_to_length(self):
        occupancy = discounted_state_occupancy(
            generous_tit_for_tat(0.3, 0.5), always_defect(), 0.8)
        assert occupancy.sum() == pytest.approx(expected_game_length(0.8))

    def test_occupancy_nonnegative(self):
        occupancy = discounted_state_occupancy(
            tit_for_tat(0.5), win_stay_lose_shift(), 0.9)
        assert (occupancy >= -1e-12).all()

    def test_payoff_is_occupancy_dot_rewards(self):
        game = DonationGame(b=4.0, c=1.0)
        first = generous_tit_for_tat(0.25, 0.5)
        second = always_defect()
        occupancy = discounted_state_occupancy(first, second, 0.8)
        direct = expected_payoff(first, second, game.reward_vector, 0.8)
        assert occupancy @ game.reward_vector == pytest.approx(direct)
