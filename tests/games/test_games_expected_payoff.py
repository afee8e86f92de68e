"""Tests for the resolvent expected-payoff machinery (Appendix B)."""

import numpy as np
import pytest

from repro.games.donation import DonationGame
from repro.games.expected_payoff import (
    expected_payoff,
    expected_payoff_pair,
    joint_action_chain,
)
from repro.games.strategies import (
    always_cooperate,
    always_defect,
    generous_tit_for_tat,
    tit_for_tat,
    win_stay_lose_shift,
)
from repro.utils import InvalidParameterError


@pytest.fixture
def game():
    return DonationGame(b=4.0, c=1.0)


class TestJointActionChain:
    def test_rows_stochastic(self):
        M = joint_action_chain(generous_tit_for_tat(0.3, 0.5),
                               win_stay_lose_shift())
        assert np.allclose(M.sum(axis=1), 1.0)

    def test_matches_paper_eq_35(self):
        """M for (GTFT(g), AC) — paper eq. 35."""
        g = 0.4
        M = joint_action_chain(generous_tit_for_tat(g, 0.5),
                               always_cooperate())
        expected = np.array([
            [1, 0, 0, 0],
            [g, 0, 1 - g, 0],
            [1, 0, 0, 0],
            [g, 0, 1 - g, 0],
        ])
        assert np.allclose(M, expected)

    def test_matches_paper_eq_38(self):
        """M for (GTFT(g), AD) — paper eq. 38."""
        g = 0.4
        M = joint_action_chain(generous_tit_for_tat(g, 0.5), always_defect())
        expected = np.array([
            [0, 1, 0, 0],
            [0, g, 0, 1 - g],
            [0, 1, 0, 0],
            [0, g, 0, 1 - g],
        ])
        assert np.allclose(M, expected)

    def test_matches_paper_eq_41(self):
        """M for (GTFT(g), GTFT(g')) — paper eq. 41."""
        g, gp = 0.3, 0.6
        M = joint_action_chain(generous_tit_for_tat(g, 0.5),
                               generous_tit_for_tat(gp, 0.5))
        expected = np.array([
            [1, 0, 0, 0],
            [g, 0, 1 - g, 0],
            [gp, 1 - gp, 0, 0],
            [g * gp, (1 - gp) * g, gp * (1 - g), (1 - g) * (1 - gp)],
        ])
        assert np.allclose(M, expected)


class TestExpectedPayoff:
    def test_ad_vs_ad_zero(self, game):
        assert expected_payoff(always_defect(), always_defect(),
                               game.reward_vector, 0.9) == pytest.approx(0.0)

    def test_ac_vs_ac_full_cooperation(self, game):
        delta = 0.8
        expected = (game.b - game.c) / (1 - delta)
        assert expected_payoff(always_cooperate(), always_cooperate(),
                               game.reward_vector, delta) == \
            pytest.approx(expected)

    def test_ac_vs_ad_sucker(self, game):
        delta = 0.8
        assert expected_payoff(always_cooperate(), always_defect(),
                               game.reward_vector, delta) == \
            pytest.approx(-game.c / (1 - delta))

    def test_delta_zero_single_round(self, game):
        value = expected_payoff(always_defect(), always_cooperate(),
                                game.reward_vector, 0.0)
        assert value == pytest.approx(game.b)

    def test_delta_one_rejected(self, game):
        with pytest.raises(InvalidParameterError):
            expected_payoff(always_defect(), always_cooperate(),
                            game.reward_vector, 1.0)

    def test_bad_reward_vector_shape(self, game):
        with pytest.raises(InvalidParameterError):
            expected_payoff(always_defect(), always_cooperate(),
                            [1.0, 2.0], 0.5)

    def test_tft_vs_tft_cooperates_forever(self, game):
        delta = 0.7
        value = expected_payoff(tit_for_tat(), tit_for_tat(),
                                game.reward_vector, delta)
        assert value == pytest.approx((game.b - game.c) / (1 - delta))

    def test_wsls_vs_wsls_cooperates_forever(self, game):
        delta = 0.7
        value = expected_payoff(win_stay_lose_shift(), win_stay_lose_shift(),
                                game.reward_vector, delta)
        assert value == pytest.approx((game.b - game.c) / (1 - delta))

    def test_pair_symmetry(self, game):
        """f(S2, S1) via the pair equals swapping the strategy order."""
        first = generous_tit_for_tat(0.2, 0.5)
        second = generous_tit_for_tat(0.7, 0.5)
        f12, f21 = expected_payoff_pair(first, second, game, 0.7)
        g21, g12 = expected_payoff_pair(second, first, game, 0.7)
        assert f12 == pytest.approx(g12)
        assert f21 == pytest.approx(g21)

    def test_symmetric_pair_equal_payoffs(self, game):
        strategy = generous_tit_for_tat(0.4, 0.5)
        f1, f2 = expected_payoff_pair(strategy, strategy, game, 0.6)
        assert f1 == pytest.approx(f2)
