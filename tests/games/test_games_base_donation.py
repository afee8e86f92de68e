"""Tests for actions, matrix games, donation games, and general PD."""

import numpy as np
import pytest

from repro.games.base import Action, GAME_STATES, MatrixGame
from repro.games.donation import DonationGame
from repro.utils import InvalidParameterError


class TestAction:
    def test_values(self):
        assert int(Action.COOPERATE) == 0
        assert int(Action.DEFECT) == 1

    def test_symbols(self):
        assert Action.COOPERATE.symbol == "C"
        assert Action.DEFECT.symbol == "D"


class TestGameStates:
    def test_order_matches_paper(self):
        C, D = Action.COOPERATE, Action.DEFECT
        assert GAME_STATES == ((C, C), (C, D), (D, C), (D, D))


class TestMatrixGame:
    def test_symmetric_construction(self):
        game = MatrixGame([[1.0, 0.0], [3.0, 2.0]])
        assert game.is_symmetric()
        assert np.allclose(game.col_payoffs, game.row_payoffs.T)

    def test_explicit_colpayoffs(self):
        game = MatrixGame([[1.0, 0.0]], [[0.0, 1.0]])
        assert not game.is_symmetric()

    def test_shape_mismatch_raises(self):
        with pytest.raises(InvalidParameterError):
            MatrixGame([[1.0, 0.0]], [[1.0], [0.0]])

    def test_payoff_pair(self):
        game = MatrixGame([[1.0, 0.0], [3.0, 2.0]])
        assert game.payoff(1, 0) == (3.0, 0.0)

    def test_expected_payoffs_pure(self):
        game = MatrixGame([[1.0, 0.0], [3.0, 2.0]])
        u1, u2 = game.expected_payoffs([0, 1], [1, 0])
        assert (u1, u2) == (3.0, 0.0)

    def test_expected_payoffs_mixed(self):
        game = MatrixGame([[1.0, 0.0], [3.0, 2.0]])
        u1, _ = game.expected_payoffs([0.5, 0.5], [0.5, 0.5])
        assert u1 == pytest.approx(1.5)

    def test_strategy_counts(self):
        game = MatrixGame(np.zeros((2, 3)), np.zeros((2, 3)))
        assert game.n_row_strategies == 2
        assert game.n_col_strategies == 3


class TestDonationGame:
    def test_payoff_matrix(self):
        game = DonationGame(b=4.0, c=1.0)
        assert np.allclose(game.row_payoffs, [[3.0, -1.0], [4.0, 0.0]])

    def test_reward_vector_matches_paper(self):
        game = DonationGame(b=4.0, c=1.0)
        assert np.allclose(game.reward_vector, [3.0, -1.0, 4.0, 0.0])

    def test_second_player_vector_swaps_cd_dc(self):
        game = DonationGame(b=4.0, c=1.0)
        assert np.allclose(game.second_player_reward_vector,
                           [3.0, 4.0, -1.0, 0.0])

    def test_symmetric(self):
        assert DonationGame(b=2.0, c=0.5).is_symmetric()

    def test_rejects_b_below_c(self):
        with pytest.raises(InvalidParameterError):
            DonationGame(b=1.0, c=2.0)

    def test_rejects_negative_cost(self):
        with pytest.raises(InvalidParameterError):
            DonationGame(b=1.0, c=-0.5)

    def test_zero_cost_allowed(self):
        game = DonationGame(b=1.0, c=0.0)
        assert game.benefit_cost_ratio == float("inf")

    def test_round_payoff(self):
        game = DonationGame(b=4.0, c=1.0)
        assert game.round_payoff(Action.COOPERATE, Action.DEFECT) == -1.0
        assert game.round_payoff(Action.DEFECT, Action.COOPERATE) == 4.0

    @pytest.mark.parametrize("b, c", [(4.0, 1.0), (2.0, 1.5), (10.0, 0.1),
                                      (1.01, 1.0)])
    def test_is_a_prisoners_dilemma(self, b, c):
        """With rewards R, S, T, P over (CC, CD, DC, DD), every positive
        cost gives T > R > P > S and 2R > T + S (mutual cooperation beats
        taking turns), the general prisoner's dilemma."""
        reward, sucker, temptation, punishment = \
            DonationGame(b=b, c=c).reward_vector
        assert temptation > reward > punishment > sucker
        assert 2 * reward > temptation + sucker

    def test_defect_dominates(self):
        """The eponymous dilemma: D is the dominant one-shot action."""
        game = DonationGame(b=3.0, c=1.0)
        for opp in (Action.COOPERATE, Action.DEFECT):
            assert game.round_payoff(Action.DEFECT, opp) \
                > game.round_payoff(Action.COOPERATE, opp)

    def test_mutual_cooperation_beats_mutual_defection(self):
        game = DonationGame(b=3.0, c=1.0)
        assert game.round_payoff(Action.COOPERATE, Action.COOPERATE) \
            > game.round_payoff(Action.DEFECT, Action.DEFECT)
