"""Tests for the distributional-equilibrium gap of symmetric games."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.general_games import (
    hawk_dove_equilibrium_mixture,
    hawk_dove_game,
)
from repro.games.donation import DonationGame
from repro.games.nash import symmetric_de_gap


class TestSymmetricDeGap:
    def test_zero_at_symmetric_nash(self):
        game = DonationGame(4.0, 1.0)
        assert symmetric_de_gap(game.row_payoffs, [0.0, 1.0]) == \
            pytest.approx(0.0)

    def test_positive_off_equilibrium(self):
        game = DonationGame(4.0, 1.0)
        assert symmetric_de_gap(game.row_payoffs, [1.0, 0.0]) == \
            pytest.approx(1.0)  # the deviation gain c

    def test_uniform_pd_gap(self):
        game = DonationGame(4.0, 1.0)
        mu = [0.5, 0.5]
        # E[u1] = mu A mu = (3 - 1 + 4 + 0)/4 = 1.5; best response D: 2.0.
        assert symmetric_de_gap(game.row_payoffs, mu) == pytest.approx(0.5)

    def test_hawk_dove_mixed_equilibrium_gap_zero(self):
        game = hawk_dove_game(2.0, 4.0)
        mu = hawk_dove_equilibrium_mixture(2.0, 4.0)
        assert symmetric_de_gap(game.row_payoffs, mu) == pytest.approx(0.0)


games = st.integers(min_value=2, max_value=5).flatmap(
    lambda size: st.tuples(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=size**2,
                 max_size=size**2),
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=size,
                 max_size=size)))


def game_and_mixture(data):
    entries, weights = data
    size = len(weights)
    mu = np.array(weights) / sum(weights)
    return np.array(entries).reshape(size, size), mu


class TestSymmetricDeGapProperties:
    @given(data=games)
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, data):
        payoffs, mu = game_and_mixture(data)
        assert symmetric_de_gap(payoffs, mu) >= -1e-9

    @given(data=games, shift=st.floats(min_value=-50, max_value=50),
           scale=st.floats(min_value=0.1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_affine_payoff_change_scales_the_gap(self, data, shift, scale):
        """Adding a constant to every payoff leaves the gap unchanged;
        scaling every payoff scales it."""
        payoffs, mu = game_and_mixture(data)
        assert symmetric_de_gap(scale * payoffs + shift, mu) == \
            pytest.approx(scale * symmetric_de_gap(payoffs, mu), abs=1e-7)

    @given(size=st.integers(min_value=2, max_value=6),
           pick=st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_zero_at_every_pure_equilibrium_of_a_coordination_game(
            self, size, pick):
        """In a pure coordination game every strategy is a best response
        to itself, so each point mass has gap zero; the uniform mixture
        does not."""
        payoffs = np.diag(np.arange(1.0, size + 1.0))
        point = np.eye(size)[pick % size]
        assert symmetric_de_gap(payoffs, point) == 0.0
        assert symmetric_de_gap(payoffs, np.full(size, 1.0 / size)) > 0.0
