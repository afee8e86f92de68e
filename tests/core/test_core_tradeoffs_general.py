"""Tests for the trade-off table and general-game population dynamics."""

import numpy as np
import pytest

from repro.core.general_games import (
    PopulationGameSimulation,
    hawk_dove_equilibrium_mixture,
    hawk_dove_game,
)
from repro.core.tradeoffs import TradeoffRow, tradeoff_table
from repro.games.base import MatrixGame
from repro.utils import InvalidParameterError


class TestTradeoffTable:
    @pytest.fixture
    def table(self, canonical):
        setting, shares, g_max = canonical
        return tradeoff_table([2, 4, 8], setting, shares, g_max, n=100)

    def test_row_count_and_type(self, table):
        assert len(table) == 3
        assert all(isinstance(row, TradeoffRow) for row in table)

    def test_states_equal_k(self, table):
        assert [row.states_per_agent for row in table] == [2, 4, 8]

    def test_bounds_ordered(self, table):
        for row in table:
            assert row.mixing_lower < row.mixing_upper

    def test_psi_decreasing(self, table):
        psis = [row.psi for row in table]
        assert psis[0] > psis[1] > psis[2]

    def test_psi_times_k(self, table):
        for row in table:
            assert row.psi_times_k == pytest.approx(row.psi * row.k)

    def test_no_measurement_by_default(self, table):
        assert all(row.measured_mixing is None for row in table)

    def test_measured_mode(self, canonical, rng):
        setting, shares, g_max = canonical
        table = tradeoff_table([2, 3], setting, shares, g_max, n=60,
                               measure=True, coupling_samples=3, seed=rng)
        for row in table:
            assert row.measured_mixing is not None
            assert row.measured_mixing > 0

    def test_rejects_k_one(self, canonical):
        setting, shares, g_max = canonical
        with pytest.raises(InvalidParameterError):
            tradeoff_table([1], setting, shares, g_max, n=100)


class TestHawkDove:
    def test_game_structure(self):
        game = hawk_dove_game(2.0, 4.0)
        assert game.is_symmetric()
        assert game.row_payoffs[0, 0] == pytest.approx(-1.0)
        assert game.row_payoffs[0, 1] == pytest.approx(2.0)
        assert game.row_payoffs[1, 1] == pytest.approx(1.0)

    def test_equilibrium_mixture(self):
        assert np.allclose(hawk_dove_equilibrium_mixture(2.0, 4.0),
                           [0.5, 0.5])
        assert np.allclose(hawk_dove_equilibrium_mixture(1.0, 4.0),
                           [0.25, 0.75])

    def test_rejects_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            hawk_dove_game(4.0, 2.0)
        with pytest.raises(InvalidParameterError):
            hawk_dove_equilibrium_mixture(4.0, 2.0)


class TestPopulationGameSimulation:
    @pytest.fixture
    def game(self):
        return hawk_dove_game(2.0, 4.0)

    def test_rejects_asymmetric_game(self):
        asymmetric = MatrixGame(np.array([[1.0, 0.0], [0.0, 1.0]]),
                                np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(InvalidParameterError):
            PopulationGameSimulation(asymmetric, n=10)

    def test_rejects_unknown_rule(self, game):
        with pytest.raises(InvalidParameterError):
            PopulationGameSimulation(game, n=10, rule="psychic")

    def test_counts_conserved(self, game, rng):
        sim = PopulationGameSimulation(game, n=50, seed=rng)
        sim.run(2000)
        assert sim.counts.sum() == 50

    def test_initial_strategies_respected(self, game, rng):
        initial = np.zeros(20, dtype=np.int64)
        sim = PopulationGameSimulation(game, n=20, seed=rng,
                                       initial_strategies=initial)
        assert sim.counts[0] == 20

    def test_initial_strategies_validated(self, game, rng):
        with pytest.raises(InvalidParameterError):
            PopulationGameSimulation(game, n=20, seed=rng,
                                     initial_strategies=np.full(20, 7))

    def test_imitation_approaches_mixed_equilibrium(self, game, rng):
        initial = np.ones(200, dtype=np.int64)  # mostly doves...
        initial[:20] = 0  # ...with a hawk minority to imitate from
        sim = PopulationGameSimulation(game, n=200, rule="imitation",
                                       seed=rng, initial_strategies=initial)
        sim.run(30_000)
        mu = sim.empirical_mu()
        assert mu[0] == pytest.approx(0.5, abs=0.15)

    def test_imitation_cannot_invent_strategies(self, game, rng):
        """All-dove is absorbing: imitation only copies existing strategies."""
        initial = np.ones(50, dtype=np.int64)
        sim = PopulationGameSimulation(game, n=50, rule="imitation",
                                       seed=rng, initial_strategies=initial)
        sim.run(5000)
        assert sim.counts[0] == 0

    def test_imitation_on_dominant_strategy_game(self, rng):
        """In a PD-like symmetric game imitation fixates on the dominant
        strategy."""
        from repro.games.donation import DonationGame

        game = DonationGame(4.0, 1.0)
        initial = np.zeros(100, dtype=np.int64)
        initial[:5] = 1  # five defectors invade
        sim = PopulationGameSimulation(game, n=100, rule="imitation",
                                       seed=rng, initial_strategies=initial)
        sim.run(60_000)
        assert sim.empirical_mu()[1] > 0.9

    def test_logit_keeps_full_support(self, game, rng):
        sim = PopulationGameSimulation(game, n=100, rule="logit", seed=rng,
                                       eta=1.0)
        sim.run(10_000)
        assert (sim.counts > 0).all()

    def test_best_response_rule_runs(self, game, rng):
        sim = PopulationGameSimulation(game, n=60, rule="best_response",
                                       seed=rng, p_update=0.3)
        sim.run(5000)
        assert sim.counts.sum() == 60

    def test_de_gap_nonnegative_along_trajectory(self, game, rng):
        sim = PopulationGameSimulation(game, n=40, seed=rng)
        gaps = [sim.de_gap()]
        for _ in range(4):
            sim.run(500)
            gaps.append(sim.de_gap())
        assert min(gaps) >= -1e-12

    @pytest.mark.parametrize("eta", [0.0, np.nan, np.inf])
    def test_rejects_bad_eta(self, game, eta):
        # NaN used to run, every agent ending on strategy 0.
        with pytest.raises(InvalidParameterError, match="eta"):
            PopulationGameSimulation(game, n=10, rule="logit", eta=eta)
