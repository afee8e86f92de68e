"""Failure injection: hostile inputs and extreme parameters.

Every library entry point should fail loudly (with a ``ReproError``
subclass) on invalid input and behave sensibly at the extremes of its
domain — minimum populations, boundary probabilities, degenerate games.
"""

import numpy as np
import pytest

from repro.core.equilibrium import RDSetting, de_gap, mean_stationary_mu
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.games.donation import DonationGame
from repro.games.repeated import RepeatedGameEngine
from repro.games.strategies import MemoryOneStrategy, always_defect
from repro.markov.ehrenfest import EhrenfestProcess
from repro.population.protocol import TransitionFunctionProtocol
from repro.population.simulator import Simulator
from repro.utils import ReproError


class TestHostileInputs:
    def test_nan_probabilities_rejected_everywhere(self):
        nan = float("nan")
        with pytest.raises(ReproError):
            MemoryOneStrategy(initial_coop_prob=nan, coop_probs=(1, 1, 1, 1))
        with pytest.raises(ReproError):
            RDSetting(b=4.0, c=1.0, delta=0.5, s1=nan)
        with pytest.raises(ReproError):
            PopulationShares(alpha=nan, beta=0.5, gamma=0.5)

    def test_negative_sizes_rejected(self):
        with pytest.raises(ReproError):
            EhrenfestProcess(k=3, a=0.3, b=0.2, m=-1)
        with pytest.raises(ReproError):
            GenerosityGrid(k=-2, g_max=0.5)

    def test_mu_not_a_distribution_rejected(self):
        setting = RDSetting(b=4.0, c=1.0, delta=0.5, s1=0.5)
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        grid = GenerosityGrid(k=3, g_max=0.5)
        with pytest.raises(ReproError):
            de_gap([0.5, 0.5, 0.5], grid, setting, shares)
        with pytest.raises(ReproError):
            de_gap([1.2, -0.2, 0.0], grid, setting, shares)

    def test_all_errors_are_catchable_as_repro_error(self):
        attempts = [
            lambda: EhrenfestProcess(k=1, a=0.3, b=0.2, m=5),
            lambda: DonationGame(b=1.0, c=2.0),
            lambda: RepeatedGameEngine(DonationGame(4, 1), delta=1.0),
            lambda: mean_stationary_mu(4),
        ]
        for attempt in attempts:
            with pytest.raises(ReproError):
                attempt()


class TestMinimalPopulations:
    def test_two_agent_simulation(self):
        """The absolute minimum population still runs correctly."""
        # Fratricide leader election: when two leaders (0) meet, the
        # responder becomes a follower (1).
        protocol = TransitionFunctionProtocol(
            2, lambda u, v: (u, 1) if u == v == 0 else (u, v))
        sim = Simulator(protocol, np.zeros(2, dtype=np.int64), seed=0)
        result = sim.run(1000, stop_when=lambda counts: counts[0] == 1)
        assert result.converged
        assert result.counts[0] == 1

    def test_igt_minimum_viable_population(self):
        """Two agents, one GTFT, one AD: generosity is driven to zero."""
        shares = PopulationShares(alpha=0.0, beta=0.5, gamma=0.5)
        grid = GenerosityGrid(k=3, g_max=0.6)
        sim = IGTSimulation(n=2, shares=shares, grid=grid, seed=0,
                            initial_indices=2)
        sim.run(200)
        assert sim.average_generosity() == 0.0

    def test_single_gtft_among_cooperators(self):
        """One GTFT with only AC partners climbs to the top and stays."""
        shares = PopulationShares(alpha=0.9, beta=0.0, gamma=0.1)
        grid = GenerosityGrid(k=4, g_max=0.8)
        sim = IGTSimulation(n=10, shares=shares, grid=grid, seed=0,
                            initial_indices=0)
        sim.run(500)
        assert sim.average_generosity() == pytest.approx(0.8)


class TestExtremeParameters:
    def test_beta_near_one(self):
        """Almost-all defectors: stationary collapses to g_1."""
        mu = mean_stationary_mu(5, beta=0.999)
        assert mu[0] > 0.99

    def test_beta_near_zero(self):
        mu = mean_stationary_mu(5, beta=0.001)
        assert mu[-1] > 0.99

    def test_huge_k_numerically_stable(self):
        mu = mean_stationary_mu(500, beta=0.1)
        assert np.isfinite(mu).all()
        assert mu.sum() == pytest.approx(1.0)

    def test_delta_zero_games_single_round(self):
        engine = RepeatedGameEngine(DonationGame(4, 1), delta=0.0)
        record = engine.play(always_defect(), always_defect(), seed=0)
        assert record.rounds == 1

    def test_extreme_bias_ehrenfest(self):
        process = EhrenfestProcess(k=10, a=0.94, b=0.01, m=5)
        pi = process.stationary_weights()
        assert np.isfinite(pi).all()
        assert pi[-1] > 0.98

    def test_large_population_counts_consistent(self):
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        grid = GenerosityGrid(k=3, g_max=0.6)
        sim = IGTSimulation(n=50_000, shares=shares, grid=grid, seed=0)
        assert sim.counts.sum() == sim.n_gtft == 25_000

    def test_gamma_one_population(self):
        """All-GTFT population: pure upward drift, no embedding (beta=0)."""
        shares = PopulationShares(alpha=0.0, beta=0.0, gamma=1.0)
        grid = GenerosityGrid(k=3, g_max=0.6)
        sim = IGTSimulation(n=20, shares=shares, grid=grid, seed=0,
                            initial_indices=0)
        sim.run(2000)
        assert sim.average_generosity() == pytest.approx(0.6)


class TestDeterminismUnderConcurrencyPatterns:
    def test_spawned_replicas_are_deterministic(self):
        """The replica-spawning pattern used across experiments reproduces
        bit-for-bit under a fixed parent seed."""
        from repro.utils import spawn_generators

        def run_once():
            shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
            grid = GenerosityGrid(k=3, g_max=0.6)
            out = []
            for child in spawn_generators(1234, 4):
                sim = IGTSimulation(n=50, shares=shares, grid=grid,
                                    seed=child)
                sim.run(500)
                out.append(tuple(sim.counts))
            return out

        assert run_once() == run_once()
