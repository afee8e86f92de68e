"""End-to-end integration tests: the paper's pipeline on small instances.

These run the full chain — agent-level simulation -> empirical stationary
distribution -> theorem-level predictions (Theorems 2.4/2.7, Propositions
2.2/2.8, Theorem 2.9) — with statistical tolerances sized to the sampling
noise of the configured run lengths.
"""

import numpy as np
import pytest

from repro.core.equilibrium import de_gap, mean_stationary_mu
from repro.core.generosity import average_stationary_generosity
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.core.theory import igt_mixing_upper_bound
from repro.markov.distributions import total_variation
from repro.utils import spawn_generators


@pytest.fixture(scope="module")
def stationary_run():
    """One well-mixed agent-level run shared by several assertions."""
    shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
    grid = GenerosityGrid(k=3, g_max=0.6)
    n = 200
    sim = IGTSimulation(n=n, shares=shares, grid=grid, seed=424242)
    burn_in = int(2 * igt_mixing_upper_bound(3, shares, n))
    sim.run(burn_in)
    # Collect thinned stationary snapshots.
    snapshots = []
    for _ in range(300):
        sim.run(n // 2)
        snapshots.append(sim.counts)
    return shares, grid, sim, np.array(snapshots)


class TestStationaryPipeline:
    def test_time_averaged_mu_matches_theory(self, stationary_run):
        shares, grid, sim, snapshots = stationary_run
        process = sim.equivalent_ehrenfest(exact=True)
        pooled = snapshots.sum(axis=0) / snapshots.sum()
        assert total_variation(pooled, process.stationary_weights()) < 0.03

    def test_mean_counts_match_mp(self, stationary_run):
        shares, grid, sim, snapshots = stationary_run
        process = sim.equivalent_ehrenfest(exact=True)
        observed = snapshots.mean(axis=0)
        expected = process.mean_stationary_counts()
        assert np.allclose(observed, expected,
                           atol=0.06 * process.m)

    def test_top_coordinate_chi_square(self, stationary_run,
                                       chi_square_p_value):
        """The top-generosity count across snapshots fits Binomial(m, p_k).

        Snapshots are thinned but still correlated, so we only require the
        fit not to be catastrophically rejected.
        """
        from repro.markov.distributions import binomial_pmf

        shares, grid, sim, snapshots = stationary_run
        process = sim.equivalent_ehrenfest(exact=True)
        m = process.m
        p_top = process.stationary_weights()[-1]
        counts = np.bincount(snapshots[:, -1], minlength=m + 1)
        probs = np.array([binomial_pmf(i, m, p_top) for i in range(m + 1)])
        assert chi_square_p_value(counts, probs, min_expected=5.0) > 1e-6

    def test_average_generosity_matches_prop_2_8(self, stationary_run):
        shares, grid, sim, snapshots = stationary_run
        process = sim.equivalent_ehrenfest(exact=True)
        simulated = float((snapshots @ grid.values).mean() / process.m)
        # Use the exact finite-n lambda for the theory value.
        theory = float(grid.values @ process.stationary_weights())
        assert simulated == pytest.approx(theory, abs=0.02)
        # And the paper-level (idealized) formula is itself close.
        paper = average_stationary_generosity(3, shares.beta, grid.g_max)
        assert simulated == pytest.approx(paper, abs=0.05)


class TestEquilibriumPipeline:
    def test_empirical_de_gap_near_exact(self, canonical):
        setting, shares, g_max = canonical
        k, n = 4, 200
        grid = GenerosityGrid(k=k, g_max=g_max)
        sim = IGTSimulation(n=n, shares=shares, grid=grid, seed=7)
        sim.run(int(2 * igt_mixing_upper_bound(k, shares, n)))
        mu_acc = np.zeros(k)
        rounds = 150
        for _ in range(rounds):
            sim.run(n // 2)
            mu_acc += sim.empirical_mu()
        mu_avg = mu_acc / rounds
        empirical_gap = de_gap(mu_avg, grid, setting, shares)
        exact_gap = de_gap(mean_stationary_mu(k, beta=shares.beta), grid,
                           setting, shares)
        assert empirical_gap == pytest.approx(exact_gap, abs=0.06)

    def test_replica_consistency(self, canonical):
        """Independent replicas agree on the stationary average generosity."""
        setting, shares, g_max = canonical
        grid = GenerosityGrid(k=3, g_max=g_max)
        n = 150
        budget = int(2 * igt_mixing_upper_bound(3, shares, n))
        values = []
        for child in spawn_generators(99, 6):
            sim = IGTSimulation(n=n, shares=shares, grid=grid, seed=child)
            sim.run(budget)
            total = 0.0
            for _ in range(60):
                sim.run(n // 2)
                total += sim.average_generosity()
            values.append(total / 60)
        assert np.std(values) < 0.03


class TestCountChainEquivalence:
    def test_agent_level_matches_ehrenfest_sampler(self):
        """Distribution of counts after T steps: agent sim vs Ehrenfest.

        This is the Section 2.2.1 reduction checked end-to-end: same T, same
        initial condition, two independent implementations.
        """
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        grid = GenerosityGrid(k=3, g_max=0.6)
        n = 100
        T = 4000
        replicas = 120
        agent_counts = np.empty((replicas, 3), dtype=np.int64)
        for r, child in enumerate(spawn_generators(5, replicas)):
            sim = IGTSimulation(n=n, shares=shares, grid=grid, seed=child,
                                initial_indices=0)
            sim.run(T)
            agent_counts[r] = sim.counts
        probe = IGTSimulation(n=n, shares=shares, grid=grid, seed=0,
                              initial_indices=0)
        process = probe.equivalent_ehrenfest(exact=True)
        m = process.m
        start = (m, 0, 0)
        ehrenfest_counts = process.sample_state_at(start, T, seed=11,
                                                   size=replicas)
        # Compare the mean count vectors of the two implementations.
        assert np.allclose(agent_counts.mean(axis=0),
                           ehrenfest_counts.mean(axis=0),
                           atol=0.08 * m)
