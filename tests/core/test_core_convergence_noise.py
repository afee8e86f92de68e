"""Tests for convergence to stationarity, observation noise and the
``simulate`` command."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.core.stationary import noisy_igt_lambda
from repro.core.theory import igt_mixing_lower_bound, igt_mixing_upper_bound
from repro.markov.distributions import binomial_pmf, total_variation
from repro.markov.mixing import exact_mixing_time
from repro.utils import InvalidParameterError, spawn_generators


@pytest.fixture
def shares():
    return PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)


@pytest.fixture
def grid():
    return GenerosityGrid(k=3, g_max=0.6)


def convergence_curve(n, shares, grid, times, replicas, seed, backend):
    """Max-coordinate TV between the replicas' count laws and the exact
    stationary binomial marginals, at each checkpoint, from the worst
    start (every GTFT agent at ``g_1``)."""
    probe = IGTSimulation(n=n, shares=shares, grid=grid, seed=0,
                          initial_indices=0)
    m = probe.n_gtft
    weights = probe.equivalent_ehrenfest(exact=True).stationary_weights()
    marginals = [[binomial_pmf(i, m, w) for i in range(m + 1)]
                 for w in weights]
    snapshots = np.empty((replicas, len(times), grid.k), dtype=np.int64)
    for r, child in enumerate(spawn_generators(seed, replicas)):
        sim = IGTSimulation(n=n, shares=shares, grid=grid, seed=child,
                            initial_indices=0, backend=backend)
        previous = 0
        for i, t in enumerate(times):
            sim.run(int(t) - previous)
            snapshots[r, i] = sim.counts
            previous = int(t)
    return np.array([
        max(total_variation(np.bincount(snapshots[:, i, j], minlength=m + 1)
                            / replicas, marginals[j])
            for j in range(grid.k))
        for i in range(len(times))])


class TestConvergenceCurve:
    @pytest.mark.parametrize("backend", ["agent", "count"])
    def test_curve_decreases_to_threshold(self, shares, grid, backend):
        n = 40
        high = 2.0 * igt_mixing_upper_bound(grid.k, shares, n)
        times = np.unique(np.geomspace(1, high, 6).astype(np.int64))
        curve = convergence_curve(n, shares, grid, times, replicas=150,
                                  seed=5, backend=backend)
        assert curve[0] > 0.9
        assert curve[-1] < 0.25
        assert curve[-1] < curve[len(curve) // 2] < curve[0]

    def test_crossing_time_within_paper_bounds(self, shares, grid):
        n = 40
        low = igt_mixing_lower_bound(grid.k, shares, n)
        high = 2.0 * igt_mixing_upper_bound(grid.k, shares, n)
        times = np.unique(np.geomspace(low / 4, high, 10).astype(np.int64))
        curve = convergence_curve(n, shares, grid, times, replicas=150,
                                  seed=9, backend="count")
        crossing = int(times[np.nonzero(curve <= 0.25)[0][0]])
        assert low / 4 < crossing <= high

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_exact_embedding_mixes_between_bounds(self, shares, k):
        n = 20
        sim = IGTSimulation(n=n, shares=shares,
                            grid=GenerosityGrid(k=k, g_max=0.6), seed=0)
        chain = sim.equivalent_ehrenfest(exact=True).exact_chain()
        t_mix = exact_mixing_time(chain)
        assert igt_mixing_lower_bound(k, shares, n) <= t_mix
        assert t_mix <= igt_mixing_upper_bound(k, shares, n)

    def test_mixing_grows_with_k(self, shares):
        n = 20
        times = [
            exact_mixing_time(IGTSimulation(
                n=n, shares=shares, grid=GenerosityGrid(k=k, g_max=0.6),
                seed=0).equivalent_ehrenfest(exact=True).exact_chain())
            for k in (2, 3, 4)]
        assert times == sorted(times)
        assert times[-1] > times[0]


class TestNoisyLambda:
    def test_zero_noise_recovers_theorem_2_7(self):
        assert noisy_igt_lambda(0.2, 0.0) == pytest.approx(4.0)

    def test_half_noise_is_uniform(self):
        for beta in (0.1, 0.3, 0.7):
            assert noisy_igt_lambda(beta, 0.5) == pytest.approx(1.0)

    def test_full_noise_inverts(self):
        assert noisy_igt_lambda(0.2, 1.0) == pytest.approx(0.25)

    def test_monotone_decreasing_toward_half(self):
        lams = [noisy_igt_lambda(0.2, eps) for eps in (0.0, 0.1, 0.3, 0.5)]
        assert all(lams[i] > lams[i + 1] for i in range(3))

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            noisy_igt_lambda(1.5, 0.1)
        with pytest.raises(InvalidParameterError):
            noisy_igt_lambda(0.2, -0.1)
        with pytest.raises(InvalidParameterError):
            noisy_igt_lambda(0.0, 0.0)


class TestObservationNoiseSimulation:
    def test_noise_requires_strategy_mode(self, shares, grid):
        with pytest.raises(InvalidParameterError):
            IGTSimulation(n=60, shares=shares, grid=grid, seed=0,
                          mode="strict", observation_noise=0.1)

    def test_noisy_embedding_lambda(self, shares, grid):
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0,
                            observation_noise=0.2)
        process = sim.equivalent_ehrenfest(exact=False)
        assert process.lam == pytest.approx(noisy_igt_lambda(0.2, 0.2))

    def test_noise_flattens_stationary(self, shares, grid):
        """More noise -> weaker bias -> lower stationary generosity."""
        results = []
        for eps in (0.0, 0.25, 0.5):
            sim = IGTSimulation(n=200, shares=shares, grid=grid, seed=3,
                                observation_noise=eps)
            sim.run(40_000)
            total = 0.0
            for _ in range(100):
                sim.run(100)
                total += sim.average_generosity()
            results.append(total / 100)
        assert results[0] > results[1] > results[2] - 0.02
        assert results[2] == pytest.approx(0.3, abs=0.05)  # uniform: g_max/2

    def test_noisy_run_matches_noisy_theory(self, shares, grid):
        eps = 0.3
        sim = IGTSimulation(n=200, shares=shares, grid=grid, seed=5,
                            observation_noise=eps)
        process = sim.equivalent_ehrenfest(exact=True)
        sim.run(40_000)
        pooled = np.zeros(3)
        for _ in range(150):
            sim.run(100)
            pooled += sim.counts
        pooled /= pooled.sum()
        assert np.abs(pooled - process.stationary_weights()).max() < 0.04

    def test_noise_enables_embedding_without_ad(self, grid):
        """With noise, even a beta=0 population has decrement pressure."""
        shares = PopulationShares(alpha=0.5, beta=0.0, gamma=0.5)
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0,
                            observation_noise=0.1)
        process = sim.equivalent_ehrenfest(exact=False)
        assert process.lam == pytest.approx(0.9 / 0.1)


class TestCliSimulate:
    def test_simulate_runs(self, capsys):
        assert main(["simulate", "--n", "80", "--k", "3", "--steps", "2000",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "average generosity" in out
        assert "stationary p_j" in out

    def test_simulate_with_noise(self, capsys):
        assert main(["simulate", "--n", "60", "--k", "3", "--steps", "1000",
                     "--noise", "0.3"]) == 0
        assert "noise=0.3" in capsys.readouterr().out
