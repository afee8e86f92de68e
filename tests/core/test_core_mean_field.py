"""Tests for the mean-field analysis of the k-IGT dynamics."""

import numpy as np
import pytest

from repro.core.igt import GenerosityGrid
from repro.core.mean_field import (
    drift_generator,
    igt_mean_field,
    mean_field_stationary,
    mean_generosity_trajectory,
    mean_trajectory_discrete,
    mean_trajectory_ode,
)
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.markov.ehrenfest import EhrenfestProcess
from repro.utils import InvalidParameterError, spawn_generators


class TestDriftGenerator:
    def test_columns_sum_to_zero(self):
        A = drift_generator(5, 0.4, 0.2)
        assert np.allclose(A.sum(axis=0), 0.0)

    def test_conserves_total_mass(self):
        A = drift_generator(4, 0.3, 0.2)
        z = np.array([3.0, 1.0, 0.0, 2.0])
        assert (A @ z).sum() == pytest.approx(0.0)

    def test_interior_structure(self):
        A = drift_generator(3, 0.4, 0.1)
        # Middle urn: gains a from below, b from above, loses a + b.
        assert A[1, 0] == pytest.approx(0.4)
        assert A[1, 2] == pytest.approx(0.1)
        assert A[1, 1] == pytest.approx(-0.5)

    def test_boundary_truncation(self):
        A = drift_generator(3, 0.4, 0.1)
        # Bottom urn never loses to a down-move, top never to an up-move.
        assert A[0, 0] == pytest.approx(-0.4)
        assert A[2, 2] == pytest.approx(-0.1)

    def test_rejects_bad_rates(self):
        with pytest.raises(InvalidParameterError):
            drift_generator(3, 0.8, 0.3)


class TestStationary:
    @pytest.mark.parametrize("k,a,b", [(2, 0.3, 0.2), (4, 0.4, 0.1),
                                       (6, 0.25, 0.25), (3, 0.1, 0.6)])
    def test_equals_theorem_2_4_weights(self, k, a, b):
        """The mean-field fixed point is exactly p_j ∝ (a/b)^{j-1}."""
        process = EhrenfestProcess(k=k, a=a, b=b, m=5)
        assert np.allclose(mean_field_stationary(k, a, b),
                           process.stationary_weights(), atol=1e-10)

    def test_is_fixed_point_of_flow(self):
        x_star = mean_field_stationary(4, 0.4, 0.1)
        A = drift_generator(4, 0.4, 0.1)
        assert np.allclose(A @ x_star, 0.0, atol=1e-12)


class TestTrajectories:
    def test_discrete_conserves_mass(self):
        trajectory = mean_trajectory_discrete(3, 0.3, 0.2, [6, 0, 0],
                                              steps=100, observe_every=10)
        assert np.allclose(trajectory.sum(axis=1), 6.0)

    def test_discrete_converges_to_stationary(self):
        trajectory = mean_trajectory_discrete(3, 0.4, 0.1, [10, 0, 0],
                                              steps=3000)
        final = trajectory[-1] / 10.0
        assert np.allclose(final, mean_field_stationary(3, 0.4, 0.1),
                           atol=1e-4)

    def test_ode_matches_discrete(self):
        """expm(A t/m) ≈ (I + A/m)^t for moderate t/m."""
        m, steps = 20, 400
        discrete = mean_trajectory_discrete(
            4, 0.3, 0.2, [m, 0, 0, 0], steps=steps)[-1] / m
        ode = mean_trajectory_ode(4, 0.3, 0.2, [1.0, 0, 0, 0],
                                  [steps / m])[-1]
        assert np.allclose(discrete, ode, atol=0.01)

    def test_ode_at_time_zero_is_identity(self):
        x0 = np.array([0.5, 0.25, 0.25])
        out = mean_trajectory_ode(3, 0.3, 0.2, x0, [0.0])
        assert np.allclose(out[0], x0)

    def test_ode_rejects_negative_time(self):
        with pytest.raises(InvalidParameterError):
            mean_trajectory_ode(3, 0.3, 0.2, [1, 0, 0], [-1.0])

    def test_ode_requires_fractions(self):
        with pytest.raises(InvalidParameterError):
            mean_trajectory_ode(3, 0.3, 0.2, [2, 0, 0], [1.0])

    def test_generosity_trajectory_monotone_upward(self):
        """From all-zero generosity with upward drift, ẽg(t) increases."""
        grid = GenerosityGrid(k=4, g_max=0.6)
        series = mean_generosity_trajectory(4, 0.4, 0.1, [8, 0, 0, 0],
                                            grid, steps=500, observe_every=50)
        assert all(series[i] <= series[i + 1] + 1e-12
                   for i in range(series.size - 1))


class TestAgentLevelAgreement:
    def test_simulation_mean_tracks_mean_field_exactly(self):
        """E[z_t] is *exactly* (I + A/m)^t z_0 — verify within CLT noise."""
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        grid = GenerosityGrid(k=3, g_max=0.6)
        n, T, replicas = 100, 1500, 150
        totals = np.zeros(3)
        for child in spawn_generators(17, replicas):
            sim = IGTSimulation(n=n, shares=shares, grid=grid, seed=child,
                                initial_indices=0)
            sim.run(T)
            totals += sim.counts
        observed = totals / replicas
        A, m = igt_mean_field(shares, grid, n, exact=True)
        step = np.eye(3) + A / m
        z0 = np.array([m, 0.0, 0.0])
        expected = np.linalg.matrix_power(step, T) @ z0
        # CLT tolerance: count std is O(sqrt(m)), mean-of-replicas shrinks
        # by sqrt(replicas).
        tolerance = 4 * np.sqrt(m) / np.sqrt(replicas)
        assert np.abs(observed - expected).max() < tolerance

    def test_igt_mean_field_paper_parameters(self):
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        grid = GenerosityGrid(k=3, g_max=0.6)
        A, m = igt_mean_field(shares, grid, 100, exact=False)
        assert m == 50
        assert A[1, 0] == pytest.approx(0.5 * 0.8)

    def test_igt_mean_field_needs_ad(self):
        shares = PopulationShares(alpha=0.5, beta=0.0, gamma=0.5)
        with pytest.raises(InvalidParameterError):
            igt_mean_field(shares, GenerosityGrid(k=3, g_max=0.5), 100)


class TestOneEmbedding:
    """The mean field and the facade read the embedding rates from one
    function each, so their generators agree to the last bit."""

    @pytest.mark.parametrize("n", [20, 37, 60, 100, 257, 1000, 4099,
                                   10_007, 33_333, 65_537, 100_003])
    @pytest.mark.parametrize("beta", [0.05, 0.1, 0.2, 0.3, 0.45, 0.7])
    def test_generators_agree_bit_for_bit(self, n, beta):
        shares = PopulationShares(alpha=0.1, beta=beta, gamma=0.9 - beta)
        grid = GenerosityGrid(k=4, g_max=0.6)
        for exact in (True, False):
            A, m = igt_mean_field(shares, grid, n, exact=exact)
            process = IGTSimulation(
                n=n, shares=shares, grid=grid, seed=0, backend="count",
            ).equivalent_ehrenfest(exact=exact)
            assert m == process.m
            assert np.array_equal(
                A, drift_generator(grid.k, process.a, process.b))
