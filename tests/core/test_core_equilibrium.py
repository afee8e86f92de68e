"""Tests for the distributional-equilibrium machinery (Definition 1.2)."""

import numpy as np
import pytest

from repro.core.equilibrium import (
    RDSetting,
    de_gap,
    grid_payoffs_vs_mixture,
    gtft_payoff_matrix,
    mean_stationary_mu,
    payoff_table,
)
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import PopulationShares
from repro.games.closed_forms import (
    payoff_gtft_vs_ac,
    payoff_gtft_vs_ad,
    payoff_gtft_vs_gtft,
)
from repro.games.expected_payoff import expected_payoff
from repro.games.strategies import always_cooperate, always_defect
from repro.utils import InvalidParameterError


@pytest.fixture
def setting():
    return RDSetting(b=4.0, c=1.0, delta=0.7, s1=0.5)


@pytest.fixture
def shares():
    return PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)


@pytest.fixture
def grid():
    return GenerosityGrid(k=4, g_max=0.6)


class TestRDSetting:
    def test_game_parameters(self, setting):
        assert setting.game.b == 4.0
        assert setting.expected_rounds == pytest.approx(1 / 0.3)

    def test_rejects_bad_rewards(self):
        with pytest.raises(InvalidParameterError):
            RDSetting(b=1.0, c=2.0, delta=0.5, s1=0.5)

    def test_rejects_delta_one(self):
        with pytest.raises(InvalidParameterError):
            RDSetting(b=4.0, c=1.0, delta=1.0, s1=0.5)


class TestGtftPayoffMatrix:
    def test_matches_closed_form(self, setting, grid):
        F = gtft_payoff_matrix(grid, setting)
        for i, g in enumerate(grid.values):
            for j, gp in enumerate(grid.values):
                assert F[i, j] == pytest.approx(
                    payoff_gtft_vs_gtft(float(g), float(gp), setting.b,
                                        setting.c, setting.delta,
                                        setting.s1))

    def test_increasing_in_first_argument(self, setting, grid):
        F = gtft_payoff_matrix(grid, setting)
        assert (np.diff(F, axis=0) > 0).all()


class TestPayoffTable:
    def test_shape(self, setting, grid):
        table = payoff_table(grid, setting)
        assert table.shape == (6, 6)

    def test_gtft_block_matches_closed_form(self, setting, grid):
        table = payoff_table(grid, setting)
        assert np.allclose(table[:4, :4], gtft_payoff_matrix(grid, setting))

    def test_gtft_vs_ac_column(self, setting, grid):
        table = payoff_table(grid, setting)
        for i, g in enumerate(grid.values):
            assert table[i, 4] == pytest.approx(
                payoff_gtft_vs_ac(float(g), setting.b, setting.c,
                                  setting.delta, setting.s1))

    def test_gtft_vs_ad_column(self, setting, grid):
        table = payoff_table(grid, setting)
        for i, g in enumerate(grid.values):
            assert table[i, 5] == pytest.approx(
                payoff_gtft_vs_ad(float(g), setting.b, setting.c,
                                  setting.delta, setting.s1))

    def test_ac_ad_corner(self, setting, grid):
        table = payoff_table(grid, setting)
        v = setting.game.reward_vector
        assert table[4, 5] == pytest.approx(
            expected_payoff(always_cooperate(), always_defect(), v,
                            setting.delta))
        assert table[5, 5] == pytest.approx(0.0)


class TestPayoffVsMixture:
    def test_decomposition(self, setting, shares, grid):
        """Each grid entry is α·f(g, AC) + β·f(g, AD) + γ·Σ_j µ_j f(g, g_j)
        (eq. 46), evaluated here through the scalar closed forms."""
        mu = np.array([0.1, 0.2, 0.3, 0.4])
        game = (setting.b, setting.c, setting.delta, setting.s1)
        vector = grid_payoffs_vs_mixture(mu, grid, setting, shares)
        for i, g in enumerate(grid.values):
            expected = (shares.alpha * payoff_gtft_vs_ac(g, *game)
                        + shares.beta * payoff_gtft_vs_ad(g, *game)
                        + shares.gamma * sum(
                            mu[j] * payoff_gtft_vs_gtft(g, gj, *game)
                            for j, gj in enumerate(grid.values)))
            assert vector[i] == pytest.approx(expected)

    def test_affine_in_mu(self, setting, shares, grid):
        """The payoffs are linear in the mixture µ̂, so mixing two
        populations mixes their payoff vectors."""
        first = np.array([0.7, 0.1, 0.1, 0.1])
        second = np.array([0.0, 0.0, 0.5, 0.5])
        mixed = grid_payoffs_vs_mixture(0.3 * first + 0.7 * second, grid,
                                        setting, shares)
        assert np.allclose(
            mixed,
            0.3 * grid_payoffs_vs_mixture(first, grid, setting, shares)
            + 0.7 * grid_payoffs_vs_mixture(second, grid, setting, shares))

    def test_matches_full_distribution_dot_table(self, setting, shares, grid):
        """E_{S~mu_hat}[f(g_i, S)] = (payoff_table row_i) . mu_hat, with
        mu_hat = (gamma * mu, alpha, beta) (eq. 3)."""
        mu = np.array([0.4, 0.3, 0.2, 0.1])
        table = payoff_table(grid, setting)
        full = np.concatenate([shares.gamma * mu, [shares.alpha, shares.beta]])
        vector = grid_payoffs_vs_mixture(mu, grid, setting, shares)
        assert np.allclose(vector, table[:4] @ full)


class TestDeGap:
    def test_nonnegative(self, setting, shares, grid):
        for mu in ([0.25] * 4, [1.0, 0, 0, 0], [0, 0, 0, 1.0]):
            assert de_gap(mu, grid, setting, shares) >= -1e-12

    def test_zero_for_point_mass_at_best_response(self, setting, shares,
                                                  grid):
        """A point mass on the best response against itself has gap zero iff
        it is a fixed point; verify via explicit maximization."""
        payoffs = grid_payoffs_vs_mixture([0, 0, 0, 1.0], grid, setting,
                                          shares)
        best = int(np.argmax(payoffs))
        point = np.zeros(4)
        point[best] = 1.0
        gap = de_gap(point, grid, setting, shares)
        payoffs_at_point = grid_payoffs_vs_mixture(point, grid, setting,
                                                   shares)
        assert gap == pytest.approx(payoffs_at_point.max()
                                    - payoffs_at_point[best])

    def test_theorem_2_9_decay_in_effective_regime(self, canonical):
        setting, shares, g_max = canonical
        gaps = []
        for k in (2, 4, 8, 16):
            grid = GenerosityGrid(k=k, g_max=g_max)
            mu = mean_stationary_mu(k, beta=shares.beta)
            gaps.append(de_gap(mu, grid, setting, shares))
        assert all(gaps[i] > gaps[i + 1] for i in range(3))
        assert max(g * k for g, k in zip(gaps, (2, 4, 8, 16))) < 1.0


class TestMeanStationaryMu:
    def test_equals_weights(self):
        mu = mean_stationary_mu(5, beta=0.2)
        from repro.core.stationary import igt_stationary_weights
        assert np.allclose(mu, igt_stationary_weights(5, 0.2))

    def test_lam_parameter(self):
        assert np.allclose(mean_stationary_mu(3, lam=4.0),
                           mean_stationary_mu(3, beta=0.2))

    def test_requires_exactly_one_parameter(self):
        with pytest.raises(InvalidParameterError):
            mean_stationary_mu(3)
        with pytest.raises(InvalidParameterError):
            mean_stationary_mu(3, beta=0.2, lam=4.0)

    def test_rejects_boundary_beta(self):
        with pytest.raises(InvalidParameterError):
            mean_stationary_mu(3, beta=0.0)

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(InvalidParameterError):
            mean_stationary_mu(3, lam=-1.0)
