"""Tests for Theorem 2.7 parameters and Proposition 2.8 / Corollary C.1."""

import numpy as np
import pytest

from repro.core.generosity import (
    average_stationary_generosity,
    generosity_closed_form,
    generosity_lower_bound,
)
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import PopulationShares
from repro.core.stationary import (
    igt_ehrenfest_parameters,
    igt_ehrenfest_process,
    igt_lambda,
    igt_stationary_weights,
)
from repro.markov.distributions import multinomial_pmf_over_space
from repro.utils import InvalidParameterError


class TestIgtLambda:
    def test_value(self):
        assert igt_lambda(0.2) == pytest.approx(4.0)

    def test_beta_half_gives_one(self):
        assert igt_lambda(0.5) == pytest.approx(1.0)

    def test_rejects_boundary(self):
        with pytest.raises(InvalidParameterError):
            igt_lambda(0.0)
        with pytest.raises(InvalidParameterError):
            igt_lambda(1.0)


class TestStationaryWeights:
    def test_sum_to_one(self):
        assert igt_stationary_weights(5, 0.3).sum() == pytest.approx(1.0)

    def test_geometric_in_lambda(self):
        weights = igt_stationary_weights(4, 0.2)
        ratios = weights[1:] / weights[:-1]
        assert np.allclose(ratios, 4.0)

    def test_uniform_at_beta_half(self):
        assert np.allclose(igt_stationary_weights(4, 0.5), 0.25)

    def test_concentrates_high_for_small_beta(self):
        weights = igt_stationary_weights(6, 0.05)
        assert weights[-1] > 0.9

    def test_concentrates_low_for_large_beta(self):
        weights = igt_stationary_weights(6, 0.95)
        assert weights[0] > 0.9

    def test_mirror_symmetry(self):
        """Swapping beta -> 1-beta reverses the weight vector."""
        forward = igt_stationary_weights(5, 0.2)
        backward = igt_stationary_weights(5, 0.8)
        assert np.allclose(forward, backward[::-1])


class TestEhrenfestParameters:
    def test_values(self):
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        a, b, m = igt_ehrenfest_parameters(shares, 100)
        assert a == pytest.approx(0.5 * 0.8)
        assert b == pytest.approx(0.5 * 0.2)
        assert m == 50

    def test_lambda_consistency(self):
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        a, b, _ = igt_ehrenfest_parameters(shares, 100)
        assert a / b == pytest.approx(shares.lam)

    def test_rejects_beta_zero(self):
        shares = PopulationShares(alpha=0.5, beta=0.0, gamma=0.5)
        with pytest.raises(InvalidParameterError):
            igt_ehrenfest_parameters(shares, 100)

    def test_process_construction(self):
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        process = igt_ehrenfest_process(shares, 100,
                                        GenerosityGrid(k=4, g_max=0.5))
        assert process.k == 4
        assert process.m == 50


class TestProposition28:
    @pytest.mark.parametrize("k", [2, 3, 5, 10, 25])
    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.45, 0.6, 0.9])
    def test_closed_form_equals_direct(self, k, beta):
        g_max = 0.7
        assert generosity_closed_form(k, beta, g_max) == pytest.approx(
            average_stationary_generosity(k, beta, g_max), abs=1e-12)

    def test_beta_half_special_case(self):
        assert generosity_closed_form(7, 0.5, 0.8) == pytest.approx(0.4)
        assert average_stationary_generosity(7, 0.5, 0.8) == pytest.approx(0.4)

    def test_k_two_by_hand(self):
        """k=2: eg = g_max * p_2 = g_max * lambda/(1+lambda)."""
        beta, g_max = 0.2, 0.6
        lam = 4.0
        assert average_stationary_generosity(2, beta, g_max) == \
            pytest.approx(g_max * lam / (1 + lam))

    def test_monotone_decreasing_in_beta(self):
        values = [average_stationary_generosity(5, beta, 0.5)
                  for beta in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(values[i] > values[i + 1] for i in range(4))

    def test_approaches_g_max_for_small_beta(self):
        assert average_stationary_generosity(40, 0.05, 0.9) == \
            pytest.approx(0.9, abs=0.002)

    def test_scales_linearly_with_g_max(self):
        ratio = (average_stationary_generosity(5, 0.2, 0.8)
                 / average_stationary_generosity(5, 0.2, 0.4))
        assert ratio == pytest.approx(2.0)

    def test_near_half_beta_numerically_stable(self):
        """Direct sum is smooth through beta = 1/2."""
        left = average_stationary_generosity(6, 0.4999999, 0.5)
        right = average_stationary_generosity(6, 0.5000001, 0.5)
        assert left == pytest.approx(right, abs=1e-5)
        assert left == pytest.approx(0.25, abs=1e-5)


class TestCorollaryC1:
    @pytest.mark.parametrize("beta", [0.05, 0.1, 0.2, 0.3, 0.45])
    @pytest.mark.parametrize("k", [2, 4, 8, 32])
    def test_bound_holds(self, beta, k):
        g_max = 0.8
        assert average_stationary_generosity(k, beta, g_max) >= \
            generosity_lower_bound(k, beta, g_max) - 1e-12

    def test_requires_lambda_above_one(self):
        with pytest.raises(InvalidParameterError):
            generosity_lower_bound(4, 0.5, 0.8)
        with pytest.raises(InvalidParameterError):
            generosity_lower_bound(4, 0.7, 0.8)

    def test_bound_tightens_with_k(self):
        bounds = [generosity_lower_bound(k, 0.2, 0.8) for k in (2, 4, 8, 16)]
        assert all(bounds[i] < bounds[i + 1] for i in range(3))

    def test_deficit_rate(self):
        """g_max - eg = O(1/k): deficit * k stays bounded."""
        g_max = 0.8
        products = [(g_max - average_stationary_generosity(k, 0.2, g_max)) * k
                    for k in (4, 8, 16, 32, 64)]
        assert max(products) < 2 * g_max


class TestTheorem27CountLaw:
    @pytest.mark.parametrize("k, beta", [(2, 0.2), (3, 0.25), (4, 0.4)])
    def test_exact_chain_solves_to_the_multinomial(self, k, beta):
        """Solving the embedded count chain gives Multinomial(m, p) with
        p the k-IGT stationary weights, and E[π_j] = m·p_j."""
        shares = PopulationShares(alpha=0.5 - beta, beta=beta, gamma=0.5)
        process = igt_ehrenfest_process(shares, 16,
                                        GenerosityGrid(k=k, g_max=0.6))
        weights = igt_stationary_weights(k, beta)
        solved = process.exact_chain().stationary_distribution()
        assert np.allclose(
            solved, multinomial_pmf_over_space(process.space(), weights),
            atol=1e-10)
        assert np.allclose(process.mean_stationary_counts(),
                           process.m * weights)


class TestPropositionD2:
    @pytest.mark.parametrize("beta", [0.1, 1 / 3])
    @pytest.mark.parametrize("k", [2, 4, 8, 16, 32])
    def test_stationary_generosity_variance_bound(self, k, beta):
        """Var_{g~µ}[g] <= 16/(k-1)^2 for the stationary mixture when
        λ >= 2 (β <= 1/3) and ĝ <= 1: the Taylor remainder of the
        Theorem 2.9 proof is O(1/k²)."""
        grid = GenerosityGrid(k=k, g_max=1.0)
        weights = igt_stationary_weights(k, beta)
        mean = weights @ grid.values
        variance = weights @ (grid.values - mean) ** 2
        assert variance <= 16.0 / (k - 1) ** 2
