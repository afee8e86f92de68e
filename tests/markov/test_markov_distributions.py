"""Tests for multinomial helpers and total variation."""

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.markov.distributions import (
    binomial_pmf,
    empirical_distribution,
    log_multinomial_coefficient,
    multinomial_pmf,
    multinomial_pmf_over_space,
    total_variation,
)
from repro.markov.state_space import CompositionSpace
from repro.utils import InvalidParameterError


class TestLogMultinomialCoefficient:
    def test_simple(self):
        assert log_multinomial_coefficient((2, 1)) == pytest.approx(math.log(3))

    def test_all_in_one_cell(self):
        assert log_multinomial_coefficient((5, 0, 0)) == pytest.approx(0.0)


class TestMultinomialPmf:
    def test_matches_scipy(self):
        p = [0.2, 0.3, 0.5]
        for x in [(1, 2, 3), (0, 0, 6), (2, 2, 2)]:
            expected = scipy_stats.multinomial(6, p).pmf(x)
            assert multinomial_pmf(x, 6, p) == pytest.approx(expected)

    def test_wrong_total_gives_zero(self):
        assert multinomial_pmf((1, 1), 3, [0.5, 0.5]) == 0.0

    def test_negative_count_gives_zero(self):
        assert multinomial_pmf((-1, 4), 3, [0.5, 0.5]) == 0.0

    def test_zero_probability_cell(self):
        assert multinomial_pmf((1, 2), 3, [0.0, 1.0]) == 0.0
        assert multinomial_pmf((0, 3), 3, [0.0, 1.0]) == pytest.approx(1.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(InvalidParameterError):
            multinomial_pmf((1, 2, 3), 6, [0.5, 0.5])

    def test_binomial_special_case(self):
        assert binomial_pmf(2, 5, 0.3) == pytest.approx(
            scipy_stats.binom(5, 0.3).pmf(2))

    def test_binomial_out_of_range(self):
        assert binomial_pmf(-1, 5, 0.3) == 0.0
        assert binomial_pmf(6, 5, 0.3) == 0.0


class TestPmfOverSpace:
    def test_sums_to_one(self):
        space = CompositionSpace(6, 3)
        pmf = multinomial_pmf_over_space(space, [0.2, 0.3, 0.5])
        assert pmf.sum() == pytest.approx(1.0)

    def test_matches_pointwise(self):
        space = CompositionSpace(4, 3)
        p = [0.1, 0.6, 0.3]
        pmf = multinomial_pmf_over_space(space, p)
        for i, x in enumerate(space):
            assert pmf[i] == pytest.approx(multinomial_pmf(x, 4, p))

    def test_zero_probability_cells(self):
        space = CompositionSpace(3, 2)
        pmf = multinomial_pmf_over_space(space, [1.0, 0.0])
        assert pmf[space.index((3, 0))] == pytest.approx(1.0)
        assert pmf.sum() == pytest.approx(1.0)

    def test_length_mismatch_raises(self):
        space = CompositionSpace(3, 2)
        with pytest.raises(InvalidParameterError):
            multinomial_pmf_over_space(space, [0.2, 0.3, 0.5])


class TestMultinomialMoments:
    """The PMF over the composition space has the multinomial's moments:
    mean ``m·p`` and covariance ``m·(diag(p) − p pᵀ)``."""

    @pytest.mark.parametrize("m, p", [(5, [0.5, 0.5]),
                                      (6, [0.2, 0.3, 0.5]),
                                      (4, [0.1, 0.2, 0.3, 0.4])])
    def test_mean_and_covariance(self, m, p):
        space = CompositionSpace(m, len(p))
        pmf = multinomial_pmf_over_space(space, p)
        states = np.array(space.states, dtype=float)
        mean = pmf @ states
        centered = states - mean
        covariance = centered.T @ (pmf[:, None] * centered)
        p = np.array(p)
        assert np.allclose(mean, m * p)
        assert np.allclose(covariance, m * (np.diag(p) - np.outer(p, p)))


class TestTotalVariation:
    def test_identical_is_zero(self):
        assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_disjoint_is_one(self):
        assert total_variation([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_symmetry(self):
        p, q = [0.2, 0.8], [0.6, 0.4]
        assert total_variation(p, q) == total_variation(q, p)

    def test_triangle_inequality(self):
        p, q, r = [0.2, 0.8], [0.5, 0.5], [0.9, 0.1]
        assert total_variation(p, r) <= (total_variation(p, q)
                                         + total_variation(q, r) + 1e-15)

    def test_known_value(self):
        assert total_variation([0.2, 0.8], [0.4, 0.6]) == pytest.approx(0.2)

    def test_shape_mismatch_raises(self):
        with pytest.raises(InvalidParameterError):
            total_variation([0.5, 0.5], [1.0])


class TestEmpiricalDistribution:
    def test_counts(self):
        out = empirical_distribution([0, 0, 1, 2], 3)
        assert np.allclose(out, [0.5, 0.25, 0.25])

    def test_out_of_range_raises(self):
        with pytest.raises(InvalidParameterError):
            empirical_distribution([0, 3], 3)

    def test_empty_raises(self):
        with pytest.raises(InvalidParameterError):
            empirical_distribution([], 3)
