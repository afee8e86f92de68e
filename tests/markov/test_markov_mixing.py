"""Tests for distance-to-stationarity and mixing-time computation."""

import numpy as np
import pytest

from repro.markov.chain import FiniteMarkovChain
from repro.markov.distributions import binomial_pmf
from repro.markov.ehrenfest import EhrenfestProcess
from repro.markov.mixing import (
    distance_to_stationarity_curve,
    exact_mixing_time,
    mixing_time_from_curve,
    projected_marginal_tv,
)
from repro.utils import ConvergenceError, InvalidParameterError


@pytest.fixture
def lazy_flip():
    """Two-state lazy chain: stays w.p. 3/4, flips w.p. 1/4."""
    return FiniteMarkovChain(np.array([[0.75, 0.25], [0.25, 0.75]]))


class TestDistanceCurve:
    def test_starts_at_worst_case(self, lazy_flip):
        curve = distance_to_stationarity_curve(lazy_flip, t_max=10)
        assert curve[0] == pytest.approx(0.5)

    def test_monotone_nonincreasing(self, lazy_flip):
        curve = distance_to_stationarity_curve(lazy_flip, t_max=30)
        assert (np.diff(curve) <= 1e-12).all()

    def test_known_geometric_decay(self, lazy_flip):
        # d(t) = (1/2) * (1/2)^t for this chain (eigenvalue 1/2).
        curve = distance_to_stationarity_curve(lazy_flip, t_max=8)
        expected = 0.5 * 0.5 ** np.arange(9)
        assert np.allclose(curve, expected)

    def test_subset_of_states(self, lazy_flip):
        full = distance_to_stationarity_curve(lazy_flip, t_max=5)
        partial = distance_to_stationarity_curve(lazy_flip, t_max=5,
                                                 from_states=[0])
        assert np.allclose(full, partial)  # symmetric chain

    def test_empty_from_states_raises(self, lazy_flip):
        with pytest.raises(InvalidParameterError):
            distance_to_stationarity_curve(lazy_flip, t_max=5, from_states=[])

    def test_bad_state_index_raises(self, lazy_flip):
        with pytest.raises(InvalidParameterError):
            distance_to_stationarity_curve(lazy_flip, t_max=5,
                                           from_states=[9])


class TestMixingTime:
    def test_from_curve(self):
        curve = np.array([0.5, 0.3, 0.24, 0.1])
        assert mixing_time_from_curve(curve) == 2

    def test_from_curve_custom_threshold(self):
        curve = np.array([0.5, 0.3, 0.24, 0.1])
        assert mixing_time_from_curve(curve, threshold=0.1) == 3

    def test_never_below_raises(self):
        with pytest.raises(ConvergenceError):
            mixing_time_from_curve(np.array([0.9, 0.8, 0.7]))

    def test_exact_matches_curve(self, lazy_flip):
        curve = distance_to_stationarity_curve(lazy_flip, t_max=20)
        expected = mixing_time_from_curve(curve)
        assert exact_mixing_time(lazy_flip, t_max=20) == expected

    def test_exact_zero_when_already_mixed(self):
        uniform = FiniteMarkovChain(np.full((3, 3), 1 / 3))
        assert exact_mixing_time(uniform) <= 1

    def test_budget_exhaustion_raises(self, lazy_flip):
        with pytest.raises(ConvergenceError):
            exact_mixing_time(lazy_flip, threshold=1e-9, t_max=2)

    def test_ehrenfest_tmix_between_paper_bounds(self):
        process = EhrenfestProcess(k=3, a=0.4, b=0.2, m=8)
        chain = process.exact_chain()
        pi = process.stationary_distribution()
        tmix = exact_mixing_time(chain, pi=pi, t_max=50_000)
        assert process.mixing_time_lower_bound() <= tmix
        assert tmix <= process.mixing_time_upper_bound()


class TestProjectedMarginal:
    def test_stationary_samples_have_small_marginal_tv(self, rng):
        process = EhrenfestProcess(k=3, a=0.4, b=0.2, m=12)
        samples = process.sample_stationary(seed=rng, size=4000)
        weights = process.stationary_weights()
        for j in range(3):
            marginal = np.array([binomial_pmf(i, 12, weights[j])
                                 for i in range(13)])
            tv = projected_marginal_tv(samples, j, 12, marginal)
            assert tv < 0.05

    def test_wrong_marginal_length_raises(self, rng):
        process = EhrenfestProcess(k=2, a=0.4, b=0.2, m=5)
        samples = process.sample_stationary(seed=rng, size=10)
        with pytest.raises(InvalidParameterError):
            projected_marginal_tv(samples, 0, 5, np.ones(3) / 3)

    def test_requires_2d_samples(self):
        with pytest.raises(InvalidParameterError):
            projected_marginal_tv(np.array([1, 2, 3]), 0, 5, np.ones(6) / 6)
