"""Tests for biased walks and the reflected walk."""

import numpy as np
import pytest

from repro.markov.ehrenfest import EhrenfestProcess
from repro.markov.random_walks import (
    BiasedWalkSpec,
    expected_absorption_time,
    paper_absorption_bound,
    simulate_absorption_time,
    symmetric_interval_win_probability,
)
from repro.utils import InvalidParameterError


class TestBiasedWalkSpec:
    def test_valid(self):
        spec = BiasedWalkSpec(0.4, 0.2)
        assert spec.lam == pytest.approx(2.0)
        assert spec.drift == pytest.approx(0.2)

    def test_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            BiasedWalkSpec(0.0, 0.2)

    def test_rejects_sum_above_one(self):
        with pytest.raises(InvalidParameterError):
            BiasedWalkSpec(0.6, 0.5)


class TestWinProbability:
    def test_unbiased_is_half(self):
        assert symmetric_interval_win_probability(5, 0.3, 0.3) == 0.5

    def test_formula(self):
        lam = 0.4 / 0.2
        k = 4
        expected = (lam**k - 1) / (lam**k - lam**(-k))
        assert symmetric_interval_win_probability(4, 0.4, 0.2) == \
            pytest.approx(expected)

    def test_one_step_interval(self):
        """At k = 1 the first move decides: up w.p. a/(a + b)."""
        assert symmetric_interval_win_probability(1, 0.3, 0.1) == \
            pytest.approx(0.3 / 0.4)

    def test_strong_upward_bias_near_one(self):
        assert symmetric_interval_win_probability(8, 0.6, 0.05) > 0.99

    def test_symmetry_under_swap(self):
        p_up = symmetric_interval_win_probability(5, 0.4, 0.2)
        p_down = symmetric_interval_win_probability(5, 0.2, 0.4)
        assert p_up + p_down == pytest.approx(1.0)

    def test_simulation_agrees(self, rng):
        k, a, b = 4, 0.4, 0.2
        wins = sum(simulate_absorption_time(k, a, b, seed=rng)[1] == k
                   for _ in range(600))
        theory = symmetric_interval_win_probability(k, a, b)
        assert wins / 600 == pytest.approx(theory, abs=0.07)


class TestAbsorptionTime:
    def test_unbiased_includes_laziness(self):
        assert expected_absorption_time(3, 0.25, 0.25) == pytest.approx(
            9 / 0.5)

    def test_nonlazy_unbiased_is_k_squared(self):
        assert expected_absorption_time(4, 0.5, 0.5) == pytest.approx(16.0)

    def test_biased_formula(self):
        k, a, b = 3, 0.4, 0.2
        p_plus = symmetric_interval_win_probability(k, a, b)
        expected = k * (2 * p_plus - 1) / (a - b)
        assert expected_absorption_time(k, a, b) == pytest.approx(expected)

    def test_continuity_at_zero_bias(self):
        """Biased formula converges to the unbiased one as a -> b."""
        near = expected_absorption_time(5, 0.3 + 1e-7, 0.3 - 1e-7)
        exact = expected_absorption_time(5, 0.3, 0.3)
        assert near == pytest.approx(exact, rel=1e-3)

    def test_simulation_agrees_biased(self, rng):
        k, a, b = 4, 0.4, 0.2
        times = [simulate_absorption_time(k, a, b, seed=rng)[0]
                 for _ in range(600)]
        assert np.mean(times) == pytest.approx(
            expected_absorption_time(k, a, b), rel=0.15)

    def test_simulation_agrees_unbiased(self, rng):
        k, a, b = 3, 0.3, 0.3
        times = [simulate_absorption_time(k, a, b, seed=rng)[0]
                 for _ in range(600)]
        assert np.mean(times) == pytest.approx(
            expected_absorption_time(k, a, b), rel=0.15)

    def test_paper_bound_dominates_drift_term(self):
        # For a + b = 1 the paper bound min{k/|a-b|, k^2} dominates E[tau].
        for k, a, b in [(3, 0.7, 0.3), (5, 0.9, 0.1), (4, 0.5, 0.5)]:
            assert expected_absorption_time(k, a, b) \
                <= paper_absorption_bound(k, a, b) + 1e-9

    def test_paper_bound_branches(self):
        assert paper_absorption_bound(10, 0.6, 0.1) == pytest.approx(20.0)
        assert paper_absorption_bound(3, 0.51, 0.49) == pytest.approx(9.0)
        assert paper_absorption_bound(3, 0.4, 0.4) == pytest.approx(9.0)


def one_ball(k, a, b):
    """The ``m = 1`` process and the urn (0-based) of each exact-chain state.

    One ball's position is the lazy reflected walk on ``{1..k}`` that a
    single coupled coordinate follows.
    """
    process = EhrenfestProcess(k=k, a=a, b=b, m=1)
    return process, [state.index(1) for state in process.space().states]


class TestReflectedWalk:
    """The reflected walk on ``{1..k}`` is the one-ball Ehrenfest process."""

    def test_stationary_matches_birth_death_solve(self):
        process, urns = one_ball(5, 0.4, 0.2)
        solved = process.exact_chain().stationary_distribution()
        assert np.allclose(process.stationary_weights()[urns], solved,
                           atol=1e-10)

    def test_stationary_is_per_ball_marginal_of_theorem_2_4(self):
        """One ball's weights are each ball's marginal at any ``m``."""
        many = EhrenfestProcess(k=4, a=0.4, b=0.2, m=7)
        solved = many.exact_chain().stationary_distribution()
        marginal = solved @ np.array(many.space().states) / 7
        process, _ = one_ball(4, 0.4, 0.2)
        assert np.allclose(process.stationary_weights(), marginal,
                           atol=1e-10)

    def test_detailed_balance(self):
        process, urns = one_ball(4, 0.35, 0.15)
        assert process.exact_chain().satisfies_detailed_balance(
            process.stationary_weights()[urns], atol=1e-12)

    def test_kernel_rows(self):
        process, urns = one_ball(3, 0.3, 0.2)
        P = process.transition_matrix(sparse=False)
        assert np.allclose(P.sum(axis=1), 1.0)
        bottom, top = urns.index(0), urns.index(2)
        assert P[bottom, bottom] == pytest.approx(0.7)  # no down-move
        assert P[top, top] == pytest.approx(0.8)  # no up-move

    def test_simulate_stays_in_range(self, rng):
        process, _ = one_ball(4, 0.4, 0.2)
        path = process.simulate_counts((0, 1, 0, 0), 500, seed=rng,
                                       observe_every=1)
        assert path.shape == (501, 4)
        assert path.min() >= 0 and (path.sum(axis=1) == 1).all()

    def test_simulate_occupancy_matches_stationary(self, rng):
        process, _ = one_ball(3, 0.4, 0.2)
        path = process.simulate_counts((1, 0, 0), 60_000, seed=rng,
                                       observe_every=1)
        occupancy = path[1000:].mean(axis=0)
        assert np.allclose(occupancy, process.stationary_weights(),
                           atol=0.02)

    def test_bad_start_raises(self, rng):
        process, _ = one_ball(3, 0.4, 0.2)
        with pytest.raises(InvalidParameterError):
            process.simulate_counts((0, 0, 0, 1), 10, seed=rng)
