"""Classic population protocols as end-to-end checks of both simulators.

Each protocol is a small inline transition table.  The agent-level
``Simulator`` and the count-level ``simulate_protocol_counts`` must keep
each protocol's conservation law, reach its known outcome, and — since
both draw uniformly random ordered pairs — take the expected number of
interactions that the uniform scheduler implies.
"""

import numpy as np
import pytest

from repro.population.protocol import TransitionFunctionProtocol
from repro.population.simulator import Simulator, simulate_protocol_counts

PATHS = ("agent", "count")

LEADER, FOLLOWER = 0, 1
SUSCEPTIBLE, INFORMED = 0, 1
X, Y, BLANK = 0, 1, 2
STRONG_A, STRONG_B, WEAK_A, WEAK_B = 0, 1, 2, 3


def leader_election():
    return TransitionFunctionProtocol(
        n_states=2,
        fn=lambda u, v: (u, FOLLOWER) if u == v == LEADER else (u, v))


def rumor_spreading():
    # Pull: a susceptible initiator learns from an informed responder.
    return TransitionFunctionProtocol(
        n_states=2,
        fn=lambda u, v: (INFORMED, v) if (u, v) == (SUSCEPTIBLE, INFORMED)
        else (u, v))


APPROXIMATE_MAJORITY = {(X, Y): (X, BLANK), (Y, X): (Y, BLANK),
                        (X, BLANK): (X, X), (Y, BLANK): (Y, Y)}


def approximate_majority():
    return TransitionFunctionProtocol(
        n_states=3, fn=lambda u, v: APPROXIMATE_MAJORITY.get((u, v), (u, v)))


EXACT_MAJORITY = {
    (STRONG_A, STRONG_B): (WEAK_A, WEAK_B),
    (STRONG_B, STRONG_A): (WEAK_B, WEAK_A),
    (STRONG_A, WEAK_B): (STRONG_A, WEAK_A),
    (WEAK_B, STRONG_A): (WEAK_A, STRONG_A),
    (STRONG_B, WEAK_A): (STRONG_B, WEAK_B),
    (WEAK_A, STRONG_B): (WEAK_B, STRONG_B),
}


def exact_majority():
    return TransitionFunctionProtocol(
        n_states=4, fn=lambda u, v: EXACT_MAJORITY.get((u, v), (u, v)),
        output_fn=lambda s: 0 if s in (STRONG_A, WEAK_A) else 1)


def averaging(max_value: int):
    # The initiator takes the ceiling of the mean, the responder the floor.
    return TransitionFunctionProtocol(
        n_states=max_value + 1,
        fn=lambda u, v: ((u + v + 1) // 2, (u + v) // 2))


def states_from_counts(counts) -> np.ndarray:
    return np.repeat(np.arange(len(counts)), counts)


def run(path, protocol, counts, max_steps, seed, stop_when=None,
        check_stop_every=1, observe_every=None):
    """One run on ``path``; returns the engine-level result."""
    if path == "agent":
        sim = Simulator(protocol, states_from_counts(counts), seed=seed)
        return sim.run(max_steps, stop_when=stop_when,
                       check_stop_every=check_stop_every,
                       observe_every=observe_every)
    return simulate_protocol_counts(protocol, counts, max_steps, seed=seed,
                                    stop_when=stop_when,
                                    check_stop_every=check_stop_every,
                                    observe_every=observe_every)


def observed_counts(result) -> np.ndarray:
    return np.array([counts for _, counts in result.observations])


@pytest.mark.parametrize("path", PATHS)
class TestApproximateMajority:
    def test_converges_to_clear_majority(self, path, rng):
        n = 120
        result = run(path, approximate_majority(), [90, 30, 0], 80 * n, rng,
                     stop_when=lambda c: c[X] == n or c[Y] == n,
                     check_stop_every=50)
        assert result.converged
        assert result.counts[X] == n


@pytest.mark.parametrize("path", PATHS)
class TestExactMajority:
    def test_strong_difference_invariant(self, path, rng):
        result = run(path, exact_majority(), [35, 25, 0, 0], 5000, rng,
                     observe_every=250)
        history = observed_counts(result)
        assert len(history) > 10
        assert np.all(history[:, STRONG_A] - history[:, STRONG_B] == 10)
        assert np.all(history.sum(axis=1) == 60)

    @pytest.mark.parametrize("a_count, expected", [(40, 0), (20, 1)])
    def test_exact_majority_correct(self, path, rng, a_count, expected):
        n = 60
        sides = ([STRONG_A, WEAK_A], [STRONG_B, WEAK_B])
        winners, losers = sides[expected], sides[1 - expected]
        result = run(path, exact_majority(), [a_count, n - a_count, 0, 0],
                     400 * n, rng,
                     stop_when=lambda c: c[losers].sum() == 0,
                     check_stop_every=100)
        assert result.converged
        assert result.counts[winners].sum() == n


@pytest.mark.parametrize("path", PATHS)
class TestLeaderElection:
    def test_exactly_one_leader_survives(self, path, rng):
        n = 40
        result = run(path, leader_election(), [n, 0], 100 * n * n, rng,
                     stop_when=lambda c: c[LEADER] == 1,
                     check_stop_every=100)
        assert result.converged
        assert result.counts[LEADER] == 1

    def test_leader_count_never_increases(self, path, rng):
        result = run(path, leader_election(), [20, 0], 1500, rng,
                     observe_every=50)
        leaders = observed_counts(result)[:, LEADER]
        assert leaders[0] == 20
        assert np.all(np.diff(leaders) <= 0)
        assert leaders[-1] >= 1

    def test_expected_interactions_formula(self, path, rng):
        """Mean convergence time matches (n-1)^2 exactly (within CI)."""
        n = 12
        times = [run(path, leader_election(), [n, 0], 80 * n * n, rng,
                     stop_when=lambda c: c[LEADER] == 1).steps
                 for _ in range(120)]
        assert np.mean(times) == pytest.approx((n - 1) ** 2, rel=0.2)


def rumor_expected_interactions(n: int) -> float:
    # With i informed, an interaction informs someone w.p. (n-i)i/(n(n-1)).
    return sum(n * (n - 1) / (i * (n - i)) for i in range(1, n))


@pytest.mark.parametrize("path", PATHS)
class TestRumorSpreading:
    def test_everyone_informed(self, path, rng):
        n = 80
        result = run(path, rumor_spreading(), [n - 1, 1], 200 * n, rng,
                     stop_when=lambda c: c[INFORMED] == n,
                     check_stop_every=20)
        assert result.converged

    def test_informed_count_monotone(self, path, rng):
        result = run(path, rumor_spreading(), [29, 1], 600, rng,
                     observe_every=30)
        informed = observed_counts(result)[:, INFORMED]
        assert np.all(np.diff(informed) >= 0)
        assert informed[-1] > informed[0]

    def test_expected_interactions_scales_n_log_n(self, path, rng):
        n = 50
        times = [run(path, rumor_spreading(), [n - 1, 1], 400 * n, rng,
                     stop_when=lambda c: c[INFORMED] == n).steps
                 for _ in range(60)]
        assert np.mean(times) == pytest.approx(
            rumor_expected_interactions(n), rel=0.25)


@pytest.mark.parametrize("path", PATHS)
class TestAveraging:
    def test_sum_conserved(self, path, rng):
        values = [16, 0, 0, 0, 8, 8, 4, 12]
        counts = np.bincount(values, minlength=17)
        result = run(path, averaging(16), counts, 5000, rng, observe_every=500)
        assert len(result.observations) == 11
        for _, snapshot in result.observations:
            assert snapshot @ np.arange(17) == sum(values)

    def test_balances(self, path, rng):
        counts = np.bincount([16, 0] * 10, minlength=17)

        def balanced(c):
            present = np.nonzero(c)[0]
            return present[-1] - present[0] <= 1

        result = run(path, averaging(16), counts, 40_000, rng,
                     stop_when=balanced, check_stop_every=100)
        assert result.converged
        assert result.counts[8] == 20
