"""Hitting, return and mixing times against independent oracles.

Sampled paths of ``FiniteMarkovChain`` must show the first-passage and
return times that the kernel implies (geometric sojourns, Kac's formula);
the random-walk closed forms of Proposition A.7 must solve the linear
hitting equations of the walk they describe; and ``exact_mixing_time``
must match the two-state closed form and sit inside the relaxation-time
bounds of every reversible chain the paper uses.
"""

import math

import numpy as np
import pytest

from repro.markov.chain import FiniteMarkovChain
from repro.markov.ehrenfest import EhrenfestProcess
from repro.markov.mixing import exact_mixing_time
from repro.markov.random_walks import (
    expected_absorption_time,
    symmetric_interval_win_probability,
)


@pytest.fixture
def two_state():
    return FiniteMarkovChain(np.array([[0.8, 0.2], [0.3, 0.7]]))


def interval_walk(size: int, a: float, b: float) -> np.ndarray:
    """Lazy walk on ``0..size-1`` absorbed at both ends."""
    P = np.zeros((size, size))
    P[0, 0] = P[-1, -1] = 1.0
    for i in range(1, size - 1):
        P[i, i + 1] = a
        P[i, i - 1] = b
        P[i, i] = 1 - a - b
    return P


def solve_hitting_times(P: np.ndarray, targets) -> np.ndarray:
    """``h = 0`` on targets, ``h = 1 + P h`` elsewhere."""
    n = P.shape[0]
    free = [i for i in range(n) if i not in set(targets)]
    h = np.zeros(n)
    system = np.eye(len(free)) - P[np.ix_(free, free)]
    h[free] = np.linalg.solve(system, np.ones(len(free)))
    return h


def solve_absorption_at_top(P: np.ndarray) -> np.ndarray:
    """Probability of absorbing at the last state rather than the first."""
    n = P.shape[0]
    free = list(range(1, n - 1))
    win = np.zeros(n)
    win[-1] = 1.0
    system = np.eye(len(free)) - P[np.ix_(free, free)]
    win[free] = np.linalg.solve(system, P[free, -1])
    return win


def run_lengths(path: np.ndarray, state: int) -> np.ndarray:
    """Lengths of the maximal runs of ``state`` that end inside the path."""
    inside = np.concatenate([[False], path == state, [False]]).astype(np.int8)
    edges = np.diff(inside)
    starts = np.nonzero(edges == 1)[0]
    ends = np.nonzero(edges == -1)[0]
    lengths = ends - starts
    return lengths[:-1] if ends[-1] == path.size else lengths


class TestSampledPassageTimes:
    def test_geometric_two_state(self, two_state, rng):
        # Each sojourn in state 0 is Geometric(0.2): mean 5.
        path = two_state.sample_path(0, 40_000, seed=rng)
        assert run_lengths(path, 0).mean() == pytest.approx(5.0, rel=0.1)

    def test_kac_formula(self, two_state, rng):
        pi = two_state.stationary_distribution()
        path = two_state.sample_path(0, 40_000, seed=rng)
        gaps = np.diff(np.nonzero(path == 0)[0])
        assert gaps.mean() == pytest.approx(1 / pi[0], rel=0.1)

    def test_kac_formula_on_ehrenfest_corner(self, rng):
        """The mean return time to the corner ``(m, 0)`` of a 2-urn chain
        is the reciprocal of its binomial stationary mass."""
        process = EhrenfestProcess(k=2, a=0.2, b=0.4, m=3)
        space = process.space()
        chain = process.exact_chain(space)
        pi = chain.stationary_distribution()
        corner = space.index((3, 0))
        path = chain.sample_path(corner, 60_000, seed=rng)
        gaps = np.diff(np.nonzero(path == corner)[0])
        assert gaps.mean() == pytest.approx(1 / pi[corner], rel=0.1)


class TestAbsorptionLinearSolve:
    @pytest.mark.parametrize("k, a, b", [(4, 0.4, 0.2), (3, 0.2, 0.45),
                                         (5, 0.3, 0.3), (2, 0.5, 0.5)])
    def test_biased_interval_matches_martingale_formula(self, k, a, b):
        """Hitting {-k, k} from 0 equals Proposition A.7's closed form."""
        P = interval_walk(2 * k + 1, a, b)
        h = solve_hitting_times(P, [0, 2 * k])
        assert h[k] == pytest.approx(expected_absorption_time(k, a, b))

    @pytest.mark.parametrize("k, a, b", [(4, 0.4, 0.2), (3, 0.1, 0.3),
                                         (6, 0.25, 0.25)])
    def test_interval_win_probability_matches_solve(self, k, a, b):
        win = solve_absorption_at_top(interval_walk(2 * k + 1, a, b))
        assert win[k] == pytest.approx(
            symmetric_interval_win_probability(k, a, b))

    def test_unbiased_duration_is_quadratic(self):
        """Unbiased non-lazy gambler's ruin on {0..N}: E_i[tau] = i(N - i)."""
        N = 8
        h = solve_hitting_times(interval_walk(N + 1, 0.5, 0.5), [0, N])
        assert np.allclose(h, [i * (N - i) for i in range(N + 1)])


def absolute_spectral_gap(chain: FiniteMarkovChain) -> float:
    eigenvalues = np.sort(np.abs(np.linalg.eigvals(chain.dense())))
    return 1.0 - float(eigenvalues[-2])


def relaxation_bounds(chain: FiniteMarkovChain, eps: float):
    """Levin–Peres Thms 12.4/12.5 for a reversible chain."""
    t_rel = 1.0 / absolute_spectral_gap(chain)
    pi_min = float(chain.stationary_distribution().min())
    lower = (t_rel - 1.0) * math.log(1.0 / (2.0 * eps))
    upper = t_rel * math.log(1.0 / (eps * pi_min))
    return lower, upper


class TestMixingTimeOracles:
    @pytest.mark.parametrize("p, q", [(0.2, 0.3), (0.05, 0.1), (0.9, 0.6),
                                      (0.5, 0.5)])
    def test_two_state_closed_form(self, p, q):
        """``d(t) = max(p, q)/(p + q) · |1 − p − q|^t`` exactly."""
        chain = FiniteMarkovChain(np.array([[1 - p, p], [q, 1 - q]]))
        distance = max(p, q) / (p + q)
        t = 0
        while distance * abs(1 - p - q) ** t > 0.25:
            t += 1
        assert exact_mixing_time(chain) == t

    @pytest.mark.parametrize("k, a, b, m", [(2, 0.4, 0.2, 6), (3, 0.3, 0.2, 3),
                                            (3, 0.25, 0.25, 4),
                                            (4, 0.2, 0.45, 2)])
    def test_ehrenfest_within_relaxation_bounds(self, k, a, b, m):
        chain = EhrenfestProcess(k=k, a=a, b=b, m=m).exact_chain()
        chain = FiniteMarkovChain(chain.dense())
        lower, upper = relaxation_bounds(chain, 0.25)
        assert lower <= exact_mixing_time(chain) <= math.ceil(upper)

    @pytest.mark.parametrize("k, a, b", [(5, 0.3, 0.2), (8, 0.25, 0.25)])
    def test_reflected_walk_within_relaxation_bounds(self, k, a, b):
        """One ball of the Ehrenfest process is the reflected walk."""
        chain = EhrenfestProcess(k=k, a=a, b=b, m=1).exact_chain()
        chain = FiniteMarkovChain(chain.dense())
        lower, upper = relaxation_bounds(chain, 0.25)
        assert lower <= exact_mixing_time(chain) <= math.ceil(upper)

    def test_uniform_chain_mixes_in_one_step(self):
        chain = FiniteMarkovChain(np.full((5, 5), 0.2))
        assert absolute_spectral_gap(chain) == pytest.approx(1.0)
        assert exact_mixing_time(chain, threshold=1e-12) == 1
