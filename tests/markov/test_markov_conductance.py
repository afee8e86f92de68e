"""Exact mixing times against the bottleneck-ratio lower bound.

For any set ``S`` with ``π(S) <= 1/2`` the bottleneck ratio
``Φ(S) = Q(S, Sᶜ)/π(S)`` gives ``t_mix >= 1/(4Φ(S))`` (Levin–Peres
Thm 7.4).  ``exact_mixing_time`` and ``stationary_distribution`` must
respect it on chains with and without a genuine bottleneck.
"""

import numpy as np
import pytest

from repro.markov.chain import FiniteMarkovChain
from repro.markov.ehrenfest import EhrenfestProcess
from repro.markov.mixing import exact_mixing_time


def barbell(eps: float) -> FiniteMarkovChain:
    """Two well-connected pairs joined by a weak link of weight ``eps``."""
    return FiniteMarkovChain(np.array([
        [0.5 - eps, 0.5, eps, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [eps, 0.0, 0.5 - eps, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ]))


def bottleneck_ratio(chain: FiniteMarkovChain, subset, pi) -> float:
    inside = np.zeros(chain.n_states, dtype=bool)
    inside[list(subset)] = True
    P = chain.dense()
    flow = float(pi[inside] @ P[np.ix_(inside, ~inside)].sum(axis=1))
    return flow / float(pi[inside].sum())


def ehrenfest_level_cut(process: EhrenfestProcess, level: int) -> list:
    """States whose top urn holds at most ``level`` balls."""
    return [i for i, state in enumerate(process.space())
            if state[-1] <= level]


def best_level_cut(process: EhrenfestProcess, pi) -> list:
    cuts = [ehrenfest_level_cut(process, level) for level in range(process.m)]
    cuts = [cut for cut in cuts if pi[cut].sum() <= 0.5]
    chain = process.exact_chain()
    return min(cuts, key=lambda cut: bottleneck_ratio(chain, cut, pi))


class TestBottleneckBound:
    def test_two_state_ratio(self):
        chain = FiniteMarkovChain(np.array([[0.9, 0.1], [0.1, 0.9]]))
        pi = chain.stationary_distribution()
        assert bottleneck_ratio(chain, [0], pi) == pytest.approx(0.1)
        assert exact_mixing_time(chain) >= 1 / (4 * 0.1) - 1

    @pytest.mark.parametrize("eps", [0.01, 0.001])
    def test_barbell_bound_valid(self, eps):
        chain = barbell(eps)
        pi = chain.stationary_distribution()
        ratio = bottleneck_ratio(chain, [0, 1], pi)
        assert ratio == pytest.approx(eps / 2)
        assert exact_mixing_time(chain) >= 1 / (4 * ratio) - 1

    def test_barbell_bound_dominates_diameter(self):
        """On a genuine bottleneck the cut bound beats diameter/2 = 1.5."""
        chain = barbell(0.001)
        pi = chain.stationary_distribution()
        bound = 1 / (4 * bottleneck_ratio(chain, [0, 1], pi))
        assert bound > 1.5
        assert exact_mixing_time(chain) > 100

    @pytest.mark.parametrize("k, a, b, m", [(2, 0.5, 0.5, 10),
                                            (2, 0.4, 0.2, 10),
                                            (3, 0.3, 0.2, 6)])
    def test_ehrenfest_level_cut_bound_valid(self, k, a, b, m):
        process = EhrenfestProcess(k=k, a=a, b=b, m=m)
        pi = process.stationary_distribution()
        cut = best_level_cut(process, pi)
        bound = 1 / (4 * bottleneck_ratio(process.exact_chain(), cut, pi))
        t_mix = exact_mixing_time(process.exact_chain(), pi=pi,
                                  t_max=200_000)
        assert t_mix >= bound - 1

    def test_ehrenfest_has_no_bottleneck(self):
        """The binomial bulk is well connected, so the cut bound is valid
        but weaker than the paper's diameter bound km/2."""
        process = EhrenfestProcess(k=2, a=0.5, b=0.5, m=30)
        pi = process.stationary_distribution()
        cut = best_level_cut(process, pi)
        bound = 1 / (4 * bottleneck_ratio(process.exact_chain(), cut, pi))
        assert 0 < bound < process.mixing_time_lower_bound()
