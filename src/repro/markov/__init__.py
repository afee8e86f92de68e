"""Markov-chain substrate.

The chains the paper's analysis rests on, enumerated exactly: the
simplex-of-counts state space ``Delta_k^m``, generic finite Markov chains
with exact stationary and mixing analysis, the ``(k, a, b, m)``-Ehrenfest
process (Definition 2.3) with the one implementation of its stationary
weights (:func:`geometric_weights`, Theorem 2.4) and mixing bounds
(Theorem 2.5), the coordinate coupling of the mixing-time upper bound
(Appendix A.4.1), biased random walks with closed-form absorption times
(Proposition A.7), and cutoff profiles (Remark 2.6).  The
experiments and the engines' exactness tests compare against them.
"""

from repro.markov.chain import FiniteMarkovChain
from repro.markov.coupling import CoordinateCoupling, coupling_time_samples
from repro.markov.cutoff import CutoffProfile, cutoff_profile
from repro.markov.distributions import (
    binomial_pmf,
    multinomial_covariance,
    multinomial_mean,
    multinomial_pmf,
    multinomial_pmf_over_space,
    total_variation,
)
from repro.markov.ehrenfest import EhrenfestProcess, geometric_weights
from repro.markov.mixing import (
    distance_to_stationarity_curve,
    empirical_state_tv,
    exact_mixing_time,
    mixing_time_from_curve,
)
from repro.markov.random_walks import (
    BiasedWalkSpec,
    expected_absorption_time,
    gamblers_ruin_win_probability,
    simulate_absorption_time,
    symmetric_interval_win_probability,
)
from repro.markov.state_space import CompositionSpace, compositions, num_compositions

__all__ = [
    "FiniteMarkovChain",
    "CompositionSpace",
    "compositions",
    "num_compositions",
    "EhrenfestProcess",
    "geometric_weights",
    "CoordinateCoupling",
    "coupling_time_samples",
    "multinomial_pmf",
    "multinomial_pmf_over_space",
    "multinomial_mean",
    "multinomial_covariance",
    "binomial_pmf",
    "total_variation",
    "distance_to_stationarity_curve",
    "mixing_time_from_curve",
    "exact_mixing_time",
    "empirical_state_tv",
    "BiasedWalkSpec",
    "expected_absorption_time",
    "symmetric_interval_win_probability",
    "gamblers_ruin_win_probability",
    "simulate_absorption_time",
    "CutoffProfile",
    "cutoff_profile",
]
