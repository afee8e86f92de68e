"""Exact and empirical mixing-time analysis.

Implements the definitions of Section 2.1: the distance to stationarity
``d(t) = max_x ||P^t(x, ·) − π||_TV`` and the mixing time
``t_mix = min{t : d(t) ≤ 1/4}``, computed exactly for chains small enough to
hold dense, plus empirical total-variation estimates from samples for larger
processes.
"""

from __future__ import annotations

import numpy as np

from repro.markov.chain import FiniteMarkovChain
from repro.markov.distributions import empirical_distribution, total_variation
from repro.utils import check_positive_int
from repro.utils.errors import ConvergenceError, InvalidParameterError


def distance_to_stationarity_curve(chain: FiniteMarkovChain, pi=None,
                                   t_max: int = 1000,
                                   from_states=None) -> np.ndarray:
    """Compute ``d(t)`` for ``t = 0 .. t_max``.

    Parameters
    ----------
    chain:
        The finite chain to analyze.
    pi:
        Stationary distribution; computed exactly when omitted.
    t_max:
        Largest time to evaluate.
    from_states:
        Iterable of starting state indices over which the max is taken.
        Defaults to *all* states (the true worst case); pass e.g. the two
        extreme corner states of an Ehrenfest space to trade exactness for
        speed on larger chains.

    Returns
    -------
    numpy.ndarray
        ``d`` of length ``t_max + 1`` with ``d[t] = max_x ||P^t(x,·) − π||``.
    """
    t_max = check_positive_int("t_max", t_max, minimum=0)
    if pi is None:
        pi = chain.stationary_distribution()
    pi = np.asarray(pi, dtype=float)
    n = chain.n_states
    if from_states is None:
        from_states = range(n)
    from_states = [int(s) for s in from_states]
    if not from_states:
        raise InvalidParameterError("from_states must be non-empty")
    if min(from_states) < 0 or max(from_states) >= n:
        raise InvalidParameterError("from_states index out of range")

    rows = np.zeros((len(from_states), n))
    for i, s in enumerate(from_states):
        rows[i, s] = 1.0
    curve = np.empty(t_max + 1)
    curve[0] = 0.5 * np.abs(rows - pi[None, :]).sum(axis=1).max()
    P = chain.transition_matrix
    for t in range(1, t_max + 1):
        rows = np.asarray(rows @ P)
        curve[t] = 0.5 * np.abs(rows - pi[None, :]).sum(axis=1).max()
    return curve


def mixing_time_from_curve(curve: np.ndarray, threshold: float = 0.25) -> int:
    """First ``t`` with ``curve[t] <= threshold``.

    Raises :class:`ConvergenceError` when the curve never dips below the
    threshold (i.e. ``t_max`` was too small).
    """
    curve = np.asarray(curve, dtype=float)
    below = np.nonzero(curve <= threshold)[0]
    if below.size == 0:
        raise ConvergenceError(
            f"d(t) stayed above {threshold} for all t <= {curve.size - 1}; "
            "increase t_max")
    return int(below[0])


def exact_mixing_time(chain: FiniteMarkovChain, pi=None, threshold: float = 0.25,
                      t_max: int = 100_000, from_states=None) -> int:
    """Exact ``t_mix(threshold)`` by advancing the kernel until ``d(t)`` dips.

    Unlike :func:`distance_to_stationarity_curve` this stops as soon as the
    threshold is crossed, so ``t_max`` is only a safety budget.
    """
    t_max = check_positive_int("t_max", t_max, minimum=0)
    if pi is None:
        pi = chain.stationary_distribution()
    pi = np.asarray(pi, dtype=float)
    n = chain.n_states
    if from_states is None:
        from_states = range(n)
    from_states = [int(s) for s in from_states]
    rows = np.zeros((len(from_states), n))
    for i, s in enumerate(from_states):
        rows[i, s] = 1.0
    P = chain.transition_matrix
    d = 0.5 * np.abs(rows - pi[None, :]).sum(axis=1).max()
    if d <= threshold:
        return 0
    for t in range(1, t_max + 1):
        rows = np.asarray(rows @ P)
        d = 0.5 * np.abs(rows - pi[None, :]).sum(axis=1).max()
        if d <= threshold:
            return t
    raise ConvergenceError(
        f"d(t) stayed above {threshold} for all t <= {t_max}")


def projected_marginal_tv(count_samples: np.ndarray, coordinate: int, m: int,
                          marginal_pmf) -> float:
    """TV distance of one count coordinate's empirical law vs. a reference PMF.

    ``count_samples`` is ``(n_samples, k)``; the marginal of coordinate ``j``
    under the multinomial stationary law is ``Binomial(m, p_j)``, giving a
    low-dimensional, low-bias convergence diagnostic for large spaces.
    """
    samples = np.asarray(count_samples, dtype=np.int64)
    if samples.ndim != 2:
        raise InvalidParameterError("count_samples must be 2-D (samples, k)")
    values = samples[:, coordinate]
    reference = np.asarray(marginal_pmf, dtype=float)
    if reference.size != m + 1:
        raise InvalidParameterError(
            f"marginal_pmf must have length m+1={m + 1}, got {reference.size}")
    empirical = empirical_distribution(values, m + 1)
    return total_variation(empirical, reference)
