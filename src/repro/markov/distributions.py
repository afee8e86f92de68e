"""Multinomial/binomial distribution helpers and total-variation distance.

Theorem 2.4 characterizes Ehrenfest stationary distributions as multinomials
over ``Delta_k^m``; this module evaluates those PMFs exactly (in log space for
numerical stability) and provides the total-variation metric used throughout
the mixing analysis.
"""

from __future__ import annotations

import math

import numpy as np

from repro.markov.state_space import CompositionSpace
from repro.utils import check_positive_int, check_probability_vector
from repro.utils.errors import InvalidParameterError


def log_multinomial_coefficient(x) -> float:
    """Return ``log( m! / (x_1! ... x_k!) )`` for the count vector ``x``."""
    from scipy.special import gammaln

    arr = np.asarray(x, dtype=float)
    m = arr.sum()
    return float(gammaln(m + 1.0) - gammaln(arr + 1.0).sum())


def multinomial_pmf(x, m: int, p) -> float:
    """Exact multinomial PMF at count vector ``x``.

    Parameters
    ----------
    x:
        Count vector ``(x_1, ..., x_k)`` with ``sum(x) == m``.
    m:
        Number of trials.
    p:
        Probability vector of length ``k``.

    Returns
    -------
    float
        ``P[X = x]`` where ``X ~ Multinomial(m, p)``; zero when ``x`` is
        incompatible with ``m`` or when a zero-probability cell has positive
        count.
    """
    m = check_positive_int("m", m, minimum=0)
    probs = check_probability_vector("p", p)
    counts = np.asarray(x, dtype=np.int64)
    if counts.shape != probs.shape:
        raise InvalidParameterError(
            f"x has length {counts.size} but p has length {probs.size}")
    if np.any(counts < 0) or counts.sum() != m:
        return 0.0
    positive = counts > 0
    if np.any(probs[positive] == 0.0):
        return 0.0
    log_pmf = log_multinomial_coefficient(counts)
    log_pmf += float(np.sum(counts[positive] * np.log(probs[positive])))
    return math.exp(log_pmf)


def multinomial_pmf_over_space(space: CompositionSpace, p) -> np.ndarray:
    """Evaluate the ``Multinomial(space.m, p)`` PMF at every state of ``space``.

    Returns a vector aligned with the space's enumeration order; its entries
    sum to 1 up to floating-point error.
    """
    from scipy.special import gammaln

    probs = check_probability_vector("p", p)
    if probs.size != space.k:
        raise InvalidParameterError(
            f"p has length {probs.size} but the space has k={space.k} parts")
    states = space.as_array().astype(float)
    with np.errstate(divide="ignore"):
        log_p = np.where(probs > 0, np.log(np.where(probs > 0, probs, 1.0)), -np.inf)
    log_coeff = (gammaln(space.m + 1.0) - gammaln(states + 1.0).sum(axis=1))
    finite_log_p = np.where(np.isfinite(log_p), log_p, 0.0)
    terms = np.where(states > 0, states * finite_log_p[None, :], 0.0)
    # States placing weight on zero-probability cells get pmf zero.
    impossible = np.any((states > 0) & (probs[None, :] == 0.0), axis=1)
    log_pmf = log_coeff + terms.sum(axis=1)
    pmf = np.exp(log_pmf)
    pmf[impossible] = 0.0
    return pmf


def binomial_pmf(i: int, m: int, p: float) -> float:
    """Binomial PMF ``P[X = i]`` for ``X ~ Bin(m, p)``."""
    if i < 0 or i > m:
        return 0.0
    return multinomial_pmf((i, m - i), m, (p, 1.0 - p))


def total_variation(p, q) -> float:
    """Total-variation distance ``(1/2) * sum_i |p_i - q_i|``.

    Both arguments are treated as finite measures on a common index set; they
    are *not* renormalized, so the caller is responsible for alignment.
    """
    pa = np.asarray(p, dtype=float)
    qa = np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise InvalidParameterError(
            f"distributions must share a shape, got {pa.shape} vs {qa.shape}")
    return 0.5 * float(np.abs(pa - qa).sum())


def empirical_distribution(indices, n_states: int) -> np.ndarray:
    """Empirical distribution of integer state indices over ``n_states`` bins."""
    n_states = check_positive_int("n_states", n_states, minimum=1)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise InvalidParameterError("need at least one sample")
    if idx.min() < 0 or idx.max() >= n_states:
        raise InvalidParameterError("sample index out of range")
    counts = np.bincount(idx, minlength=n_states).astype(float)
    return counts / counts.sum()
