"""Stationary characterization of the k-IGT dynamics (Theorem 2.7).

The count vector ``{z_t}`` over generosity indices is a
``(k, γ(1−β), γβ, γn)``-Ehrenfest process (Section 2.2.1), so by
Theorem 2.4 its stationary distribution is multinomial with
``p_j ∝ λ^{j−1}``, ``λ = (1−β)/β``.  This module provides those parameters
directly from the population description.
"""

from __future__ import annotations

import numpy as np

from repro.core.igt import GenerosityGrid
from repro.core.population_igt import PopulationShares
from repro.markov.ehrenfest import EhrenfestProcess, geometric_weights
from repro.utils import check_positive_int
from repro.utils.errors import InvalidParameterError


def igt_lambda(beta: float) -> float:
    """``λ = (1 − β)/β`` — the stationary bias ratio of Theorem 2.7."""
    if not 0.0 < beta < 1.0:
        raise InvalidParameterError(
            f"beta must lie strictly inside (0, 1), got {beta!r}")
    return (1.0 - beta) / beta


def noisy_igt_lambda(beta: float, observation_noise: float) -> float:
    """Stationary bias under partner-misclassification noise (extension).

    When a GTFT initiator flips its AD/non-AD reading with probability
    ``ε``, increments fire with probability ``(1−ε)(1−β) + εβ`` and
    decrements with ``(1−ε)β + ε(1−β)``, so

        ``λ_ε = ((1−ε)(1−β) + εβ) / ((1−ε)β + ε(1−β))``.

    ``λ_0 = (1−β)/β`` recovers Theorem 2.7; ``λ_{1/2} = 1`` (uniform
    stationary law — noise fully destroys the signal); generosity degrades
    continuously in between.
    """
    if not 0.0 <= beta <= 1.0:
        raise InvalidParameterError(
            f"beta must lie in [0, 1], got {beta!r}")
    if not 0.0 <= observation_noise <= 1.0:
        raise InvalidParameterError(
            f"observation_noise must lie in [0, 1], got {observation_noise!r}")
    eps = observation_noise
    up = (1.0 - eps) * (1.0 - beta) + eps * beta
    down = (1.0 - eps) * beta + eps * (1.0 - beta)
    if down == 0:
        raise InvalidParameterError(
            "lambda is infinite: no decrement pressure (beta and noise both "
            "zero or one)")
    return up / down


def igt_stationary_weights(k: int, beta: float) -> np.ndarray:
    """The multinomial cell weights ``p_j = λ^{j−1}/Σ_i λ^{i−1}``.

    ``p`` concentrates on the *largest* generosity values when ``β < 1/2``
    and on the smallest when ``β > 1/2``; it is uniform at ``β = 1/2``.
    """
    k = check_positive_int("k", k, minimum=2)
    return geometric_weights(k, igt_lambda(beta))


def igt_ehrenfest_parameters(shares: PopulationShares,
                             n: int) -> tuple[float, float, int]:
    """The paper's idealized embedding parameters ``(a, b, m)`` (eq. 5).

    ``a = γ(1−β)``, ``b = γβ``, ``m = γn`` (concretely, the realized GTFT
    count from :meth:`PopulationShares.agent_counts`).
    """
    if shares.beta <= 0:
        raise InvalidParameterError(
            "the Ehrenfest embedding requires beta > 0 (some AD agents)")
    _, _, m = shares.agent_counts(n)
    a, b = shares.idealized_rates()
    return a, b, m


def igt_ehrenfest_process(shares: PopulationShares, n: int,
                          grid: GenerosityGrid) -> EhrenfestProcess:
    """The ``(k, γ(1−β), γβ, γn)``-Ehrenfest process of the count chain."""
    a, b, m = igt_ehrenfest_parameters(shares, n)
    return EhrenfestProcess(k=grid.k, a=a, b=b, m=m)
