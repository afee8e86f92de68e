"""Mean-field (expected-trajectory) analysis of the k-IGT dynamics.

Because the count-chain transition probabilities are *linear* in the counts
(eq. 5), the expected count vector evolves exactly as

    ``E[z_{t+1}] = (I + A/m)·E[z_t]``

where ``A`` is the drift generator with off-diagonal rates ``a`` (up) and
``b`` (down), truncated at the grid ends.  In rescaled time ``τ = t/m``
this is the linear ODE ``dx/dτ = A x`` over strategy fractions — the
replicator-style mean-field flow whose unique stationary point is exactly
the ``p_j ∝ λ^{j−1}`` profile of Theorems 2.4/2.7.  No law-of-large-numbers
approximation is involved for the *mean*; fluctuations around it are
``O(1/√m)`` (multinomial).
"""

from __future__ import annotations

import numpy as np

from repro.core.igt import GenerosityGrid
from repro.core.population_igt import PopulationShares
from repro.utils import check_positive_int
from repro.utils.errors import InvalidParameterError


def drift_generator(k: int, a: float, b: float) -> np.ndarray:
    """The ``k×k`` generator ``A`` of the mean count flow.

    ``(A z)_j`` is ``m·E[Δz_j]`` per interaction: inflow ``a·z_{j−1}``
    (for ``j ≥ 2``), inflow ``b·z_{j+1}`` (for ``j ≤ k−1``), outflow
    ``a·z_j`` (when an up-move is possible, ``j ≤ k−1``) and ``b·z_j``
    (when a down-move is possible, ``j ≥ 2``).
    """
    k = check_positive_int("k", k, minimum=2)
    if not (a > 0 and b > 0 and a + b <= 1 + 1e-12):
        raise InvalidParameterError(
            f"need a, b > 0 with a + b <= 1, got a={a!r}, b={b!r}")
    A = np.zeros((k, k))
    for j in range(k):
        if j < k - 1:
            A[j + 1, j] += a   # up-move inflow to j+1
            A[j, j] -= a       # up-move outflow from j
        if j > 0:
            A[j - 1, j] += b   # down-move inflow to j-1
            A[j, j] -= b       # down-move outflow from j
    return A


def mean_trajectory_discrete(k: int, a: float, b: float, z0,
                             steps: int, observe_every: int = 1) -> np.ndarray:
    """Exact expected count trajectory ``E[z_t] = (I + A/m)^t z_0``.

    Returns an array of shape ``(steps // observe_every + 1, k)``.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.size != k:
        raise InvalidParameterError(f"z0 must have length k={k}")
    steps = check_positive_int("steps", steps, minimum=0)
    observe_every = check_positive_int("observe_every", observe_every)
    m = float(z0.sum())
    if m <= 0:
        raise InvalidParameterError("z0 must have positive total mass")
    step_matrix = np.eye(k) + drift_generator(k, a, b) / m
    out = np.empty((steps // observe_every + 1, k))
    out[0] = z0
    current = z0.copy()
    row = 1
    for t in range(1, steps + 1):
        current = step_matrix @ current
        if t % observe_every == 0:
            out[row] = current
            row += 1
    return out[:row]


def mean_trajectory_ode(k: int, a: float, b: float, x0, taus) -> np.ndarray:
    """Continuous-time mean-field flow ``x(τ) = expm(Aτ)·x0``.

    ``x0`` is a fraction vector (sums to 1); ``taus`` are rescaled times
    (``τ = interactions / m``).  Returns shape ``(len(taus), k)``.
    """
    from scipy.linalg import expm

    x0 = np.asarray(x0, dtype=float)
    if x0.size != k:
        raise InvalidParameterError(f"x0 must have length k={k}")
    if abs(x0.sum() - 1.0) > 1e-9:
        raise InvalidParameterError("x0 must sum to 1 (strategy fractions)")
    A = drift_generator(k, a, b)
    taus = np.asarray(taus, dtype=float)
    out = np.empty((taus.size, k))
    for i, tau in enumerate(taus):
        if tau < 0:
            raise InvalidParameterError("times must be non-negative")
        out[i] = expm(A * tau) @ x0
    return out


def mean_field_stationary(k: int, a: float, b: float) -> np.ndarray:
    """The unique stationary point of the mean-field flow.

    Solves ``A x = 0`` with ``Σx = 1``; equals the Theorem 2.4 weights
    ``p_j ∝ (a/b)^{j−1}`` exactly (detailed balance of the birth–death
    drift), which the test suite verifies.
    """
    A = drift_generator(k, a, b)
    system = np.vstack([A, np.ones((1, k))])
    rhs = np.zeros(k + 1)
    rhs[-1] = 1.0
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    solution = np.clip(solution, 0.0, None)
    return solution / solution.sum()


def igt_mean_field(shares: PopulationShares, grid: GenerosityGrid,
                   n: int, exact: bool = True) -> tuple[np.ndarray, float]:
    """Drift generator and ``m`` for a concrete k-IGT population.

    With ``exact=True`` uses the finite-``n`` sampling rates of the
    distinct-partner scheduler (:meth:`PopulationShares.finite_n_rates`,
    as :meth:`IGTSimulation.equivalent_ehrenfest` does); otherwise the
    paper's idealized ``a = γ(1−β), b = γβ``
    (:meth:`PopulationShares.idealized_rates`).
    """
    _, n_ad, m = shares.agent_counts(n)
    if n_ad == 0:
        raise InvalidParameterError("the mean field needs at least one AD agent")
    a, b = shares.finite_n_rates(n) if exact else shares.idealized_rates()
    return drift_generator(grid.k, a, b), float(m)
