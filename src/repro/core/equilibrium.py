"""Distributional equilibria for RD games on ``(α, β, γ)`` populations.

Implements Definition 1.2 and the machinery of Theorem 2.9: the induced
full-population distribution ``µ̂`` (eq. 3), the expected payoff of a GTFT
strategy against a population mixture, the DE gap

    ``Ψ(µ) = max_{g'∈G} E_{S~µ̂}[f(g', S)] − E_{g~µ, S~µ̂}[f(g, S)]``

(eq. 8), and the normalized mean stationary distribution
``µ = (1/m)·E[π]`` whose gap the theorem bounds by ``O(1/k)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.igt import GenerosityGrid
from repro.core.population_igt import PopulationShares
from repro.games.closed_forms import (
    payoff_gtft_vs_ac,
    payoff_gtft_vs_ad,
)
from repro.games.donation import DonationGame
from repro.games.expected_payoff import expected_payoff
from repro.games.strategies import (
    always_cooperate,
    always_defect,
    generous_tit_for_tat,
)
from repro.markov.ehrenfest import geometric_weights
from repro.utils import check_probability, check_probability_vector
from repro.utils.errors import InvalidParameterError


@dataclass(frozen=True)
class RDSetting:
    """A repeated-donation-game setting (Table 1's game-side parameters).

    Attributes
    ----------
    b, c:
        Donation benefit and cost, ``b > c >= 0``.
    delta:
        Continuation (restart) probability ``δ ∈ [0, 1)``.
    s1:
        Initial cooperation probability of GTFT agents, ``s1 ∈ [0, 1]``.
    """

    b: float
    c: float
    delta: float
    s1: float

    def __post_init__(self):
        if not self.b > self.c or self.c < 0:
            raise InvalidParameterError(
                f"donation rewards require b > c >= 0, got b={self.b!r}, "
                f"c={self.c!r}")
        if not 0.0 <= self.delta < 1.0:
            raise InvalidParameterError(
                f"delta must lie in [0, 1), got {self.delta!r}")
        check_probability("s1", self.s1)

    @property
    def game(self) -> DonationGame:
        """The underlying stage game."""
        return DonationGame(self.b, self.c)

    @property
    def expected_rounds(self) -> float:
        """Expected repeated-game length ``1/(1 − δ)``."""
        return 1.0 / (1.0 - self.delta)


def gtft_payoff_matrix(grid: GenerosityGrid, setting: RDSetting) -> np.ndarray:
    """Matrix ``F[i, j] = f(g_i, g_j)`` over the grid, vectorized (eq. 46)."""
    g = grid.values[:, None]
    gp = grid.values[None, :]
    b, c, delta, s1 = setting.b, setting.c, setting.delta, setting.s1
    one = 1.0 - s1
    joint = delta**2 * (1.0 - g) * (1.0 - gp)
    denominator = 1.0 - joint
    value = s1 * (b - c) + (b - c) * delta / (1.0 - delta)
    value = value + c * one * (joint + delta * (1.0 - g)) / denominator
    value = value - b * one * (joint + delta * (1.0 - gp)) / denominator
    return value


def payoff_table(grid: GenerosityGrid, setting: RDSetting) -> np.ndarray:
    """Full ``(k+2) × (k+2)`` expected-payoff table over ``S``.

    Strategy ids: ``0..k−1`` are the GTFT grid values ``g_1..g_k``, ``k`` is
    AC and ``k+1`` is AD.  Entry ``[i, j]`` is the expected payoff of
    strategy ``i`` against strategy ``j`` in one repeated game.  GTFT-vs-GTFT
    entries use the vectorized closed form; all remaining entries use the
    exact resolvent formula ``q₁(I − δM)^{-1}v`` (they agree — the test suite
    cross-checks).
    """
    k = grid.k
    table = np.empty((k + 2, k + 2))
    table[:k, :k] = gtft_payoff_matrix(grid, setting)
    strategies = [generous_tit_for_tat(gv, setting.s1) for gv in grid.values]
    strategies.append(always_cooperate())
    strategies.append(always_defect())
    v = setting.game.reward_vector
    for i in range(k + 2):
        for j in range(k + 2):
            if i < k and j < k:
                continue
            table[i, j] = expected_payoff(strategies[i], strategies[j], v,
                                          setting.delta)
    return table


def induced_full_distribution(mu, shares: PopulationShares) -> np.ndarray:
    """The induced distribution ``µ̂`` over ``S`` (eq. 3).

    Ordered to match :func:`payoff_table` ids:
    ``µ̂ = (γ·µ_1, ..., γ·µ_k, α, β)``.
    """
    mu = check_probability_vector("mu", mu)
    return np.concatenate([shares.gamma * mu, [shares.alpha, shares.beta]])


def expected_payoff_vs_mixture(g: float, mu, grid: GenerosityGrid,
                               setting: RDSetting,
                               shares: PopulationShares) -> float:
    """``E_{S~µ̂}[f(g, S)]`` for a (possibly off-grid) generosity value ``g``.

    ``= α·f(g, AC) + β·f(g, AD) + γ·Σ_j µ_j f(g, g_j)`` with the closed
    forms of Appendix B.
    """
    mu = check_probability_vector("mu", mu)
    if mu.size != grid.k:
        raise InvalidParameterError(
            f"mu must have k={grid.k} entries, got {mu.size}")
    check_probability("g", g)
    b, c, delta, s1 = setting.b, setting.c, setting.delta, setting.s1
    value = shares.alpha * payoff_gtft_vs_ac(g, b, c, delta, s1)
    value += shares.beta * payoff_gtft_vs_ad(g, b, c, delta, s1)
    gp = grid.values
    one = 1.0 - s1
    joint = delta**2 * (1.0 - g) * (1.0 - gp)
    denominator = 1.0 - joint
    f_gtft = (s1 * (b - c) + (b - c) * delta / (1.0 - delta)
              + c * one * (joint + delta * (1.0 - g)) / denominator
              - b * one * (joint + delta * (1.0 - gp)) / denominator)
    value += shares.gamma * float(mu @ f_gtft)
    return value


def grid_payoffs_vs_mixture(mu, grid: GenerosityGrid, setting: RDSetting,
                            shares: PopulationShares) -> np.ndarray:
    """Vector ``F`` with ``F[i] = E_{S~µ̂}[f(g_i, S)]`` for every grid value."""
    mu = check_probability_vector("mu", mu)
    if mu.size != grid.k:
        raise InvalidParameterError(
            f"mu must have k={grid.k} entries, got {mu.size}")
    b, c, delta, s1 = setting.b, setting.c, setting.delta, setting.s1
    f_ac = np.array([payoff_gtft_vs_ac(gv, b, c, delta, s1)
                     for gv in grid.values])
    f_ad = np.array([payoff_gtft_vs_ad(gv, b, c, delta, s1)
                     for gv in grid.values])
    f_gg = gtft_payoff_matrix(grid, setting)
    return shares.alpha * f_ac + shares.beta * f_ad + shares.gamma * (f_gg @ mu)


def de_gap(mu, grid: GenerosityGrid, setting: RDSetting,
           shares: PopulationShares) -> float:
    """The DE gap ``Ψ(µ)`` of eq. (8), restricted to grid deviations.

    ``µ`` is an ε-approximate distributional equilibrium (Definition 1.2)
    iff ``Ψ(µ) <= ε``.
    """
    payoffs = grid_payoffs_vs_mixture(mu, grid, setting, shares)
    mu = check_probability_vector("mu", mu)
    return float(np.max(payoffs) - mu @ payoffs)


def continuous_de_gap(mu, grid: GenerosityGrid, setting: RDSetting,
                      shares: PopulationShares) -> float:
    """DE gap when deviations range over the *continuous* interval ``[0, ĝ]``.

    Stronger than the grid gap of Definition 1.2 (every grid value is
    feasible), so ``continuous_de_gap >= de_gap``; the ``O(1/k)`` rate
    survives because the grid is ``ĝ/(k−1)``-dense and ``f`` is Lipschitz
    in ``g``.
    """
    from scipy.optimize import minimize_scalar

    mu = check_probability_vector("mu", mu)
    payoffs = grid_payoffs_vs_mixture(mu, grid, setting, shares)
    expected = float(mu @ payoffs)

    result = minimize_scalar(
        lambda g: -expected_payoff_vs_mixture(g, mu, grid, setting, shares),
        bounds=(0.0, grid.g_max), method="bounded",
        options={"xatol": 1e-10})
    best = max(-float(result.fun), float(np.max(payoffs)))
    return best - expected


def is_epsilon_de(mu, epsilon: float, grid: GenerosityGrid,
                  setting: RDSetting, shares: PopulationShares) -> bool:
    """Whether ``µ`` is an ε-approximate DE (Definition 1.2)."""
    return de_gap(mu, grid, setting, shares) <= epsilon + 1e-12


def mean_stationary_mu(k: int, beta: float = None, lam: float = None) -> np.ndarray:
    """The normalized mean stationary distribution ``µ = (1/m)·E[π]``.

    By Theorem 2.7, ``E[π_j] = m·p_j`` with ``p_j ∝ λ^{j−1}`` and
    ``λ = (1−β)/β``, so ``µ = (p_1, ..., p_k)`` exactly.  Pass either
    ``beta`` or the bias ``lam`` directly (e.g. the exact finite-``n``
    embedding bias).
    """
    if (beta is None) == (lam is None):
        raise InvalidParameterError("pass exactly one of beta or lam")
    if lam is None:
        beta = check_probability("beta", beta)
        if beta in (0.0, 1.0):
            raise InvalidParameterError(
                f"beta must lie strictly inside (0, 1), got {beta!r}")
        lam = (1.0 - beta) / beta
    return geometric_weights(int(k), lam)
