"""Parameter regimes of Proposition 2.2 and Theorem 2.9.

Theorem 2.9 proves the ``O(1/k)`` DE guarantee under explicit conditions:
``λ = (1−β)/β >= 2``, ``s1 ∈ [0, 1)``,
``b/c > 1 + βc/(γ(1−s1))``,
``δ < sqrt(1 − βc/(γ(b−c)(1−s1)))``, and
``ĝ < 1 − (1/δ)(βc/(γ(b−c)(1−δ)(1−s1)) − 1)``.

This module checks those conditions for a given setting and constructs a
canonical valid setting used throughout the tests, examples, and benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.equilibrium import RDSetting
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import PopulationShares
from repro.games.closed_forms import proposition_2_2_conditions
from repro.utils.errors import InvalidParameterError


@dataclass(frozen=True)
class Theorem29Conditions:
    """Truth values of the individual Theorem 2.9 assumptions.

    Attributes mirror the theorem statement; :attr:`all_hold` is their
    conjunction.  The derived thresholds are carried for diagnostics.
    """

    lambda_at_least_two: bool
    s1_below_one: bool
    reward_ratio_ok: bool
    delta_ok: bool
    g_max_ok: bool
    delta_threshold: float
    g_max_threshold: float

    @property
    def all_hold(self) -> bool:
        """Whether every condition of Theorem 2.9 is satisfied."""
        return (self.lambda_at_least_two and self.s1_below_one
                and self.reward_ratio_ok and self.delta_ok and self.g_max_ok)


def theorem_2_9_delta_bound(setting_b: float, setting_c: float, s1: float,
                            shares: PopulationShares) -> float:
    """The δ threshold ``sqrt(1 − βc/(γ(b−c)(1−s1)))``.

    Returns ``nan`` when the radicand is negative (no feasible δ).
    """
    if s1 >= 1.0:
        raise InvalidParameterError("Theorem 2.9 requires s1 < 1")
    radicand = 1.0 - (shares.beta * setting_c
                      / (shares.gamma * (setting_b - setting_c) * (1.0 - s1)))
    return math.sqrt(radicand) if radicand >= 0 else float("nan")


def theorem_2_9_g_max_bound(setting: RDSetting,
                            shares: PopulationShares) -> float:
    """The ĝ threshold ``1 − (1/δ)(βc/(γ(b−c)(1−δ)(1−s1)) − 1)``.

    Values above 1 mean any ``ĝ <= 1`` qualifies.
    """
    if setting.delta <= 0:
        raise InvalidParameterError("the ĝ bound requires delta > 0")
    if setting.s1 >= 1.0:
        raise InvalidParameterError("Theorem 2.9 requires s1 < 1")
    inner = (shares.beta * setting.c
             / (shares.gamma * (setting.b - setting.c)
                * (1.0 - setting.delta) * (1.0 - setting.s1))) - 1.0
    return 1.0 - inner / setting.delta


def theorem_2_9_conditions(setting: RDSetting, shares: PopulationShares,
                           grid: GenerosityGrid) -> Theorem29Conditions:
    """Evaluate every assumption of Theorem 2.9 for a concrete instance."""
    if shares.beta <= 0:
        raise InvalidParameterError(
            "Theorem 2.9 is stated for beta > 0 (lambda finite)")
    lam = shares.lam
    s1_ok = setting.s1 < 1.0
    ratio_ok = False
    delta_threshold = float("nan")
    if s1_ok and setting.c > 0:
        ratio_ok = (setting.b / setting.c
                    > 1.0 + shares.beta * setting.c
                    / (shares.gamma * (1.0 - setting.s1)))
        delta_threshold = theorem_2_9_delta_bound(setting.b, setting.c,
                                                  setting.s1, shares)
    elif s1_ok and setting.c == 0:
        # With zero cost the ratio condition is vacuous (b/c = inf) and the
        # thresholds degenerate to their cost-free limits.
        ratio_ok = True
        delta_threshold = 1.0
    delta_ok = (not math.isnan(delta_threshold)
                and setting.delta < delta_threshold)
    g_threshold = float("nan")
    g_ok = False
    if setting.delta > 0 and s1_ok:
        g_threshold = theorem_2_9_g_max_bound(setting, shares)
        g_ok = grid.g_max < g_threshold
    return Theorem29Conditions(
        lambda_at_least_two=lam >= 2.0,
        s1_below_one=s1_ok,
        reward_ratio_ok=ratio_ok,
        delta_ok=delta_ok,
        g_max_ok=g_ok,
        delta_threshold=delta_threshold,
        g_max_threshold=g_threshold,
    )


def payoff_increase_margin(setting: RDSetting, shares: PopulationShares,
                           g_max: float) -> float:
    """Margin of the *effective* positivity condition behind Theorem 2.9.

    Theorem 2.9's proof needs the deviation payoff
    ``F(g) = E_{S~µ̂}[f(g, S)]`` to be increasing on ``[0, ĝ]`` (so the best
    response sits at the top of the grid, where the stationary mass
    concentrates).  A sufficient condition, uniform over every mixture
    ``µ``, is

        ``γ(1−s1)·(δ²(1−ĝ)(b−c) − cδ + bδ³(1−ĝ)²) − βcδ/(1−δ) > 0``

    (the first factor lower-bounds ``∂f/∂g`` from eq. 47 at its minimizer
    ``g' = ĝ`` with the denominator at 1; the second is the exact downward
    slope ``β·∂f(·, AD)/∂g``).  Positive margin ⟹ ``F`` strictly increasing
    ⟹ the ``O(1/k)`` DE rate of Theorem 2.9 genuinely holds.

    **Reproduction note.**  The paper's printed conditions are weaker than
    this: its eq. (63) simplification overstates the slope of
    ``f(·, g_k)`` and eq. (61)'s ``µ(k) >= 1 − 1/k`` requires ``λ ≳ k``
    rather than ``λ >= 2``.  Settings exist that pass every literal
    Theorem 2.9 condition yet have a *decreasing* ``F`` (best response at
    ``g = 0``) and a DE gap bounded away from zero — Experiment E7 exhibits
    one.  Under the effective condition here the theorem's conclusion is
    clean.
    """
    if shares.beta < 0:
        raise InvalidParameterError("beta must be non-negative")
    b, c, delta, s1 = setting.b, setting.c, setting.delta, setting.s1
    w = 1.0 - g_max
    up_slope = (1.0 - s1) * (delta**2 * w * (b - c) - c * delta
                             + b * delta**3 * w**2)
    down_slope = shares.beta * c * delta / (1.0 - delta)
    return shares.gamma * up_slope - down_slope


def default_theorem_2_9_setting() -> tuple[RDSetting, PopulationShares, float]:
    """A canonical instance satisfying Theorem 2.9, Proposition 2.2 *and*
    the effective positivity condition of :func:`payoff_increase_margin`.

    Returns ``(setting, shares, g_max)`` with
    ``(α, β, γ) = (0.2, 0.05, 0.75)``, ``b = 20, c = 1, δ = 0.8,
    s1 = 0.5``, ``ĝ = 0.4``:

    * ``λ = 19 >= 2``;
    * ``b/c = 20 > 1 + βc/(γ(1−s1)) ≈ 1.133``;
    * ``δ = 0.8 < sqrt(1 − βc/(γ(b−c)(1−s1))) ≈ 0.996``;
    * ``ĝ = 0.4`` below both the Theorem 2.9 threshold (≈ 2.21, vacuous)
      and the Proposition 2.2 threshold ``1 − c/(δb) = 0.9375``;
    * effective margin ``≈ +3.6`` (deviation payoff strictly increasing),
      so the measured DE gap decays as ``Θ(1/k)`` (Experiment E7).
    """
    shares = PopulationShares(alpha=0.2, beta=0.05, gamma=0.75)
    setting = RDSetting(b=20.0, c=1.0, delta=0.8, s1=0.5)
    g_max = 0.4
    conditions = theorem_2_9_conditions(setting, shares,
                                        GenerosityGrid(k=2, g_max=g_max))
    if not conditions.all_hold:  # pragma: no cover - construction invariant
        raise InvalidParameterError(
            "internal error: canonical setting violates Theorem 2.9")
    local = proposition_2_2_conditions(setting.b, setting.c, setting.delta,
                                       setting.s1, g_max)
    if not local.all_hold:  # pragma: no cover - construction invariant
        raise InvalidParameterError(
            "internal error: canonical setting violates Proposition 2.2")
    if payoff_increase_margin(setting, shares, g_max) <= 0:  # pragma: no cover
        raise InvalidParameterError(
            "internal error: canonical setting violates the effective "
            "positivity condition")
    return setting, shares, g_max


def literal_only_theorem_2_9_setting() -> tuple[RDSetting, PopulationShares, float]:
    """A setting passing every *literal* Theorem 2.9 condition whose DE gap
    nevertheless stalls (negative effective margin).

    ``(α, β, γ) = (0.3, 0.1, 0.6)``, ``b = 4, c = 1, δ = 0.7, s1 = 0.5``,
    ``ĝ = 0.6``: here the AD-facing loss dominates the GTFT-facing gain, the
    deviation payoff is *decreasing* (best response ``g = 0``), and
    ``Ψ(µ) → ≈ 0.11`` as ``k`` grows.  Used by Experiment E7 to document the
    gap between the paper's printed conditions and its conclusion.
    """
    shares = PopulationShares(alpha=0.3, beta=0.1, gamma=0.6)
    setting = RDSetting(b=4.0, c=1.0, delta=0.7, s1=0.5)
    g_max = 0.6
    conditions = theorem_2_9_conditions(setting, shares,
                                        GenerosityGrid(k=2, g_max=g_max))
    if not conditions.all_hold:  # pragma: no cover - construction invariant
        raise InvalidParameterError(
            "internal error: literal setting no longer passes the paper's "
            "conditions")
    return setting, shares, g_max
