"""The paper's closed-form expected payoffs and derivatives (Appendix B).

Exact expressions for a GTFT agent's expected repeated-donation-game payoff
against each opponent type (eqs. 44–46), its derivative in the generosity
parameter (eq. 47), and the Proposition 2.2 regime checks establishing
that the k-IGT update rule is locally optimal.

All functions cross-validate (in the test suite) against the generic
matrix-resolvent computation in :mod:`repro.games.expected_payoff` and
against Monte Carlo play in :mod:`repro.games.repeated`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils import check_in_range, check_probability
from repro.utils.errors import InvalidParameterError


def _validate_common(b: float, c: float, delta: float, s1: float) -> None:
    if not b > c or c < 0:
        raise InvalidParameterError(
            f"donation rewards require b > c >= 0, got b={b!r}, c={c!r}")
    if not 0.0 <= delta < 1.0:
        raise InvalidParameterError(f"delta must lie in [0, 1), got {delta!r}")
    check_probability("s1", s1)


def payoff_gtft_vs_ac(g: float, b: float, c: float, delta: float,
                      s1: float) -> float:
    """``f(g, AC) = c(1 − s1) + (b − c)/(1 − δ)`` (eq. 44).

    Independent of ``g``: against an unconditional cooperator, generosity
    never changes the GTFT agent's own actions after round 1 (it always sees
    a C and cooperates).
    """
    _validate_common(b, c, delta, s1)
    check_probability("g", g)
    return c * (1.0 - s1) + (b - c) / (1.0 - delta)


def payoff_gtft_vs_ad(g: float, b: float, c: float, delta: float,
                      s1: float) -> float:
    """``f(g, AD) = −c·s1 − c·g·δ/(1 − δ)`` (eq. 45).

    Strictly decreasing in ``g``: every unit of generosity against an
    unconditional defector is a donated cost with no return.
    """
    _validate_common(b, c, delta, s1)
    check_probability("g", g)
    return -c * s1 - c * g * delta / (1.0 - delta)


def payoff_gtft_vs_gtft(g: float, g_prime: float, b: float, c: float,
                        delta: float, s1: float) -> float:
    """``f(g, g′)`` — GTFT(g) against GTFT(g′) (eq. 46).

    Both agents share the initial cooperation probability ``s1`` (a standing
    assumption of the paper's population model).
    """
    _validate_common(b, c, delta, s1)
    check_probability("g", g)
    check_probability("g_prime", g_prime)
    one = 1.0 - s1
    denominator = 1.0 - delta**2 * (1.0 - g) * (1.0 - g_prime)
    value = s1 * (b - c) + (b - c) * delta / (1.0 - delta)
    value += c * one * (delta**2 * (1.0 - g) * (1.0 - g_prime)
                        + delta * (1.0 - g)) / denominator
    value -= b * one * (delta**2 * (1.0 - g) * (1.0 - g_prime)
                        + delta * (1.0 - g_prime)) / denominator
    return value


def payoff_derivative_in_g(g: float, g_prime: float, b: float, c: float,
                           delta: float, s1: float) -> float:
    """``d/dg f(g, g′)`` (eq. 47).

    Strictly positive throughout ``[0, ĝ]²`` under the Proposition 2.2
    regime (``δ > c/b`` and ``ĝ < 1 − c/(δb)``), which is what makes the
    IGT increment rule locally optimal against GTFT opponents.
    """
    _validate_common(b, c, delta, s1)
    check_probability("g", g)
    check_probability("g_prime", g_prime)
    one = 1.0 - s1
    denominator = (1.0 - delta**2 * (1.0 - g_prime) * (1.0 - g)) ** 2
    numerator_c = c * (-(delta**2) * (1.0 - g_prime) - delta)
    numerator_b = b * (-(delta**2) * (1.0 - g_prime)
                       - delta**3 * (1.0 - g_prime) ** 2)
    return one * (numerator_c - numerator_b) / denominator


@dataclass(frozen=True)
class LocalOptimalityConditions:
    """The Proposition 2.2 regime: when the IGT update rule is locally optimal.

    Attributes mirror the proposition's three assumptions; the rule's
    increment/decrement moves never decrease the expected payoff against the
    previous opponent exactly when all hold.
    """

    s1_below_one: bool
    delta_above_c_over_b: bool
    g_max_below_threshold: bool

    @property
    def all_hold(self) -> bool:
        """Whether every condition of Proposition 2.2 is satisfied."""
        return (self.s1_below_one and self.delta_above_c_over_b
                and self.g_max_below_threshold)


def proposition_2_2_conditions(b: float, c: float, delta: float, s1: float,
                               g_max: float) -> LocalOptimalityConditions:
    """Evaluate the assumptions of Proposition 2.2.

    (a) ``s1 ∈ [0, 1)``, (b) ``δ > c/b``, (c) ``ĝ < 1 − c/(δb)``.
    """
    _validate_common(b, c, delta, s1)
    check_in_range("g_max", g_max, 0.0, 1.0)
    return LocalOptimalityConditions(
        s1_below_one=s1 < 1.0,
        delta_above_c_over_b=delta > c / b,
        g_max_below_threshold=g_max < 1.0 - c / (delta * b) if delta > 0 else False,
    )
