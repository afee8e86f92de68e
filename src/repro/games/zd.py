"""Zero-determinant (ZD) strategies for donation games.

The donation-game literature the paper builds on (Hilbe–Nowak–Sigmund 2013,
Stewart–Plotkin 2013 — both cited in Section 1.1.2) revolves around
Press–Dyson zero-determinant strategies: memory-one strategies that enforce
a *linear relation* between the two players' long-run average payoffs
against **any** opponent:

    ``u₁ − l = χ·(u₂ − l)``

where ``l`` is the baseline payoff and ``χ`` the slope.  ``l = P`` (mutual
defection, 0 in donation games) with ``χ > 1`` gives *extortionate*
strategies; ``l = R = b − c`` (mutual cooperation) with ``χ > 1`` gives
*generous* (compliant) strategies that absorb more than their share of any
shortfall — the strategic backdrop for the paper's focus on generosity.

This module constructs ZD strategies from ``(l, χ, φ)``, computes the
feasible normalization range, and provides the limit-of-means (undiscounted
average) payoff machinery on which the ZD relation holds exactly.
"""

from __future__ import annotations

import numpy as np

from repro.games.strategies import MemoryOneStrategy
from repro.utils import check_positive
from repro.utils.errors import InvalidParameterError

#: Press–Dyson offset: adding (1, 1, 0, 0) converts the "tilde" vector
#: p̃ = p − e into cooperation probabilities, where e marks the states in
#: which the focal player just cooperated (CC, CD).
_PD_OFFSET = np.array([1.0, 1.0, 0.0, 0.0])


def _payoff_vectors(game) -> tuple[np.ndarray, np.ndarray]:
    s1 = np.asarray(game.reward_vector, dtype=float)
    s2 = np.asarray(game.second_player_reward_vector, dtype=float)
    return s1, s2


def zd_tilde_vector(game, baseline: float, slope: float) -> np.ndarray:
    """The unnormalized Press–Dyson direction ``(s₁ − l) − χ(s₂ − l)``."""
    s1, s2 = _payoff_vectors(game)
    return (s1 - baseline) - slope * (s2 - baseline)


def max_feasible_phi(game, baseline: float, slope: float) -> float:
    """Largest ``φ > 0`` keeping ``p = φ·p̃ + (1,1,0,0)`` in ``[0,1]⁴``.

    Returns 0.0 when no positive ``φ`` is feasible for this ``(l, χ)``.
    """
    tilde = zd_tilde_vector(game, baseline, slope)
    best = np.inf
    for i in range(4):
        # A Python float, so that a bound from a subnormal entry overflows
        # silently to inf (no bound) instead of warning as a numpy scalar.
        value = float(tilde[i])
        offset = _PD_OFFSET[i]
        if offset == 1.0:
            # Need 0 <= 1 + phi*value <= 1  ->  -1/phi <= value <= 0.
            if value > 1e-12:
                return 0.0
            if value < 0:
                best = min(best, -1.0 / value)
        else:
            # Need 0 <= phi*value <= 1.
            if value < -1e-12:
                return 0.0
            if value > 0:
                best = min(best, 1.0 / value)
    return float(best) if np.isfinite(best) else 0.0


def zd_strategy(game, baseline: float, slope: float,
                phi_fraction: float = 0.5,
                initial_coop_prob: float = 1.0,
                name: str | None = None) -> MemoryOneStrategy:
    """Construct the ZD strategy enforcing ``u₁ − l = χ(u₂ − l)``.

    Parameters
    ----------
    game:
        A donation game (or any symmetric 2×2 stage game exposing
        ``reward_vector`` / ``second_player_reward_vector``).
    baseline:
        The baseline payoff ``l``.
    slope:
        The enforced slope ``χ``.
    phi_fraction:
        The normalization ``φ`` as a fraction of the maximum feasible value
        (must lie in (0, 1]); smaller values give more tolerant strategies
        with the same enforced relation.
    initial_coop_prob:
        Round-1 cooperation probability (does not affect the limit-of-means
        relation).
    """
    if not 0.0 < phi_fraction <= 1.0:
        raise InvalidParameterError(
            f"phi_fraction must lie in (0, 1], got {phi_fraction!r}")
    phi_max = max_feasible_phi(game, baseline, slope)
    if phi_max <= 0.0:
        raise InvalidParameterError(
            f"no feasible ZD strategy for baseline={baseline!r}, "
            f"slope={slope!r} in this game")
    phi = phi_fraction * phi_max
    probs = phi * zd_tilde_vector(game, baseline, slope) + _PD_OFFSET
    probs = np.clip(probs, 0.0, 1.0)
    return MemoryOneStrategy(
        initial_coop_prob=initial_coop_prob,
        coop_probs=tuple(float(p) for p in probs),
        name=name or f"ZD(l={baseline:g}, chi={slope:g}, phi={phi:.3g})")


def extortionate_zd(game, chi: float,
                    phi_fraction: float = 0.5) -> MemoryOneStrategy:
    """Extortionate ZD: ``l = P`` (mutual defection), ``χ > 1``.

    Enforces ``u₁ − P = χ(u₂ − P)`` — the focal player claims a ``χ``-fold
    share of any surplus over mutual defection (Press–Dyson; studied for
    donation games by Hilbe–Nowak–Sigmund 2013).
    """
    check_positive("chi", chi)
    if chi < 1.0:
        raise InvalidParameterError(
            f"extortion requires chi >= 1, got {chi!r}")
    punishment = float(game.row_payoffs[1, 1])
    return zd_strategy(game, baseline=punishment, slope=chi,
                       phi_fraction=phi_fraction, initial_coop_prob=0.0,
                       name=f"Extort({chi:g})")


def generous_zd(game, chi: float,
                phi_fraction: float = 0.5) -> MemoryOneStrategy:
    """Generous ZD: ``l = R`` (mutual cooperation), ``χ > 1``.

    Enforces ``u₁ − R = χ(u₂ − R)``: whenever the pair falls short of full
    cooperation the focal player absorbs a ``χ``-fold share of the
    shortfall — Stewart–Plotkin's "from extortion to generosity"
    counterpart, and the ZD formalization of the generosity the paper's
    GTFT agents implement heuristically.
    """
    check_positive("chi", chi)
    if chi < 1.0:
        raise InvalidParameterError(
            f"generosity requires chi >= 1, got {chi!r}")
    reward = float(game.row_payoffs[0, 0])
    return zd_strategy(game, baseline=reward, slope=chi,
                       phi_fraction=phi_fraction, initial_coop_prob=1.0,
                       name=f"Generous({chi:g})")


def average_payoff_pair(first: MemoryOneStrategy, second: MemoryOneStrategy,
                        game) -> tuple[float, float]:
    """Limit-of-means payoffs ``(u₁, u₂)`` of an infinitely repeated game.

    Computes the stationary distribution of the joint action chain and
    averages the per-round payoffs.  Raises when the chain has multiple
    recurrent classes (the long-run average then depends on the initial
    round, so no single value exists).
    """
    from repro.games.expected_payoff import joint_action_chain

    M = joint_action_chain(first, second)
    eigenvalues, eigenvectors = np.linalg.eig(M.T)
    close_to_one = np.abs(eigenvalues - 1.0) < 1e-9
    count = int(np.count_nonzero(close_to_one))
    if count != 1:
        raise InvalidParameterError(
            f"joint chain has {count} unit eigenvalues; limit-of-means "
            "payoffs are not unique for this strategy pair")
    vector = np.real(eigenvectors[:, np.argmax(close_to_one)])
    pi = np.abs(vector)
    pi = pi / pi.sum()
    s1, s2 = _payoff_vectors(game)
    return float(pi @ s1), float(pi @ s2)


def zd_relation_residual(focal: MemoryOneStrategy,
                         opponent: MemoryOneStrategy, game,
                         baseline: float, slope: float) -> float:
    """``|(u₁ − l) − χ(u₂ − l)|`` under limit-of-means play.

    Exactly zero (up to numerics) when ``focal`` is the ZD strategy built
    from ``(l, χ)`` — against *any* memory-one opponent.
    """
    u1, u2 = average_payoff_pair(focal, opponent, game)
    return abs((u1 - baseline) - slope * (u2 - baseline))
