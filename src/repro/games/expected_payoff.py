"""Exact expected payoffs in repeated games via the absorbing-chain formula.

Appendix B defines the expected payoff of strategy ``S1`` against ``S2`` in a
repeated game with restart probability ``δ`` as

    ``f(S1, S2) = ⟨v, q₁ Σ_{i≥1} (δM)^{i-1}⟩ = q₁ (I − δM)^{-1} v``   (eq. 33)

where ``M`` is the joint action chain over ``(CC, CD, DC, DD)`` conditioned
on playing another round, ``q₁`` the round-1 action distribution, and ``v``
the per-round reward vector.  This module builds ``M`` for any pair of
memory-one strategies and evaluates the formula, generalizing the paper's
hand-derived matrices (eqs. 35, 38, 41).
"""

from __future__ import annotations

import numpy as np

from repro.games.base import GAME_STATES
from repro.games.strategies import MemoryOneStrategy, joint_initial_distribution
from repro.utils.errors import InvalidParameterError


def joint_action_chain(first: MemoryOneStrategy,
                       second: MemoryOneStrategy) -> np.ndarray:
    """The 4×4 round-to-round transition matrix ``M`` over ``(CC, CD, DC, DD)``.

    Row state ``(x, y)``: the first player cooperates next round w.p.
    ``p = first.coop(my=x, opp=y)`` and the second w.p.
    ``q = second.coop(my=y, opp=x)``; moves are independent given the state.
    """
    M = np.empty((4, 4))
    for row, (x, y) in enumerate(GAME_STATES):
        p = first.cooperation_probability(x, y)
        q = second.cooperation_probability(y, x)
        M[row, 0] = p * q
        M[row, 1] = p * (1 - q)
        M[row, 2] = (1 - p) * q
        M[row, 3] = (1 - p) * (1 - q)
    return M


def _resolvent(first: MemoryOneStrategy, second: MemoryOneStrategy,
               delta: float) -> tuple[np.ndarray, np.ndarray]:
    delta = float(delta)
    if not 0.0 <= delta < 1.0:
        raise InvalidParameterError(f"delta must lie in [0, 1), got {delta!r}")
    M = joint_action_chain(first, second)
    q1 = joint_initial_distribution(first, second)
    resolvent = np.linalg.inv(np.eye(4) - delta * M)
    return q1, resolvent


def expected_payoff(first: MemoryOneStrategy, second: MemoryOneStrategy,
                    reward_vector, delta: float) -> float:
    """``f(S1, S2) = q₁ (I − δM)^{-1} v`` — the first player's expected payoff.

    Parameters
    ----------
    first, second:
        The two memory-one strategies (first = the player being paid).
    reward_vector:
        Length-4 per-round payoffs of the *first* player over
        ``(CC, CD, DC, DD)`` — e.g. ``DonationGame.reward_vector``.
    delta:
        Continuation probability ``0 <= δ < 1``.
    """
    v = np.asarray(reward_vector, dtype=float)
    if v.shape != (4,):
        raise InvalidParameterError(
            f"reward_vector must have length 4, got shape {v.shape}")
    q1, resolvent = _resolvent(first, second, delta)
    return float(q1 @ resolvent @ v)


def expected_payoff_pair(first: MemoryOneStrategy, second: MemoryOneStrategy,
                         game, delta: float) -> tuple[float, float]:
    """Both players' expected payoffs ``(f(S1, S2), f(S2, S1))``.

    ``game`` must expose ``reward_vector`` and ``second_player_reward_vector``
    (e.g. :class:`~repro.games.DonationGame`).
    """
    v1 = np.asarray(game.reward_vector, dtype=float)
    v2 = np.asarray(game.second_player_reward_vector, dtype=float)
    q1, resolvent = _resolvent(first, second, delta)
    weights = q1 @ resolvent
    return float(weights @ v1), float(weights @ v2)
