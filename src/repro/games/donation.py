"""The donation game, the paper's prisoner's dilemma reward structure.

The donation game (Section 1.1.2) is the most important subclass of
prisoner's dilemma rewards: cooperating *donates* a benefit ``b`` to the
opponent at personal cost ``c`` (``b > c >= 0``), yielding the reward vector
``v = [b − c, −c, b, 0]`` over the game states ``(CC, CD, DC, DD)``.
"""

from __future__ import annotations

import numpy as np

from repro.games.base import Action, MatrixGame
from repro.utils.errors import InvalidParameterError


class DonationGame(MatrixGame):
    """The donation game with benefit ``b`` and cost ``c`` (``b > c >= 0``).

    Single-round payoff matrix for the row player (C first, D second)::

            C       D
        C   b - c   -c
        D   b        0

    The game is symmetric; the reward vector over the four joint states is
    exposed as :attr:`reward_vector` (the paper's ``v``, eq. after
    Section 1.1.2's reward-structure bullet).
    """

    def __init__(self, b: float, c: float):
        if not b > c:
            raise InvalidParameterError(
                f"donation games require b > c, got b={b!r}, c={c!r}")
        if c < 0:
            raise InvalidParameterError(f"cost must satisfy c >= 0, got {c!r}")
        self.b = float(b)
        self.c = float(c)
        matrix = np.array([[self.b - self.c, -self.c],
                           [self.b, 0.0]])
        super().__init__(matrix, row_labels=["C", "D"], col_labels=["C", "D"])

    @property
    def reward_vector(self) -> np.ndarray:
        """``v = [b − c, −c, b, 0]`` over states ``(CC, CD, DC, DD)``.

        First-player payoffs; the second player's vector is the ``CD/DC``
        swap ``[b − c, b, −c, 0]`` by symmetry.
        """
        return np.array([self.b - self.c, -self.c, self.b, 0.0])

    @property
    def second_player_reward_vector(self) -> np.ndarray:
        """``[b − c, b, −c, 0]`` — the column player's per-state payoffs."""
        return np.array([self.b - self.c, self.b, -self.c, 0.0])

    @property
    def benefit_cost_ratio(self) -> float:
        """``b / c`` (``inf`` when ``c = 0``), the key regime parameter."""
        return float("inf") if self.c == 0 else self.b / self.c

    def round_payoff(self, my_action: Action, opp_action: Action) -> float:
        """Single-round payoff of a player choosing ``my_action``."""
        return float(self.row_payoffs[int(my_action), int(opp_action)])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DonationGame(b={self.b}, c={self.c})"
