"""Actions, game states, and two-player matrix games.

The paper's repeated games are built over the four joint game states
``A = (CC, CD, DC, DD)`` (ordered actions of the first and second player,
Section 1.1.2); this module fixes that ordering once so that reward vectors,
transition matrices, and initial distributions all agree on indices.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from repro.utils.errors import InvalidParameterError


class Action(IntEnum):
    """A single-round action: cooperate or defect."""

    COOPERATE = 0
    DEFECT = 1

    @property
    def symbol(self) -> str:
        """One-letter display symbol, ``"C"`` or ``"D"``."""
        return "C" if self is Action.COOPERATE else "D"


#: The four joint game states in the paper's fixed order (Section 1.1.2):
#: ``CC, CD, DC, DD`` — first letter is the row (first) player's action.
GAME_STATES: tuple[tuple[Action, Action], ...] = (
    (Action.COOPERATE, Action.COOPERATE),
    (Action.COOPERATE, Action.DEFECT),
    (Action.DEFECT, Action.COOPERATE),
    (Action.DEFECT, Action.DEFECT),
)


class MatrixGame:
    """A two-player game in normal form.

    Parameters
    ----------
    row_payoffs:
        ``(n, m)`` payoff matrix for the row player.
    col_payoffs:
        ``(n, m)`` payoff matrix for the column player.  Omit for symmetric
        games, in which case ``col_payoffs = row_payoffs.T``.
    row_labels, col_labels:
        Optional strategy names for display.
    """

    def __init__(self, row_payoffs, col_payoffs=None,
                 row_labels=None, col_labels=None):
        self.row_payoffs = np.asarray(row_payoffs, dtype=float)
        if self.row_payoffs.ndim != 2:
            raise InvalidParameterError("row_payoffs must be a 2-D matrix")
        if col_payoffs is None:
            if self.row_payoffs.shape[0] != self.row_payoffs.shape[1]:
                raise InvalidParameterError(
                    "symmetric construction requires a square matrix")
            self.col_payoffs = self.row_payoffs.T.copy()
        else:
            self.col_payoffs = np.asarray(col_payoffs, dtype=float)
        if self.col_payoffs.shape != self.row_payoffs.shape:
            raise InvalidParameterError(
                f"payoff matrices must share a shape, got "
                f"{self.row_payoffs.shape} vs {self.col_payoffs.shape}")
        self.row_labels = list(row_labels) if row_labels is not None else None
        self.col_labels = list(col_labels) if col_labels is not None else None

    @property
    def n_row_strategies(self) -> int:
        """Number of row-player pure strategies."""
        return self.row_payoffs.shape[0]

    @property
    def n_col_strategies(self) -> int:
        """Number of column-player pure strategies."""
        return self.row_payoffs.shape[1]

    def is_symmetric(self, atol: float = 1e-12) -> bool:
        """Whether ``u2(s1, s2) = u1(s2, s1)`` (square and transposed)."""
        return (self.row_payoffs.shape[0] == self.row_payoffs.shape[1]
                and np.allclose(self.col_payoffs, self.row_payoffs.T, atol=atol))

    def payoff(self, row_strategy: int, col_strategy: int) -> tuple[float, float]:
        """Payoff pair ``(u1, u2)`` for a pure strategy profile."""
        return (float(self.row_payoffs[row_strategy, col_strategy]),
                float(self.col_payoffs[row_strategy, col_strategy]))

    def expected_payoffs(self, x, y) -> tuple[float, float]:
        """Expected payoff pair under mixed strategies ``x`` (row), ``y`` (col)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (float(x @ self.row_payoffs @ y), float(x @ self.col_payoffs @ y))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MatrixGame({self.n_row_strategies}x{self.n_col_strategies}"
                f"{', symmetric' if self.is_symmetric() else ''})")
