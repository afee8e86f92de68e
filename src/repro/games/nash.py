"""The distributional-equilibrium gap of a symmetric game (Definition 1.1).

Definition 1.1 casts the paper's distributional equilibrium as an
approximate symmetric mixed Nash equilibrium whose mixture is the
empirical distribution of pure strategies in the population.  For a
symmetric game both players' deviation gaps coincide, so the gap needs
only the row player's matrix; the general-game dynamics
(:mod:`repro.core.general_games`) and Experiment E14 read it.
"""

from __future__ import annotations

import numpy as np

from repro.utils import check_probability_vector
from repro.utils.errors import InvalidParameterError


def symmetric_de_gap(payoff_matrix, mu) -> float:
    """DE gap for a symmetric game given only the row-player matrix.

    For symmetric games (``u2(s1,s2) = u1(s2,s1)``) the two deviation gaps of
    Definition 1.1 coincide, so only ``max_i (Uµ)_i − µᵀUµ`` is needed.
    """
    U = np.asarray(payoff_matrix, dtype=float)
    mu = check_probability_vector("mu", mu)
    if U.shape != (mu.size, mu.size):
        raise InvalidParameterError(
            f"payoff matrix shape {U.shape} incompatible with mu of size {mu.size}")
    expected = float(mu @ U @ mu)
    return float(np.max(U @ mu)) - expected
