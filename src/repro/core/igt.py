"""The generosity grid and strategy types of the k-IGT dynamics.

Each GTFT agent holds an index into the generosity grid
``G = {g_1, ..., g_k}`` with ``g_j = ĝ·(j−1)/(k−1)`` (Definition 2.1).
After interacting as *initiator* with a partner of strategy type ``S``:

* ``S ∈ {AC, GTFT}`` → increment to the next larger grid value
  (``Inc(g_j) = g_min{j+1,k}``),
* ``S = AD`` → decrement to the next smaller grid value
  (``Dec(g_j) = g_max{j−1,1}``).

The *strict* variant (Remark after Proposition 2.2) increments only after a
GTFT partner, making every move strictly payoff-improving at the price of a
lower stationary generosity.  The rule has one implementation,
:func:`repro.engine.igt_update`, which every k-IGT transition table is
built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from repro.utils import check_in_range, check_positive_int
from repro.utils.errors import InvalidParameterError


class AgentType(IntEnum):
    """Strategy types in an ``(α, β, γ)`` population."""

    AC = 0
    AD = 1
    GTFT = 2


@dataclass(frozen=True)
class GenerosityGrid:
    """The discretized generosity space ``G = {g_1, ..., g_k}``.

    ``g_j = ĝ·(j−1)/(k−1)`` for ``j = 1..k`` — an equidistant discretization
    of ``[0, ĝ]`` into ``k`` values (Definition 2.1).  Indices in code are
    0-based (``j − 1``); the paper's 1-based ``g_j`` is ``value(j - 1)``.

    Attributes
    ----------
    k:
        Number of grid values, ``k >= 2`` — also the per-agent state-space
        size, i.e. the "space" axis of the paper's trade-off.
    g_max:
        The maximum generosity parameter ``ĝ ∈ (0, 1]``.
    """

    k: int
    g_max: float

    def __post_init__(self):
        check_positive_int("k", self.k, minimum=2)
        check_in_range("g_max", self.g_max, 0.0, 1.0)
        if self.g_max <= 0:
            raise InvalidParameterError(
                f"g_max must be positive, got {self.g_max!r}")

    @property
    def values(self) -> np.ndarray:
        """All grid values ``(g_1, ..., g_k)`` as a float array."""
        return self.g_max * np.arange(self.k) / (self.k - 1)

    def value(self, index: int) -> float:
        """Grid value at 0-based ``index``."""
        if not 0 <= index < self.k:
            raise InvalidParameterError(
                f"index must lie in 0..{self.k - 1}, got {index}")
        return self.g_max * index / (self.k - 1)

    @property
    def spacing(self) -> float:
        """Distance ``ĝ/(k−1)`` between adjacent grid values."""
        return self.g_max / (self.k - 1)

    def nearest_index(self, g: float) -> int:
        """Index of the grid value closest to ``g``."""
        check_in_range("g", g, 0.0, 1.0)
        return int(round(g / self.spacing)) if g < self.g_max else self.k - 1
