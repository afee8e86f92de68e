"""The power-law fit behind the experiments' scaling checks."""

from __future__ import annotations

import numpy as np

from repro.utils.errors import InvalidParameterError


def fit_power_law(x, y) -> tuple[float, float]:
    """Least-squares fit ``y ≈ C·x^alpha``; returns ``(alpha, C)``.

    Used to verify scaling shapes (e.g. mixing time linear in ``k`` means
    ``alpha ≈ 1``; the ``Ψ = O(1/k)`` rate means ``alpha ≈ −1``).
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size != ya.size or xa.size < 2:
        raise InvalidParameterError("need at least two (x, y) pairs")
    if np.any(xa <= 0) or np.any(ya <= 0):
        raise InvalidParameterError("power-law fit requires positive data")
    slope, intercept = np.polyfit(np.log(xa), np.log(ya), deg=1)
    return float(slope), float(np.exp(intercept))
