"""Average stationary generosity (Proposition 2.8 and Corollary C.1).

The average generosity value of a count vector ``z`` is
``(1/m)·Σ_j g_j z_j``; under the stationary distribution of the k-IGT
dynamics its expectation has the closed form of Proposition 2.8:

    ``ẽg = ĝ·( λ^k/(λ^k − 1) − (1/(k−1))·(λ/(λ−1))·((λ^{k−1} − 1)/(λ^k − 1)) )``

for ``β ≠ 1/2`` (``λ = (1−β)/β``), and ``ẽg = ĝ/2`` at ``β = 1/2``.  Both
the closed form and the direct expectation ``Σ_j g_j p_j`` are implemented;
they agree to machine precision (tested), and the direct form is the
numerically stable one near ``λ = 1``.
"""

from __future__ import annotations

from repro.core.igt import GenerosityGrid
from repro.core.stationary import igt_lambda, igt_stationary_weights
from repro.utils import check_positive_int
from repro.utils.errors import InvalidParameterError


def average_stationary_generosity(k: int, beta: float, g_max: float) -> float:
    """``ẽg = Σ_j g_j p_j`` — the direct (numerically stable) expectation.

    Equals the Proposition 2.8 closed form exactly; preferred for
    computation, especially for ``β`` near ``1/2``.
    """
    grid = GenerosityGrid(k=k, g_max=g_max)
    weights = igt_stationary_weights(k, beta)
    return float(grid.values @ weights)


def generosity_closed_form(k: int, beta: float, g_max: float,
                           lam_tolerance: float = 1e-9) -> float:
    """The literal Proposition 2.8 closed form.

    Falls back to ``ĝ/2`` when ``λ`` is within ``lam_tolerance`` of 1
    (``β = 1/2``), where the rational expression is singular.
    """
    k = check_positive_int("k", k, minimum=2)
    if not 0.0 < g_max <= 1.0:
        raise InvalidParameterError(f"g_max must lie in (0, 1], got {g_max!r}")
    lam = igt_lambda(beta)
    if abs(lam - 1.0) <= lam_tolerance:
        return g_max / 2.0
    lam_k = lam**k
    term = lam_k / (lam_k - 1.0)
    correction = (1.0 / (k - 1)) * (lam / (lam - 1.0)) \
        * ((lam**(k - 1) - 1.0) / (lam_k - 1.0))
    return g_max * (term - correction)


def generosity_lower_bound(k: int, beta: float, g_max: float) -> float:
    """Corollary C.1: for ``β < 1/2`` (``λ > 1``),

    ``ẽg >= ĝ·(1 − 1/((λ−1)(k−1)))``.

    Shows the average generosity approaches the maximum ``ĝ`` at rate
    ``O(1/k)`` when AD agents are a sufficiently small minority.
    """
    k = check_positive_int("k", k, minimum=2)
    lam = igt_lambda(beta)
    if lam <= 1.0:
        raise InvalidParameterError(
            f"Corollary C.1 requires beta < 1/2 (lambda > 1), got "
            f"beta={beta!r}")
    return g_max * (1.0 - 1.0 / ((lam - 1.0) * (k - 1)))
