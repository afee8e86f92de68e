"""Biased lazy random walks: absorption and gambler's ruin.

Appendix A.4.1 reduces the coupling analysis to a single lazy biased walk
``{Z_t}`` on ``{-k, ..., k}`` started at 0 and absorbed at ``±k``
(Propositions A.6/A.7).  This module provides the closed forms from the
paper's martingale argument — absorption probabilities via the exponential
martingale ``(b/a)^{Z_t}`` and expected absorption times via the linear and
quadratic martingales — together with exact simulators for cross-validation.
The reflected walk on ``{1..k}`` that a single coupled coordinate follows
is the one-ball Ehrenfest process,
:class:`~repro.markov.ehrenfest.EhrenfestProcess` with ``m = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils import as_generator, check_positive_int
from repro.utils.errors import InvalidParameterError


@dataclass(frozen=True)
class BiasedWalkSpec:
    """Step law of a lazy biased walk: ``+1`` w.p. ``a``, ``-1`` w.p. ``b``.

    The walk is lazy whenever ``a + b < 1``.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise InvalidParameterError(
                f"a and b must be positive, got a={self.a!r}, b={self.b!r}")
        if self.a + self.b > 1.0 + 1e-12:
            raise InvalidParameterError(
                f"a + b must be at most 1, got {self.a + self.b!r}")

    @property
    def lam(self) -> float:
        """Bias ratio ``λ = a/b``."""
        return self.a / self.b

    @property
    def drift(self) -> float:
        """Per-step drift ``a − b``."""
        return self.a - self.b


def symmetric_interval_win_probability(k: int, a: float, b: float) -> float:
    """``p₊ = Pr[Z absorbed at +k]`` for ``Z_0 = 0`` on ``{-k..k}``.

    From the optional-stopping argument in Proposition A.7 (eq. 25):
    ``p₊ = (λ^k − 1) / (λ^k − λ^{-k})`` with ``λ = a/b``; ``1/2`` when
    ``a = b``.  Laziness does not affect absorption probabilities.
    """
    k = check_positive_int("k", k, minimum=1)
    spec = BiasedWalkSpec(a, b)
    if math.isclose(a, b):
        return 0.5
    lam = spec.lam
    return (lam**k - 1.0) / (lam**k - lam**(-k))


def expected_absorption_time(k: int, a: float, b: float) -> float:
    """Exact ``E[τ_absorb]`` for the lazy walk on ``{-k..k}`` from 0.

    For ``a ≠ b`` (Proposition A.7, eq. 26):
    ``E[τ] = k(2p₊ − 1)/(a − b)``.  For ``a = b`` the quadratic martingale
    ``Z_t² − (a+b)t`` gives ``E[τ] = k²/(a + b)``; the paper states the
    non-lazy specialization ``k²`` (``a + b = 1``) — the exact form here is
    simply that bound rescaled by the laziness factor ``1/(a+b)``.
    """
    k = check_positive_int("k", k, minimum=1)
    spec = BiasedWalkSpec(a, b)
    if math.isclose(a, b):
        return k * k / (a + b)
    p_plus = symmetric_interval_win_probability(k, a, b)
    return k * (2.0 * p_plus - 1.0) / spec.drift


def paper_absorption_bound(k: int, a: float, b: float) -> float:
    """The bound of Lemma A.5: ``min{k/|a−b|, k²}`` (``k²`` when ``a = b``).

    Stated by the paper for the per-coordinate coalescence count; exact up to
    the laziness constant ``1/(a+b)`` (see :func:`expected_absorption_time`).
    """
    k = check_positive_int("k", k, minimum=1)
    BiasedWalkSpec(a, b)
    if math.isclose(a, b):
        return float(k * k)
    return min(k / abs(a - b), float(k * k))


def gamblers_ruin_win_probability(start: int, target: int, a: float, b: float) -> float:
    """``Pr[hit target before 0]`` for a biased walk on ``{0..target}``.

    Classical gambler's ruin: ``(1 − (b/a)^start) / (1 − (b/a)^target)`` for
    ``a ≠ b`` and ``start/target`` when ``a = b``.
    """
    target = check_positive_int("target", target, minimum=1)
    start = check_positive_int("start", start, minimum=0)
    if start > target:
        raise InvalidParameterError(f"start={start} exceeds target={target}")
    spec = BiasedWalkSpec(a, b)
    if start == 0:
        return 0.0
    if start == target:
        return 1.0
    if math.isclose(a, b):
        return start / target
    ratio = 1.0 / spec.lam
    return (1.0 - ratio**start) / (1.0 - ratio**target)


def simulate_absorption_time(k: int, a: float, b: float, seed=None,
                             max_steps: int | None = None) -> tuple[int, int]:
    """Simulate one absorption of the lazy walk on ``{-k..k}`` from 0.

    Returns ``(tau, endpoint)`` where ``endpoint`` is ``+k`` or ``-k``.
    Draws laziness exactly (each step consumes one time unit even when the
    position does not move).
    """
    k = check_positive_int("k", k, minimum=1)
    spec = BiasedWalkSpec(a, b)
    rng = as_generator(seed)
    if max_steps is None:
        max_steps = int(200 * expected_absorption_time(k, a, b)) + 10_000
    position = 0
    block = 65536
    t = 0
    while t < max_steps:
        uniforms = rng.random(min(block, max_steps - t))
        for u in uniforms:
            t += 1
            if u < spec.a:
                position += 1
            elif u < spec.a + spec.b:
                position -= 1
            if position == k or position == -k:
                return t, position
    raise InvalidParameterError(
        f"walk not absorbed within {max_steps} steps; raise max_steps")
