"""Ordered-pair laws: one class per law.

The paper's model has one source of randomness: at each step an ordered
pair of distinct agents is drawn.  Each pair law is one class, used alike
by the engines and by callers that drive a scheduler directly:

* :class:`RandomScheduler` — uniform over the ``n(n − 1)`` ordered pairs.
  Its draws use the "shift trick" (:func:`ordered_pair_block`): drawing
  the second member from ``n − 1`` values and bumping ties upward is
  exactly uniform over the agents distinct from the first.
* :class:`WeightedScheduler` — the initiator is drawn proportionally to a
  per-agent activity weight (one uniform per draw through a Walker alias
  table, O(1) per draw regardless of population size) and the responder
  proportionally to weight among the *remaining* agents, by vectorized
  rejection of clashes.  The pre-alias cumulative-sum inversion draw
  survives as :func:`inversion_draw_block` (with :func:`weight_cdf`): it
  is the reference law the alias table is chi-square-tested against.
* :class:`~repro.engine.topology.GraphScheduler` (in
  :mod:`repro.engine.topology`) — uniform over the directed edges of an
  interaction graph.

**Capability contract.**  Every law defines ``n``, ``rng``,
``pair_block(size)`` and ``others_block(first)`` (one
partner per given agent, for 4-slot models that read extra observed
agents), plus two plain attributes that say how it deviates from the
uniform law: ``weights`` (the per-agent activity weights; ``None`` means
uniform activity) and ``topology`` (the
:class:`~repro.engine.topology.InteractionGraph` bounding the pair
support; ``None`` means unrestricted).  Engine surfaces that cannot honor
a law read them to refuse loudly instead of silently falling back to the
uniform one.  :func:`~repro.engine.dispatch.make_law` builds a law from
the facades' ``weights=`` / ``topology=`` knobs.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.utils import as_generator, check_positive_int
from repro.utils.errors import InvalidParameterError


def ordered_pair_block(rng, n: int, size: int, first=None):
    """Vectorized batch of ``size`` uniform ordered pairs of distinct agents.

    Parameters
    ----------
    rng:
        The generator to draw from.
    n:
        Population size (``n >= 2``).
    size:
        Number of pairs.
    first:
        Optional pre-drawn first indices (e.g. to sample, for each given
        agent, one uniform *other* agent); drawn uniformly when omitted.
    """
    if first is None:
        first = rng.integers(0, n, size=size)
    second = rng.integers(0, n - 1, size=size)
    second = second + (second >= first)
    return first, second


def check_weights(weights) -> np.ndarray:
    """Validate a per-agent activity-weight vector and return it as float.

    Weights must be 1-D, cover at least 2 agents, and be positive and
    finite; the returned array is the caller's to normalize.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise InvalidParameterError(
            "weights must be a 1-D array of at least 2 agents")
    # Two reductions, no temporaries: a NaN fails the first comparison.
    if not (w.min() > 0 and np.isfinite(w.max())):
        raise InvalidParameterError("weights must be positive and finite")
    return w


def weight_cdf(weights: np.ndarray) -> np.ndarray:
    """Cumulative distribution over agents with an exact 1.0 endpoint.

    The inversion table behind :func:`inversion_draw_block` — kept as the
    independently-simple reference law the alias table is tested against.
    """
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    return cdf


def inversion_draw_block(rng, cdf: np.ndarray, size: int) -> np.ndarray:
    """``size`` independent agent draws from a weight CDF (inversion).

    One uniform per draw inverted through ``searchsorted`` — O(log n)
    per draw.  This was the production weighted draw before the alias
    table; it survives as the reference implementation the chi-square
    law-equality tests compare :meth:`AliasTable.draw_block` against.
    """
    return cdf.searchsorted(rng.random(size), side="right")


#: Vectorized alias-build rounds before falling back to the sequential
#: Vose loop (adversarial weight chains only; see :meth:`AliasTable`).
_ALIAS_MAX_ROUNDS = 64

#: Relative slack below/above 1.0 when classifying bucket residuals.
_ALIAS_TOL = 1e-12


class AliasTable:
    """Walker alias table over ``k`` outcomes: O(1) weighted draws.

    The table splits the scaled distribution ``p_i * k`` into ``k``
    unit-width buckets, each holding at most two outcomes: bucket ``i``
    keeps outcome ``i`` with threshold ``prob[i]`` and donates the rest
    to ``alias[i]``.  A draw spends **one** uniform: ``u * k`` selects
    the bucket (integer part) and the acceptance fraction (fractional
    part) simultaneously, so a block of ``size`` draws costs exactly
    ``size`` uniforms — the same stream consumption as the inversion
    sampler, but with different values (a different bitstream).

    The build is vectorized: per round, deficits of below-capacity
    buckets and excesses of above-capacity buckets are cumulative-summed
    and matched with one ``searchsorted``, so each small bucket takes
    its entire deficit from a single donor (the donor's residual stays
    positive because any over-donation is bounded by one deficit < 1).
    Rounds strictly shrink the unresolved set; pathological chains that
    exceed :data:`_ALIAS_MAX_ROUNDS` finish in the classic sequential
    Vose loop.  The build is deterministic, so a fixed seed still yields
    one schedule everywhere.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise InvalidParameterError(
                "alias table weights must be a non-empty 1-D array")
        if np.any(~np.isfinite(w)) or np.any(w <= 0):
            raise InvalidParameterError(
                "alias table weights must be positive and finite")
        self.k = w.size
        self.probabilities = w / w.sum()
        prob = self.probabilities * self.k
        alias = np.arange(self.k, dtype=np.int64)
        small = np.flatnonzero(prob < 1.0 - _ALIAS_TOL)
        large = np.flatnonzero(prob > 1.0 + _ALIAS_TOL)
        # The loop carries the unresolved buckets *compactly* (indices
        # plus their residual scaled mass) so each round touches only
        # the shrinking frontier, never the full-size arrays.
        small_mass = prob[small]
        large_mass = prob[large]
        rounds = 0
        while small.size and large.size and rounds < _ALIAS_MAX_ROUNDS:
            deficits = 1.0 - small_mass
            excesses = large_mass - 1.0
            # Water-filling: donor j covers cumulative-deficit interval
            # (E[j-1], E[j]]; assign each small to the donor containing
            # its cumulative-deficit endpoint.
            donor = np.minimum(
                np.searchsorted(np.cumsum(excesses), np.cumsum(deficits),
                                side="left"),
                large.size - 1)
            alias[small] = large[donor]
            prob[small] = small_mass
            taken = np.bincount(donor, weights=deficits,
                                minlength=large.size)
            residual = large_mass - taken
            shrunk = residual < 1.0 - _ALIAS_TOL
            still = residual > 1.0 + _ALIAS_TOL
            small = large[shrunk]
            small_mass = residual[shrunk]
            large = large[still]
            large_mass = residual[still]
            rounds += 1
        if small.size and large.size:
            prob[small] = small_mass
            prob[large] = large_mass
            self._finish_sequential(prob, alias, list(small), list(large))
        else:
            # Float dust: the leftovers' scaled mass is 1 up to rounding.
            prob[small] = 1.0
            prob[large] = 1.0
        self.prob = np.clip(prob, 0.0, 1.0)
        self.alias = alias

    @staticmethod
    def _finish_sequential(prob, alias, small, large):
        """Classic Vose pairing for adversarial leftover chains."""
        while small and large:
            s = small.pop()
            g = large[-1]
            alias[s] = g
            prob[g] -= 1.0 - prob[s]
            if prob[g] < 1.0 - _ALIAS_TOL:
                small.append(large.pop())
            elif prob[g] <= 1.0 + _ALIAS_TOL:
                large.pop()
        for leftover in small:
            prob[leftover] = 1.0
        for leftover in large:
            prob[leftover] = 1.0

    def draw_block(self, rng, size: int) -> np.ndarray:
        """``size`` independent draws, one uniform each.

        ``u * k`` yields the bucket (integer part) and the acceptance
        fraction (fractional part) in one multiply; the bucket keeps the
        draw when the fraction clears its threshold, else its alias
        takes it.
        """
        scaled = rng.random(size) * self.k
        bucket = np.minimum(scaled.astype(np.int64), self.k - 1)
        keep = (scaled - bucket) < self.prob[bucket]
        return np.where(keep, bucket, self.alias[bucket])


def weighted_pair_block(rng, table: AliasTable, size: int, first=None):
    """``size`` weighted ordered pairs of distinct agents.

    The initiator is weight-proportional; the responder is
    weight-proportional among the remaining agents, realized by redrawing
    clashes (vectorized rejection).  ``first`` supplies pre-drawn
    initiators (the 4-slot "observed other agent" use), in which case
    only responders are drawn.
    """
    if first is None:
        first = table.draw_block(rng, size)
    second = table.draw_block(rng, size)
    clashes = first == second
    while np.any(clashes):
        second[clashes] = table.draw_block(rng, int(clashes.sum()))
        clashes = first == second
    return first, second


class RandomScheduler:
    """Uniform ordered pairs of distinct agents — the paper's scheduler.

    Parameters
    ----------
    n:
        Population size (``n >= 2``).
    seed:
        Seed or generator; a generator is shared, not copied.
    """

    #: Uniform activity.
    weights = None

    #: Unrestricted pair support.
    topology = None

    def __init__(self, n: int, seed=None):
        self.n = check_positive_int("n", n, minimum=2)
        self.rng = as_generator(seed)

    def pair_block(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """``size`` ordered pairs of distinct agents."""
        size = check_positive_int("size", size)
        return ordered_pair_block(self.rng, self.n, size)

    def others_block(self, first) -> np.ndarray:
        """One uniform *other* agent per entry of ``first`` (shift trick)."""
        return ordered_pair_block(self.rng, self.n, len(first),
                                  first=first)[1]


class WeightedScheduler:
    """Activity-weighted ordered pairs of distinct agents.

    The paper's model samples pairs uniformly; real contact processes are
    heterogeneous.  Each agent carries a positive activity weight: the
    initiator is drawn proportionally to weight and the responder
    proportionally to weight among the remaining agents (rejection only
    on clashes).  With equal weights this is exactly
    :class:`RandomScheduler`'s *law*, though not its bitstream (alias
    draws, not the shift trick).

    Parameters
    ----------
    weights:
        Per-agent positive, finite activity weights (at least 2 agents).
        Only their ratios matter; :attr:`weights` keeps them as given
        (validated, not normalized), which is what the count-level
        ``(weight class × state)`` lift discretizes.
    seed:
        Seed or generator; a generator is shared, not copied.
    """

    #: Weighted but unrestricted: any pair remains possible.
    topology = None

    def __init__(self, weights, seed=None):
        self.weights = check_weights(weights)
        self.n = self.weights.size
        self.rng = as_generator(seed)

    @cached_property
    def table(self) -> AliasTable:
        """The alias table over :attr:`weights`, built on the first draw
        (a count-level run reads only :attr:`weights` and never pays for
        it)."""
        return AliasTable(self.weights)

    def pair_block(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """``size`` weighted ordered pairs (vectorized rejection)."""
        size = check_positive_int("size", size)
        return weighted_pair_block(self.rng, self.table, size)

    def others_block(self, first) -> np.ndarray:
        """One weighted *other* agent per entry of ``first`` (rejection)."""
        return weighted_pair_block(self.rng, self.table, len(first),
                                   first=np.asarray(first))[1]
