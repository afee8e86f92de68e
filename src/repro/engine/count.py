"""Exact count-level simulation backend: the one count-chain driver.

Under the uniform scheduler the state-count vector is itself a Markov chain
(the paper's Section 2.2.1 embedding: transition probabilities depend on
the sampled agents only through their states), so the dynamics can be
simulated on counts alone — with *exactly* the same law as the per-agent
chain — in vectorized batches.  That removes the per-agent memory and the
Python-per-interaction cost and makes populations of ``n = 10^7`` and
beyond practical.

The batching scheme ("birthday runs")
-------------------------------------

Sampling agents uniformly, the first ``j`` interactions of a batch involve
``slots_per_step·j`` *distinct* agents with probability given by a
birthday-problem product that depends only on ``n`` — not on the counts.
The backend therefore repeats:

1. Draw the number ``T`` of leading interactions whose participants are all
   distinct — one uniform plus a ``searchsorted`` into a precomputed
   collision-time CDF (cached per ``(n, slots_per_step)``).
2. Process those ``T`` interactions in one shot.  Their participants are
   distinct, hence a without-replacement sample from the count vector,
   and the interactions commute, so the counts move by the sample's
   outcome in any order.  For models with component tables the batch is
   composition arithmetic (below); other models (stochastic laws and
   4-slot rules) draw the sample's composition, expand it into per-slot
   states, shuffle them, and apply the model per slot.
3. Resolve the single *collision* interaction that ends the run exactly:
   its repeat/fresh slot pattern is drawn from its exact conditional law
   given that at least one slot repeats; a repeated participant's state
   is drawn from the histogram of the touched agents' current states
   (with the one agent it must differ from removed), a fresh one's from
   the untouched remainder.  Then a new run starts.

For models with component tables, step 2 never materializes slots.
The batch's effect depends only on how many interactions fall in each
*cell* — ``(component, initiator state, responder class)``, where a
class groups the responder states whose outcome columns agree in every
table of a one-way model (k-IGT has two, AD and non-AD; two-way tables
use one class per state) — and the cell counts are drawn directly:

* one multivariate hypergeometric draw gives the ``2T`` participants'
  composition, and one more the initiators' share of it (the rest are
  the responders);
* a uniform matching pairs initiators with responders: each responder
  class beyond the first picks its initiators by one multivariate
  hypergeometric split of the initiators still unpaired;
* one multinomial per (initiator state, responder class) pair splits
  it over the mixture components;
* each cell's table outcome, times its count, moves the counts.

Every draw above is from the true process law — no approximation is made —
so trajectories are distribution-identical to the agent backend (property
tests check this against the exact chains in :mod:`repro.markov`).  The
expected run length is ``Θ(√n)`` interactions, which is also the speedup
scale over per-interaction simulation.

Observation / stop-check boundaries do **not** split batches.  The
driver hands the law the checkpoint offsets inside a clean run and gets
back one count delta per segment between them: a composition batch
splits its cells over the segments by successive multivariate
hypergeometric draws (the run's interactions are exchangeable, so each
segment's cells are a without-replacement sample of the batch's) — or,
when a batch holds at least as many checkpoints as occupied cells, by
one random order of its cell labels — and a per-slot batch sums its
slots' pre- and post-states per segment.
Snapshots for ``observe_every`` and predicate evaluations for
``check_stop_every`` are taken between segments, and an early stop
leaves the remaining segments unapplied (exact: the next batch
re-samples the discarded future from the process law, which is Markov
in the counts).  Observed or stop-checked runs therefore keep
near-unobserved throughput even at ``check_stop_every=1``.
Before every predicate call — on both paths — :attr:`counts_live` is
refreshed to the counts the predicate is handed, so predicates reading
engine state instead of their argument see current values.

The proxy fast path (small and medium ``n``)
--------------------------------------------

Birthday runs are ``Θ(√n)`` interactions, so their fixed per-run cost
dominates at small ``n`` — the regime where the count backend used to
*lose* to the agent backend.  Up to :data:`PROXY_MAX_N` agents the
backend therefore runs every model the :mod:`repro.engine.vectorized`
kernel runs (every pairwise model, and one-way stochastic 4-slot ones
such as imitation) on a per-agent state array, drawing pairs and
observed agents through a
:class:`~repro.engine.sampling.RandomScheduler` on its own generator,
as the agent backend does: by exchangeability, uniform sampling over
*any* assignment of states to agents that agrees with the counts
projects to exactly the count-level chain, so the law is untouched
while throughput matches the agent backend (tens of millions of
interactions/s instead of ~0.5M at ``n = 10^3``).  The arrangement
carries no information, so the engine's state is its count vector
alone: every ``run`` call starts by writing the chain's *canonical
expansion* into the array (each state's agents contiguous, in a fixed
state order with inert states last), and snapshots hold no per-agent
block.  The per-agent array stays internal — :attr:`CountBackend.states`
is still ``None`` — and the ``O(n)`` memory is only paid where it is
trivially affordable; beyond :data:`PROXY_MAX_N` the ``O(k)``-memory
birthday path wins anyway.

One driver, pluggable laws
--------------------------

:class:`CountBackend` holds the only count-chain driver: construction
checks and the proxy/birthday choice, ``run`` (kernel path and birthday
loop), checkpoint materialization, and snapshots.
It runs on a *chain array* that the proxy kernel adopts and the birthday
path mutates, and keeps a separate length-``S`` live view
(:attr:`counts_live`, which facades alias) refreshed from
:meth:`CountBackend._project` of the chain before every stop predicate
and at the end of every ``run``.  Here the chain is the state-count
vector and the projection the identity.
:class:`~repro.engine.weighted.WeightedCountBackend` subclasses it with
the ``(weight class × state)`` chain and keeps only its law: the
projection (a sum over classes), the proxy kernel and the pair law that
drives it, the birthday window draw, the clean run (which returns its
per-segment deltas for the driver to apply) and the collision resolver,
and four class constants (snapshot ``kind``, the chain's payload key,
the proxy ceiling, and ``_INERT_LAST``, off so the proxy's expansion
stays class-major and keeps each class inside its block of the pair
law's weights).  Which path runs follows from the model and ``n``
alone; tests reach the birthday path below the ceiling through a
subclass that sets ``_PROXY_MAX_N = 0``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.base import EngineResult, SimulationEngine
from repro.engine.model import (
    InteractionModel,
    draws_uniform,
    responder_classes,
)
from repro.engine.observe import ObserverSink
from repro.engine.sampling import RandomScheduler
from repro.engine.vectorized import ConflictFreeKernel, run_kernel
from repro.utils import as_generator, check_int_array
from repro.utils.errors import InvalidParameterError

#: Largest population the array-proxy fast path is used for (beyond it
#: the birthday path is faster *and* O(k) memory starts to matter).
PROXY_MAX_N = 1_000_000

#: Collision-time CDFs keyed by ``(n, slots_per_step)``.
_CDF_CACHE: dict[tuple[int, int], np.ndarray] = {}

#: Truncate the collision-time table once the survival probability of a
#: longer all-distinct run drops below this (the remainder is handled
#: exactly by capping runs at the table length).
_SURVIVAL_FLOOR = 1e-15

#: numpy's ``multivariate_hypergeometric`` (default ``method=
#: "marginals"``) raises for totals at or above this, and its
#: ``method="count"`` costs O(total) time and memory — populations past
#: the ceiling use the exact distinct-index fallback instead.
_MARGINALS_MAX_TOTAL = 10**9


def sample_without_replacement(rng, counts, n_slots: int) -> np.ndarray:
    """Exact multivariate-hypergeometric draw at any population size.

    Below numpy's ``method="marginals"`` ceiling this *is* numpy's
    sampler, bitstream-identical to calling it directly.  At or above
    :data:`_MARGINALS_MAX_TOTAL` — where numpy refuses — the draw is
    performed as ``n_slots`` *distinct* uniform indices in
    ``[0, total)`` (iid draws with duplicate rejection, which is
    exactly the uniform-subset law) mapped to states through the count
    prefix sums.  Totals are handled as Python ints and ``int64``
    indices throughout, so the arithmetic is exact up to ``2^63 - 1``
    agents; expected rejection overhead is ``O(n_slots^2 / total)``
    redraws — negligible in the birthday regime ``n_slots = O(√n)``.
    Duplicates are dropped by a sort and a neighbour comparison, which
    returns exactly what ``np.unique`` would at a fraction of its cost.
    """
    total = int(counts.sum())
    if total < _MARGINALS_MAX_TOTAL:
        return rng.multivariate_hypergeometric(counts, n_slots)
    if n_slots > total:
        raise InvalidParameterError(
            f"cannot draw {n_slots} distinct agents from {total}")
    bounds = np.cumsum(counts)
    chosen = np.empty(0, dtype=np.int64)
    need = int(n_slots)
    while need:
        draw = rng.integers(0, total, size=need, dtype=np.int64)
        merged = np.sort(np.concatenate((chosen, draw)))
        first = np.empty(merged.size, dtype=bool)
        first[:1] = True
        np.not_equal(merged[1:], merged[:-1], out=first[1:])
        chosen = merged[first]
        need = int(n_slots) - chosen.size
    return np.bincount(bounds.searchsorted(chosen, side="right"),
                       minlength=len(counts))


def _slot_segments(before, after, cuts, spp: int, total) -> list:
    """Per-segment chain deltas of a per-slot batch.

    ``before``/``after`` are the batch's per-slot pre/post chain states
    and ``total`` its whole chain delta; segments end at the interaction
    offsets ``cuts`` and at the batch's end, whose delta is what the
    earlier segments leave of ``total``.
    """
    segments = []
    lo = 0
    for hi in cuts:
        delta = np.bincount(after[lo * spp:hi * spp], minlength=total.size)
        delta -= np.bincount(before[lo * spp:hi * spp], minlength=total.size)
        total = total - delta
        segments.append(delta)
        lo = hi
    segments.append(total)
    return segments


class _CellLaw:
    """A table model's clean run as cell arithmetic (module docstring).

    A cell is ``(component, initiator state, responder class)``, flattened
    component-major; :attr:`delta` holds each cell's count change per
    interaction.
    """

    def __init__(self, tables, probs, by_class: bool):
        tables = np.stack(tables)
        components, s = tables.shape[:2]
        class_of = responder_classes(tables) if by_class else np.arange(s)
        classes = int(class_of.max()) + 1
        self.members = np.zeros((s, classes), dtype=np.int64)
        self.members[np.arange(s), class_of] = 1
        self.probs = None if components == 1 else np.asarray(probs, float)
        comp, u, j = np.meshgrid(np.arange(components), np.arange(s),
                                 np.arange(classes), indexing="ij")
        comp, u, j = comp.ravel(), u.ravel(), j.ravel()
        v = self.members.argmax(axis=0)[j]  # each class's first state
        cells = np.arange(comp.size)
        self.delta = np.zeros((comp.size, s), dtype=np.int64)
        np.add.at(self.delta, (cells, u), -1)
        np.add.at(self.delta, (cells, tables[comp, u, v, 0]), 1)
        np.add.at(self.delta, (cells, v), -1)
        np.add.at(self.delta, (cells, tables[comp, u, v, 1]), 1)
        self.states = s

    def draw(self, rng, sampled, t: int) -> np.ndarray:
        """Cell counts of ``t`` interactions among the agents ``sampled``."""
        initiators = rng.multivariate_hypergeometric(sampled, t)
        responders = (sampled - initiators) @ self.members
        unpaired = initiators
        paired = np.empty((self.states, responders.size), dtype=np.int64)
        for j in range(1, responders.size):
            column = (rng.multivariate_hypergeometric(unpaired, responders[j])
                      if responders[j] else 0)
            paired[:, j] = column
            unpaired = unpaired - column
        paired[:, 0] = unpaired
        if self.probs is None:
            return paired.ravel()
        return rng.multinomial(paired.ravel(), self.probs).T.ravel()

    def split(self, rng, cells, cuts) -> tuple:
        """The batch's cells per segment between the offsets ``cuts``.

        Returns ``(used, parts)``: row ``i`` of ``parts`` counts segment
        ``i``'s interactions over the cells ``used``.  The batch's
        interactions are in uniformly random order, so each segment's
        cells are a multivariate hypergeometric split of the cells the
        earlier segments left — one draw per cut.  With at least as
        many cuts as occupied cells, one random order of the batch's
        cell labels (one per interaction) is cheaper than that many
        draws, and is the same law.
        """
        if not cuts:
            return slice(None), cells[None, :]
        used = np.flatnonzero(cells)
        left = cells[used]
        if len(cuts) < used.size:
            parts = np.empty((len(cuts) + 1, used.size), dtype=np.int64)
            for row, (lo, hi) in enumerate(zip([0, *cuts], cuts)):
                parts[row] = rng.multivariate_hypergeometric(left, hi - lo)
                left = left - parts[row]
            parts[-1] = left
            return used, parts
        sizes = np.diff([0, *cuts, int(left.sum())])
        order = rng.permutation(np.repeat(np.arange(used.size), left))
        segment = np.repeat(np.arange(sizes.size), sizes)
        parts = np.bincount(segment * used.size + order,
                            minlength=sizes.size * used.size)
        return used, parts.reshape(sizes.size, used.size)

    def segments(self, rng, cells, cuts) -> np.ndarray:
        """The count delta of each segment between ``cuts``, one per row."""
        used, parts = self.split(rng, cells, cuts)
        return parts @ self.delta[used]


def _collision_cdf(n: int, slots_per_step: int) -> np.ndarray:
    """CDF of the first-collision interaction index for population ``n``.

    Entry ``t`` is the probability that the first ``t`` interactions do
    *not* all involve distinct agents; ``1 − cdf[t]`` is the birthday
    survival product.  Depends only on ``(n, slots_per_step)`` and is
    cached.
    """
    key = (n, slots_per_step)
    cached = _CDF_CACHE.get(key)
    if cached is not None:
        return cached
    horizon = int(8.5 * math.sqrt(n) / slots_per_step) + 16
    horizon = min(horizon, n // slots_per_step + 1)
    t = np.arange(horizon, dtype=float)
    d = slots_per_step * t  # distinct agents before interaction t
    if slots_per_step == 2:
        factors = (n - d) * (n - d - 1) / (n * (n - 1.0))
    else:
        factors = ((n - d) * (n - d - 1) * (n - d - 2) * (n - d - 3)
                   / (n * (n - 1.0) ** 3))
    np.clip(factors, 0.0, 1.0, out=factors)
    survival = np.empty(horizon + 1)
    survival[0] = 1.0
    np.cumprod(factors, out=survival[1:])
    keep = np.nonzero(survival >= _SURVIVAL_FLOOR)[0]
    last = int(keep[-1]) + 1 if keep.size else 1
    cdf = 1.0 - survival[:last + 1]
    _CDF_CACHE[key] = cdf
    return cdf


def _cadence_offsets(done, every, limit) -> range:
    """Offsets ``j`` in ``[1, limit]`` with ``(done + j) % every == 0``.

    ``done`` counts interactions already executed by the enclosing ``run``
    call, so the returned offsets are the points inside the next ``limit``
    interactions that land on the run-relative cadence grid.
    """
    if every is None:
        return range(0)
    first = every - done % every
    return range(first, limit + 1, every)


class _ProjectingSink(ObserverSink):
    """Project chain counts to live state counts on the way into the
    user's sink, preserving stream order.

    The proxy kernel observes its chain array; users observe state
    counts.  Projecting per emit (instead of post-hoc) keeps streaming
    and reducing sinks constant-memory on a lifted proxy path.
    """

    def __init__(self, inner: ObserverSink, project) -> None:
        self._inner = inner
        self._project = project

    def emit(self, step, counts, states=None) -> None:
        self._inner.emit(step, self._project(counts))


class CountBackend(SimulationEngine):
    """Count-level engine for an :class:`InteractionModel`.

    Parameters
    ----------
    model:
        The interaction law (its outcome may depend on the participants'
        states only — guaranteed by the model contract).
    initial_counts:
        Length-``n_states`` non-negative integer count vector summing to
        the population size ``n >= 2``.
    seed:
        Seed or generator.
    scheduler:
        Optional pair law sharing its randomness stream with the
        caller.  The count chain *is* the uniform scheduler's law, so
        only laws with ``weights is None`` can be honored — their
        ``rng`` is adopted; the batched paths never call
        ``pair_block``, which is exactly distribution-preserving.
        A law with non-uniform ``weights`` breaks the
        exchangeability this backend is built on and is rejected loudly
        (use :class:`~repro.engine.weighted.WeightedCountBackend`, the
        ``(weight class × state)`` lift, instead) — never silently
        downgraded to the uniform law.  A law with a ``topology`` is
        accepted exactly when the graph is
        vertex-transitive: every agent is then equivalent, the graph's
        directed-edge law has uniform single-interaction marginals, and
        the count run simulates the graph's *degree-annealed* chain —
        which coincides with the quenched graph process for the complete
        graph and for partner-blind one-way models, and deliberately
        differs from it otherwise (pin the agent backend to study the
        quenched process).  Irregular graphs are rejected loudly with a
        pointer to the agent backend and to
        :meth:`~repro.engine.topology.InteractionGraph.degree_weights`.
    """

    #: Snapshot ``kind``, payload key of the chain array, proxy
    #: ceiling, and whether the proxy's expansion may put inert states
    #: last (uniform pair draws treat all agents alike) — the constants
    #: a lifted law overrides.
    _KIND = "count"
    _CHAIN_KEY = "counts"
    _PROXY_MAX_N = PROXY_MAX_N
    _INERT_LAST = True

    def __init__(self, model: InteractionModel, initial_counts, seed=None,
                 scheduler=None):
        counts = check_int_array("initial_counts", initial_counts).copy()
        if counts.size != model.n_states:
            raise InvalidParameterError(
                f"initial_counts must be a 1-D vector of length "
                f"{model.n_states}, got shape {counts.shape}")
        self._setup(model, counts, seed, scheduler)

    def _setup(self, model, chain, seed, scheduler=None) -> None:
        """Construction shared by both count engines.

        Validates the population held in ``chain``, adopts a uniform
        ``scheduler``'s generator, picks the proxy or the birthday path,
        and allocates the live view.  The proxy runs up to
        :attr:`_PROXY_MAX_N` agents whenever the kernel runs the model:
        every pairwise model, and one-way stochastic 4-slot ones.
        """
        self.model = model
        if chain.min() < 0:
            raise InvalidParameterError("counts must be non-negative")
        self.n = int(chain.sum())
        if self.n < 2:
            raise InvalidParameterError(
                f"population must have at least 2 agents, got n={self.n}")
        if scheduler is not None:
            if scheduler.weights is not None:
                raise InvalidParameterError(
                    "CountBackend simulates the exchangeable count chain; "
                    "a weighted scheduler breaks exchangeability and "
                    "cannot be honored here — use WeightedCountBackend "
                    "(the weight-class × state lift) or the agent backend")
            topology = scheduler.topology
            if topology is not None and not topology.vertex_transitive:
                degrees = topology.degrees
                raise InvalidParameterError(
                    f"CountBackend tracks exchangeable state counts; the "
                    f"interaction graph '{topology.name}' (degrees "
                    f"{int(degrees.min())}..{int(degrees.max())}) is not "
                    f"vertex-transitive, so agents are distinguishable "
                    f"and the count chain is not defined — use the agent "
                    f"backend for the quenched graph process, or "
                    f"WeightedCountBackend with the graph's "
                    f"degree_weights() for its annealed mean-field chain")
            if scheduler.n != self.n:
                raise InvalidParameterError(
                    f"scheduler is over n={scheduler.n} agents, "
                    f"population has n={self.n}")
            seed = scheduler.rng
        self._rng = as_generator(seed)
        self._draws = draws_uniform(model)  # refused here on both paths
        self._spp = model.slots_per_step
        if self._spp not in (2, 4):
            raise InvalidParameterError(
                f"slots_per_step must be 2 or 4, got {self._spp}")
        if self._spp == 4 and self.n < 4:
            raise InvalidParameterError(
                "models observing extra agents need n >= 4 for an "
                "all-distinct interaction to exist")
        self._chain = chain
        self._kernel = None
        if self.n <= self._PROXY_MAX_N and (
                self._spp == 2 or (model.one_way
                                   and model.component_tables is None)):
            self._kernel = self._proxy_kernel()
            # The state order of :meth:`_expand`.  Inert states form a
            # contiguous tail when the kernel filters them, so its inert
            # filter is one index comparison.
            self._order = np.arange(chain.size)
            self._inert = None
            inert = model.inert_states
            if self._INERT_LAST and inert is not None:
                self._inert = np.asarray(inert, dtype=bool)
                self._order = np.concatenate((self._order[~self._inert],
                                              self._order[self._inert]))
        else:
            self._init_birthday()
        self._counts = self._project(chain).copy()
        self.steps_run = 0

    @property
    def rng(self) -> np.random.Generator:
        """The backend's generator."""
        return self._rng

    def _refresh(self, chain) -> np.ndarray:
        """Write the projection of ``chain`` into the live counts."""
        self._counts[:] = self._project(chain)
        return self._counts

    # ------------------------------------------------------------------
    # Snapshot / restore (the crash-safety contract; see engine.snapshot)
    # ------------------------------------------------------------------
    def snapshot(self) -> "SnapshotState":
        """Exact mutable state between runs, for :meth:`restore`.

        A count engine's mutable surface is the chain array, the live
        counts, the step cursor and the generator position — everything
        else is a construction constant, and the proxy's per-agent array
        is rewritten from the chain at the start of every ``run``.
        Arrays are captured as copies.
        """
        from repro.engine.snapshot import SnapshotState, rng_state

        return SnapshotState(kind=self._KIND, payload={
            **self._structure(),
            "proxy": self._kernel is not None,
            "steps_run": int(self.steps_run),
            # In the uniform engine the chain key *is* "counts".
            self._CHAIN_KEY: self._chain.copy(),
            "counts": self._counts.copy(),
            "rng": rng_state(self._rng),
        })

    def restore(self, snapshot: "SnapshotState") -> None:
        """Adopt a snapshot taken by an identically constructed engine.

        Every array is checked first — shapes, a non-negative chain
        summing to ``n`` with this engine's class sizes (a lift's agents
        never change weight class), counts projecting from the chain — so
        a refused snapshot writes nothing.  All arrays are then written
        *in place* — facades alias :attr:`counts_live` and the proxy
        kernel adopts the chain array, so nothing may be reallocated.
        """
        from repro.engine.snapshot import (
            SnapshotError,
            _check_population,
            _snapshot_array,
            check_snapshot,
            restore_rng,
        )

        payload = check_snapshot(snapshot, self._KIND, **self._structure(),
                                 proxy=self._kernel is not None)
        chain = _snapshot_array(payload, self._CHAIN_KEY, self._chain)
        counts = _snapshot_array(payload, "counts", self._counts)
        _check_population(chain, self.n)
        classes = self._chain.size // self.model.n_states
        sizes = chain.reshape(classes, -1).sum(axis=1)
        own = self._chain.reshape(classes, -1).sum(axis=1)
        if not np.array_equal(sizes, own):
            raise SnapshotError(
                f"snapshot class sizes {sizes.tolist()} differ from the "
                f"restoring engine's {own.tolist()}")
        if not np.array_equal(counts, self._project(chain)):
            raise SnapshotError("snapshot counts disagree with its chain")
        restore_rng(self._rng, payload["rng"])
        self._chain[:] = chain
        self._counts[:] = counts
        self.steps_run = int(payload["steps_run"])

    def run(self, max_steps: int, stop_when=None,
            observe_every: int | None = None,
            check_stop_every: int = 1, observe=None) -> EngineResult:
        (max_steps, observe_every, check_stop_every, sink,
         stopped) = self._prepare_run(max_steps, stop_when, observe_every,
                                      check_stop_every, observe)
        done = 0
        converged = stopped
        if not stopped and self._kernel is not None and max_steps > 0:
            self._expand()
            fresh_stop = None
            if stop_when is not None:
                def fresh_stop(chain):
                    return stop_when(self._refresh(chain))
            done, converged = run_kernel(
                self._kernel, self._law, max_steps, self.steps_run,
                fresh_stop, observe_every, check_stop_every,
                _ProjectingSink(sink, self._project))
        elif not stopped:
            while done < max_steps:
                executed, converged = self._advance(
                    max_steps - done, done, stop_when, observe_every,
                    check_stop_every, sink)
                done += executed
                if converged:
                    break
        self.steps_run += done
        self._refresh(self._chain)
        sink.flush()
        return EngineResult(counts=self._counts.copy(), steps=self.steps_run,
                            converged=converged, observations=sink.records)

    # ------------------------------------------------------------------
    # Birthday-run batching: the law-independent driver
    # ------------------------------------------------------------------
    def _advance(self, budget: int, done: int, stop_when, observe_every,
                 check_stop_every, sink) -> tuple[int, bool]:
        """Execute one birthday-run batch of between 1 and ``budget`` steps.

        ``done`` is the number of interactions the enclosing ``run`` call
        already executed.  Observation snapshots and stop checks whose
        run-relative cadence points fall inside the batch do not split
        it: the law returns the clean run's count delta per segment
        between those checkpoints, and the driver applies the segments
        in order, observing and checking between them.  Returns
        ``(executed, converged)``; on an early stop the segments after
        the firing checkpoint (and the collision) are never applied.
        """
        t, collides, window = self._draw_batch(budget)
        executed = t + 1 if collides else t
        obs_at = _cadence_offsets(done, observe_every, executed)
        stop_at = (_cadence_offsets(done, check_stop_every, executed)
                   if stop_when is not None else range(0))
        cuts = (sorted({*obs_at, *stop_at} - {t + 1})
                if obs_at or stop_at else [])
        segments, resolve = self._run_clean(t, window, cuts)
        base = self.steps_run + done
        for offset, delta in zip([*cuts, None], segments):
            self._chain += delta
            if offset is not None and self._checkpoint(
                    base, offset, obs_at, stop_at, stop_when, sink):
                return offset, True
        # Without a collision inside the budget only the event {first
        # collision > t} was consumed; the next batch re-samples it, which
        # is exact because the chain is Markov in its counts.
        if collides:
            self._run_collision(t, window, *resolve)
            if self._checkpoint(base, executed, obs_at, stop_at, stop_when,
                                sink):
                return executed, True
        return executed, False

    def _checkpoint(self, base, offset, obs_at, stop_at, stop_when,
                    sink) -> bool:
        """Observe and stop-check at batch ``offset``; True when stopping.

        The live counts are refreshed before the predicate runs.
        """
        if offset in obs_at:
            sink.emit(base + offset, self._project(self._chain))
        return offset in stop_at and bool(
            stop_when(self._refresh(self._chain)))

    # ------------------------------------------------------------------
    # The uniform law: what a lift overrides
    # ------------------------------------------------------------------
    @staticmethod
    def _project(chain) -> np.ndarray:
        """State counts of a chain array (the identity: the uniform chain
        *is* the state-count vector)."""
        return chain

    def _structure(self) -> dict:
        """Construction invariants a snapshot records and restore checks."""
        return {"n": int(self.n), "n_states": int(self.model.n_states)}

    def _proxy_kernel(self) -> ConflictFreeKernel:
        """The kernel over a per-agent array that :meth:`_expand` fills,
        and the uniform pair law :attr:`_law` that drives it."""
        model = self.model
        self._law = RandomScheduler(self.n, self._rng)
        return ConflictFreeKernel(
            model, np.empty(self.n, dtype=model.state_dtype), self._chain)

    def _expand(self) -> None:
        """Write the chain's canonical expansion into the kernel's states.

        Each state's agents fill one contiguous block, in the order
        :attr:`_order`.  Exchangeability makes pair sampling over any
        arrangement that agrees with the chain the exact chain, so every
        proxy run may start from this one, and a restored engine starts
        its next run exactly where the original would.
        """
        states = self._kernel.states
        end = 0
        for state, count in zip(self._order.tolist(),
                                self._chain[self._order].tolist()):
            states[end:end + count] = state
            end += count
        if self._inert is not None:
            self._kernel.inert_index_bound = int(
                self._chain[~self._inert].sum())

    def _init_birthday(self) -> None:
        """Construction constants of the birthday path.

        Pairwise models with component tables get their cell structure;
        every other model runs per-slot batches.
        """
        model = self.model
        self._cdf = _collision_cdf(self.n, self._spp)
        self._state_ids = np.arange(model.n_states)
        self._cells = None
        tables = model.component_tables
        if self._spp == 2 and tables is not None:
            self._cells = _CellLaw(tables, model.component_probs,
                                   model.one_way)

    def _draw_batch(self, budget: int):
        """Draw one batch window: ``(t, collides, window)``.

        ``t`` is the clean-run length and ``collides`` whether the
        collision interaction ends the batch inside ``budget``;
        ``window`` carries what :meth:`_run_clean` and
        :meth:`_run_collision` consume — here one uniform block covering
        the collision-time draw plus the collision interaction's
        repeat/fresh decisions (independent uniforms; the unused tail is
        simply discarded).
        """
        cdf = self._cdf
        horizon = len(cdf) - 1
        uniforms = self._rng.random(1 + self._spp)
        first_collision = int(cdf.searchsorted(uniforms[0], side="right")) - 1
        clean_cap = min(budget, horizon)
        collides = first_collision < clean_cap
        t = first_collision if collides else clean_cap
        return t, collides, uniforms

    def _run_clean(self, t: int, window, cuts):
        """Draw ``t`` interactions among all-distinct agents.

        Returns ``(segments, resolve)``: the count delta of each segment
        of the run split at the interaction offsets ``cuts``, for the
        driver to apply, and the arguments of :meth:`_run_collision` —
        the touched agents' post-run state histogram and the untouched
        remainder's counts.
        """
        chain = self._chain
        if t == 0:
            return [], (np.zeros_like(chain), chain.copy())
        rng = self._rng
        sampled = sample_without_replacement(rng, chain, t * self._spp)
        if self._cells is not None:
            cells = self._cells.draw(rng, sampled, t)
            segments = self._cells.segments(rng, cells, cuts)
            touched = sampled + cells @ self._cells.delta
        else:
            segments, touched = self._run_slots(sampled, cuts)
        return segments, (touched, chain - sampled)

    def _run_slots(self, sampled, cuts):
        """Per-slot batch: shuffle the sample into slots, apply the model.

        Returns the segments and the touched agents' post-run histogram.
        """
        spp = self._spp
        s = self.model.n_states
        slots = np.repeat(self._state_ids, sampled)
        self._rng.shuffle(slots)
        initiators = slots[0::spp]
        responders = slots[1::spp]
        observed = None
        if spp == 4:
            observed = (slots[2::spp], slots[3::spp])
        uniforms = self._rng.random(initiators.size) if self._draws else None
        new_u, new_v = self.model.apply(initiators, responders, uniforms,
                                        observed)
        updated = slots.copy()
        updated[0::spp] = new_u
        updated[1::spp] = new_v
        touched = np.bincount(updated, minlength=s)
        return (_slot_segments(slots, updated, cuts, spp, touched - sampled),
                touched)

    def _rest_all_fresh(self, position: int, distinct: int) -> float:
        """P(slots ``position..spp-1`` all hit unseen agents | ``distinct``)."""
        probability = 1.0
        n = self.n
        for _ in range(position, self._spp):
            probability *= max(n - distinct, 0) / (n - 1.0)
            distinct += 1
        return probability

    def _run_collision(self, t: int, uniforms, touched, pool) -> None:
        """Resolve the interaction that ends a clean run, exactly.

        ``touched`` is the histogram of the clean run's agents' current
        states, ``pool`` counts the untouched agents, and ``uniforms[1:]``
        are pre-drawn repeat/fresh decision variables.  The interaction's
        slot pattern (which of its participants repeat an already-touched
        agent) is drawn from its exact conditional law given that at
        least one repeats.  A repeated participant is a uniform touched
        agent other than the one it must differ from (the shift-trick
        exclusion), so its state is drawn from ``touched`` minus that
        agent's state; a fresh one is drawn from ``pool`` and joins the
        touched agents.  Only states matter to the count chain, so agent
        identities are never tracked.
        """
        rng = self._rng
        n = self.n
        spp = self._spp
        touched = touched.tolist()
        pool = pool.tolist()
        distinct = t * spp
        pool_total = n - distinct
        slot_states = [0] * spp
        # Each slot's "distinct from" constraint: the slot whose agent it
        # may not be.
        exclusions = (None, 0, 0, 1) if spp == 4 else (None, 0)
        need_repeat = True
        for position in range(spp):
            denominator = n if position == 0 else n - 1
            p_fresh = (n - distinct) / denominator
            if need_repeat:
                rest = self._rest_all_fresh(position + 1, distinct + 1)
                p_any = 1.0 - p_fresh * rest
                is_repeat = (uniforms[position + 1] * max(p_any, 1e-300)
                             < 1.0 - p_fresh)
            else:
                is_repeat = uniforms[position + 1] < 1.0 - p_fresh
            if is_repeat:
                need_repeat = False
                excluded = exclusions[position]
                barred = -1 if excluded is None else slot_states[excluded]
                pick = int(rng.integers(distinct - (barred >= 0)))
                state = 0
                acc = touched[0] - (barred == 0)
                while acc <= pick:
                    state += 1
                    acc += touched[state] - (barred == state)
            else:
                pick = int(rng.integers(pool_total))
                state = 0
                acc = pool[0]
                while acc <= pick:
                    state += 1
                    acc += pool[state]
                pool[state] -= 1
                pool_total -= 1
                touched[state] += 1
                distinct += 1
            slot_states[position] = state
        u, v = slot_states[0], slot_states[1]
        observed = None
        if spp == 4:
            observed = (slot_states[2], slot_states[3])
        new_u, new_v = self.model.apply_scalar(
            u, v, rng.random() if self._draws else None, observed)
        counts = self._chain
        counts[u] -= 1
        counts[v] -= 1
        counts[new_u] += 1
        counts[new_v] += 1
