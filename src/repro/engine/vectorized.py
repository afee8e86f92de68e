"""Vectorized interaction-batch kernel with exact sequential semantics.

A per-interaction Python loop spends ~200 ns per interaction; this
module replaces it with NumPy batch work while preserving the *exact*
per-interaction law.  A chunk of ``B`` sampled ordered pairs is resolved
in three phases:

1. **Inert filter** (one-way models only).  A state ``u`` is *inert* when
   every table row maps ``(u, v) -> (u, v)``; an interaction whose
   initiator is in an inert state is a complete no-op and — because
   one-way models never write responders — the agent can never leave the
   inert state mid-chunk.  Those pairs are dropped up front by one state
   gather per chunk (for the k-IGT workload this removes the ~half of
   all interactions initiated by AC/AD agents).
2. **Conflict peeling.**  The remaining pairs are split into *rounds* of
   mutually independent interactions by repeatedly peeling the pairs
   that are "safe last": a pair whose cells no later pair touches can be
   executed after every other pair with an unchanged outcome.  Peeling is
   index-only (one scatter + gathers per round, no state reads), so the
   whole schedule is computed before any interaction executes.  One-way
   models use a refined criterion that lets pairs *reading* the same
   agent share a round; two-way models fall back to agent-disjointness.
   A one-way table model is *read-free* when every component sends each
   initiator state to a state of the same responder class
   (:func:`~repro.engine.model.responder_classes`: states whose
   initiator-outcome columns agree in every table).  A read then sees
   only the class of the agent it reads, which no write changes, so
   reads and writes of one agent commute and only each initiator's own
   writes keep their order: a pair is safe last when no later pair
   shares its initiator.  That takes one scatter and one gather per
   round over a single stamp map.  k-IGT is read-free: only GTFT
   initiators move, they read only whether the partner is AD (or, under
   the strict rule, AC), and no update turns GTFT into AC or AD.
   A round compares its ``int32`` pair stamps only with each other and
   with older, smaller ones, so stamps carry no history: restarting
   them at 0 over cleared maps (before they overflow, or on restore)
   changes no round, and snapshots never capture them.
3. **Apply.**  The un-peeled head (at most :data:`TAIL_THRESHOLD` pairs,
   the hard conflict chains) runs through a scalar Python loop in pair
   order; the peeled rounds then apply in reverse peel order as fancy
   indexed table lookups.  Within a round no pair writes a cell another
   pair touches, so the scatters commute.  Every round also moves the
   count vector by the histograms of the states it leaves and enters,
   so the counts are exact whenever a chunk returns.

Because conflicting pairs always execute in their original sampling
order and non-conflicting pairs commute exactly, the resulting states
are **bit-for-bit identical** to applying the same pair block one pair
at a time — not merely equal in distribution.  The property tests in
``tests/engine/test_vectorized_kernel.py`` pin this down, including the
degenerate geometries (``n = 2``, ``n = 3``, chunk larger than ``n``).

States live in the model's narrow ``state_dtype``; pair indices are
computed on chunk-sized ``intp`` copies, never on a widened state array.

An owner that asks for pair order builds the kernel ``in_order``: each
chunk then runs through the scalar head alone, with no inert filter and
no peel.  For a table model that is the peeled rounds' trajectory; a
model without component tables draws its own randomness per
interaction, one ``apply_scalar`` call per pair, consuming the generator
exactly as a per-interaction loop would, two-way models included.
Otherwise one-way stochastic models are applied round-vectorized — each
interaction still receives an independent model draw, so the trajectory
law is untouched even though generator consumption differs from pair
order.

The kernel also serves the count backend: at the start of every run a
count vector expands to a canonical per-agent state assignment, uniform
pair sampling over that array *is* the count-level chain
(exchangeability), and only the count vector is exposed.

The sampler is pluggable: the kernel never draws pairs itself, so
weighted (heterogeneous-activity) pair blocks flow through the exact
same conflict resolution — this is what makes
:class:`~repro.engine.sampling.WeightedScheduler` a first-class
engine citizen.  One-way *stochastic* models that read two extra
sampled agents per interaction (``slots_per_step == 4``, e.g.
:class:`~repro.engine.model.ImitationModel`) are vectorizable too: the
observed agents join the conflict analysis as read cells, and
:func:`run_kernel` draws them per block through the caller's
``others_block`` (uniform shift trick or weighted rejection).
"""

from __future__ import annotations

import numpy as np

from repro.engine.base import BLOCK_SIZE
from repro.engine.model import responder_classes
from repro.utils.errors import InvalidParameterError

#: Remaining-conflict head below which the scalar loop finishes a chunk.
TAIL_THRESHOLD = 48

#: Bounds of the auto-selected chunk size (pairs per conflict analysis).
MIN_CHUNK = 1024
MAX_CHUNK = 32768

#: A round whose ``int32`` peel stamps would pass this restarts them.
STAMP_MAX = np.iinfo(np.int32).max


def auto_chunk(n: int) -> int:
    """Pairs per conflict-analysis chunk for a population of size ``n``.

    Chosen from the throughput scans in ``BENCH_engine.json``: roughly
    ``n/2`` (conflict fraction stays amortizable) clipped to
    ``[MIN_CHUNK, MAX_CHUNK]`` (below, NumPy call overhead dominates;
    above, the peeled rounds outgrow cache).
    """
    return min(MAX_CHUNK, max(MIN_CHUNK, 1 << (max(int(n), 2).bit_length() - 1)))


class ConflictFreeKernel:
    """Applies chunks of sampled pairs with exact sequential semantics.

    Parameters
    ----------
    model:
        The interaction law.  Deterministic (mixture-of-)table models run
        fully in-kernel; stochastic models are applied through
        ``model.apply_scalar`` per pair when ``in_order``, else, if
        one-way, through vectorized ``model.apply`` calls per round.
        A model with more than one component table must draw component
        indices (:meth:`~repro.engine.model.InteractionModel.sample_components`);
        :func:`run_kernel` refuses it otherwise.
    states, counts:
        The live per-agent state array (in the model's ``state_dtype``)
        and count vector, adopted (never reallocated); every round
        :meth:`apply_chunk` executes updates both.
    in_order:
        Apply each whole chunk in pair order through the scalar head,
        with no inert filter and no peel.  A table model keeps the
        trajectory of the peeled rounds; a stochastic model makes the
        same model draws, in the same order, as a per-interaction loop,
        so agent-level bit parity holds.

    Each conflict analysis takes :attr:`chunk` pairs, set by
    :func:`auto_chunk` (halved for 4-slot models).

    :attr:`read_free` is derived from the component tables: it holds
    for one-way tables whose every write keeps the written agent's
    responder class.  Reads then commute with all writes (a read sees
    only the class), so peeling orders each initiator's writes alone and
    keeps one ``int32`` stamp map instead of a write and a read map.

    An owner that places every inert-state agent at an index ``>= b``
    (the count proxy) may set :attr:`inert_index_bound` to ``b`` between
    chunks: the inert filter then becomes a single index comparison
    instead of two gathers.  Sound because inert agents never change
    state (one-way models).
    """

    def __init__(self, model, states: np.ndarray, counts: np.ndarray,
                 in_order: bool = False):
        self.model = model
        self.s = model.n_states
        self.states = states
        self.counts = counts
        self.n = states.size
        tables = model.component_tables
        self._stochastic = tables is None
        # Component tables; run_kernel refuses several without draws.
        self._components = 0 if tables is None else len(tables)
        self.in_order = in_order
        one_way = bool(model.one_way)
        if self._stochastic and not (one_way or self.in_order):
            raise InvalidParameterError(
                "stochastic models are only vectorizable when one-way "
                "(responder never changes state)")
        self.four = model.slots_per_step == 4
        if self.four and not self._stochastic:
            raise InvalidParameterError(
                "4-slot models with component tables are not supported; "
                "tables cannot encode observed-agent reads")
        self.one_way = one_way
        self.read_free = False
        if one_way and tables is not None:
            # Every write keeps its agent's responder class.
            classes = responder_classes(tables)
            self.read_free = all(
                (classes[t[:, :, 0]] == classes[:, None]).all()
                for t in tables)
        if tables is not None:
            # (C*S*S,) stacked flat lookups in the states' dtype, and
            # their Python-list copies for the scalar head; component c
            # of pair (u, v) lives at c*S*S + u*S + v.  No responder
            # lookup for one-way tables.
            self._flat_u = np.concatenate(
                [t[:, :, 0].ravel() for t in tables]).astype(states.dtype)
            self._flat_v = (None if one_way else np.concatenate(
                [t[:, :, 1].ravel() for t in tables]).astype(states.dtype))
            self._flat_u_list = self._flat_u.tolist()
            self._flat_v_list = (None if one_way
                                 else self._flat_v.tolist())
        self.inert_index_bound = None
        # Non-inert states, looked up per chunk unless a bound is set.
        inert = model.inert_states
        self._active = (None if inert is None
                        else ~np.asarray(inert, dtype=bool))
        chunk = auto_chunk(self.n)
        if self.four:
            # 4-slot interactions occupy twice the agents per pair, so
            # conflict density at a given chunk size doubles; halving
            # restores the measured sweet spot at every n.
            chunk = max(MIN_CHUNK // 2, chunk // 2)
        self.chunk = chunk
        if self.in_order:
            return  # never peels, so it holds no stamp maps
        # Agent -> latest pair-stamp maps; older entries read as earlier
        # than the current round's, like a cleared map's -1.
        if one_way and not self.read_free:
            self._pos_i = np.full(self.n, -1, dtype=np.int32)
            self._pos_r = np.full(self.n, -1, dtype=np.int32)
            if self.four:
                # Interleaved (responder, observed_i, observed_j) read
                # slots so equal-agent collisions resolve to the highest
                # pair stamp (scatter order = pair order).
                self._read_buf = np.empty(3 * self.chunk, dtype=np.intp)
        else:
            # Read back only where just written: never needs clearing.
            self._pos = np.empty(self.n, dtype=np.int32)
            if not one_way:
                self._slot_buf = np.empty(2 * self.chunk, dtype=np.intp)
        self._arange = np.arange(self.chunk, dtype=np.int32)
        self._stamp = 0

    # ------------------------------------------------------------------
    # Conflict peeling (index-only; no state reads)
    # ------------------------------------------------------------------
    def _peel(self, ii, jj, comps, oi=None, oj=None):
        """Split a chunk into execution rounds.

        Returns ``(head, rounds)``: the un-peeled head 5-tuple (scalar
        loop, executed first, in pair order) and the peeled rounds
        (applied in *reverse* list order after the head).  Every round
        carries the matching ``comps`` and observed-agent slices
        (``None`` when absent).
        """
        read_free = self.read_free
        one_way = self.one_way and not read_free  # the criterion with reads
        four = self.four
        rounds = []
        while ii.size > TAIL_THRESHOLD:
            m = ii.size
            stamp = self._stamp
            if stamp + m > STAMP_MAX:
                if one_way:
                    self._pos_i.fill(-1)
                    self._pos_r.fill(-1)
                stamp = 0
            pid = self._arange[:m] + stamp
            self._stamp = stamp + m
            if read_free:
                self._pos[ii] = pid
                ok = self._pos[ii] == pid     # last write to own cell
            elif one_way:
                pos_i, pos_r = self._pos_i, self._pos_r
                pos_i[ii] = pid
                if four:
                    # All read cells (responder + both observed agents)
                    # interleaved in pair order: a shared agent keeps the
                    # *latest* reader's stamp, exactly like the single
                    # responder scatter below.
                    reads = self._read_buf[:3 * m]
                    reads[0::3] = jj
                    reads[1::3] = oi
                    reads[2::3] = oj
                    rpid = np.repeat(pid, 3)
                    pos_r[reads] = rpid
                    ok = pos_i[ii] == pid     # last write to own cell
                    unread = pos_i[reads] <= rpid  # no later write to reads
                    ok &= unread[0::3] & unread[1::3] & unread[2::3]
                    ok &= pos_r[ii] <= pid    # no later read of write cell
                else:
                    pos_r[jj] = pid
                    ok = pos_i[ii] == pid     # last write to own cell
                    ok &= pos_i[jj] <= pid    # no later write to read cell
                    ok &= pos_r[ii] <= pid    # no later read of write cell
            else:
                slots = self._slot_buf[:2 * m]
                slots[0::2] = ii
                slots[1::2] = jj
                spid = np.repeat(pid, 2)
                self._pos[slots] = spid
                ok = self._pos[slots] == spid
                ok = ok[0::2] & ok[1::2]  # both agents unused later
            if ok.all():
                rounds.append((ii, jj, comps, oi, oj))
                return (None, None, None, None, None), rounds
            w = np.flatnonzero(ok)
            rounds.append((ii[w], jj[w],
                           None if comps is None else comps[w],
                           None if oi is None else oi[w],
                           None if oj is None else oj[w]))
            rem = np.flatnonzero(~ok)
            ii = ii[rem]
            jj = jj[rem]
            if comps is not None:
                comps = comps[rem]
            if oi is not None:
                oi = oi[rem]
                oj = oj[rem]
        return (ii, jj, comps, oi, oj), rounds

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def _apply_head(self, ii, jj, comps, oi, oj, rng):
        """Scalar loop in pair order: over the hard conflict chains, or
        over a whole chunk of an in-order kernel."""
        states, s = self.states, self.s
        counts = self.counts
        stochastic = self._stochastic
        apply = self.model.apply_scalar
        fu = None if stochastic else self._flat_u_list
        fv = None if stochastic else self._flat_v_list
        cl = None if comps is None else comps.tolist()
        obs = None if oi is None else list(zip(oi.tolist(), oj.tolist()))
        state = states.item  # Python ints: narrow scalars would wrap
        for t, (a, b) in enumerate(zip(ii.tolist(), jj.tolist())):
            u = state(a)
            v = state(b)
            if stochastic:
                observed = None
                if obs is not None:
                    x, y = obs[t]
                    observed = (state(x), state(y))
                nu, nv = apply(u, v, rng, observed)
            else:
                flat = u * s + v if cl is None else (cl[t] * s + u) * s + v
                nu = fu[flat]
                nv = v if fv is None else fv[flat]
            if nu != u:
                states[a] = nu
                counts[u] -= 1
                counts[nu] += 1
            if nv != v:
                states[b] = nv
                counts[v] -= 1
                counts[nv] += 1

    def _apply_round(self, ii, jj, comps, oi, oj, rng):
        """Vectorized application of one mutually-independent round."""
        states, s = self.states, self.s
        u = states[ii]
        v = states[jj]
        flat = u.astype(np.intp)  # narrow states wrap in u * s
        flat *= s
        flat += v
        if self._stochastic:
            observed = None
            if oi is not None:
                observed = (states[oi].astype(np.intp),
                            states[oj].astype(np.intp))
            nu, _ = self.model.apply(u.astype(np.intp), v.astype(np.intp),
                                     rng, observed)
            states[ii] = nu
            self._move(u, nu)
            return
        if comps is not None:
            flat += comps * (s * s)
        nu = self._flat_u[flat]
        states[ii] = nu
        self._move(u, nu)
        if not self.one_way:
            nv = self._flat_v[flat]
            states[jj] = nv
            self._move(v, nv)

    def _move(self, old, new) -> None:
        """Move a round's agents from the states ``old`` to ``new`` in the
        count vector."""
        self.counts += (np.bincount(new, minlength=self.s)
                        - np.bincount(old, minlength=self.s))

    def apply_chunk(self, ii, jj, comps=None, rng=None, oi=None,
                    oj=None) -> None:
        """Execute one chunk of sampled pairs, exactly as if sequential.

        The state array and the count vector are both current when it
        returns.  ``rng`` is required for stochastic models (their
        per-interaction draws); ``oi``/``oj`` carry the observed-agent
        indices of 4-slot models.
        """
        if self.in_order:
            self._apply_head(ii, jj, comps, oi, oj, rng)
            return
        if self.inert_index_bound is not None or self._active is not None:
            if self.inert_index_bound is not None:
                act = np.flatnonzero(ii < self.inert_index_bound)
            else:
                act = np.flatnonzero(self._active.take(self.states[ii]))
            if act.size == 0:
                return
            if act.size < ii.size:
                ii = ii[act]
                jj = jj[act]
                if comps is not None:
                    comps = comps[act]
                if oi is not None:
                    oi = oi[act]
                    oj = oj[act]
        (hi, hj, hc, ho_i, ho_j), rounds = self._peel(ii, jj, comps, oi, oj)
        if hi is not None and hi.size:
            self._apply_head(hi, hj, hc, ho_i, ho_j, rng)
        for pi, pj, pc, po_i, po_j in reversed(rounds):
            self._apply_round(pi, pj, pc, po_i, po_j, rng)


def run_kernel(kernel: ConflictFreeKernel, pair_block, sample_components,
               rng, max_steps: int, steps_done: int, stop_when,
               observe_every, check_stop_every, sink, others_block=None,
               states=None):
    """Drive a kernel through up to ``max_steps`` interactions.

    The one engine loop of the kernel paths: pair randomness is drawn
    in :data:`~repro.engine.base.BLOCK_SIZE` blocks (the seed
    simulator's consumption), chunks are capped at observation /
    stop-cadence boundaries so counts are exact whenever the Python
    layer looks at them, and an early stop discards the remainder of
    the drawn block.  A model with several component tables whose
    ``sample_components`` returns ``None`` is refused before its first
    pair is applied.
    Returns ``(executed, converged)``.

    ``steps_done`` is the engine's cumulative pre-call step count (used
    only to label observations, which go to the observer ``sink``).
    ``states``, when given, is the live per-agent state array forwarded
    alongside each observation (agent backend only — the count-level
    kernels run on proxy states that mean nothing per agent).
    ``others_block`` draws, per block, one extra observed agent relative
    to each given agent — required for 4-slot models and ignored
    otherwise.
    """
    counts = kernel.counts
    if kernel.four and others_block is None:
        raise InvalidParameterError(
            "4-slot models need an others_block to draw observed agents")
    done = 0
    while done < max_steps:
        batch = min(BLOCK_SIZE, max_steps - done)
        initiators, responders = pair_block(batch)
        obs_i = obs_j = None
        if kernel.four:
            obs_i = others_block(initiators)
            obs_j = others_block(responders)
        comps = sample_components(rng, batch)
        if comps is None and kernel._components > 1:
            raise InvalidParameterError(
                "model exposes multiple component tables but "
                "sample_components returned None; override it to draw "
                "per-interaction component indices")
        off = 0
        while off < batch:
            limit = batch - off
            step_now = done + off
            if observe_every is not None:
                limit = min(limit, observe_every - step_now % observe_every)
            if stop_when is not None:
                limit = min(limit,
                            check_stop_every - step_now % check_stop_every)
            m = min(kernel.chunk, limit)
            kernel.apply_chunk(initiators[off:off + m],
                               responders[off:off + m],
                               None if comps is None else comps[off:off + m],
                               rng=rng,
                               oi=None if obs_i is None
                               else obs_i[off:off + m],
                               oj=None if obs_j is None
                               else obs_j[off:off + m])
            off += m
            step = done + off
            if observe_every is not None and step % observe_every == 0:
                sink.emit(steps_done + step, counts, states)
            if (stop_when is not None and step % check_stop_every == 0
                    and stop_when(counts)):
                return step, True
        done += batch
    return max_steps, False
