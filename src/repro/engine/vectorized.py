"""Vectorized interaction-batch kernel with exact sequential semantics.

A per-interaction Python loop spends ~200 ns per interaction; this
module replaces it with NumPy batch work while preserving the *exact*
per-interaction law.  Every model is a deterministic map of an
interaction's states and, when it draws one
(:func:`~repro.engine.model.draws_uniform`), one uniform: a table
mixture picks its component table with it
(:func:`~repro.engine.model.component_picker` of its
``component_probs``), and a stochastic model takes it as an argument of
``apply`` / ``apply_scalar``.  :func:`run_kernel` draws a chunk's
uniforms just before the chunk runs, so every interaction's outcome is
fixed before any executes.  A chunk of ``B`` sampled ordered pairs is
then resolved in three phases:

1. **Inert filter** (one-way models only).  A state ``u`` is *inert* when
   every table row maps ``(u, v) -> (u, v)``; an interaction whose
   initiator is in an inert state is a complete no-op and — because
   one-way models never write responders — the agent can never leave the
   inert state mid-chunk.  Those pairs (and their uniforms) are dropped
   up front by one state gather per chunk (for the k-IGT workload this
   removes the ~half of all interactions initiated by AC/AD agents).
2. **Conflict peeling.**  The remaining pairs are split into *rounds* of
   mutually independent interactions by repeatedly peeling the pairs
   that are "safe last": a pair whose cells no later pair touches can be
   executed after every other pair with an unchanged outcome.  Peeling is
   index-only (one scatter + gathers per round, no state reads), so the
   whole schedule is computed before any interaction executes.  One-way
   models use a refined criterion that lets pairs *reading* the same
   agent share a round; two-way models, tables or stochastic, fall back
   to agent-disjointness.  Each keeps one ``int32`` map of every agent's
   latest pair stamp: the refined criterion stamps a round's writes,
   checks them, and then stamps its reads over the same map, so a write
   cell that a later pair reads holds a stamp above its writer's.
   A one-way table model is *read-free* when every component sends each
   initiator state to a state of the same responder class
   (:func:`~repro.engine.model.responder_classes`: states whose
   initiator-outcome columns agree in every table).  A read then sees
   only the class of the agent it reads, which no write changes, so
   reads and writes of one agent commute and only each initiator's own
   writes keep their order: a pair is safe last when no later pair
   shares its initiator.  That takes one scatter and one gather per
   round, with no read stamps.  k-IGT is read-free: only GTFT
   initiators move, they read only whether the partner is AD (or, under
   the strict rule, AC), and no update turns GTFT into AC or AD.
   A round compares its ``int32`` pair stamps only with each other and
   with older, smaller ones, so stamps carry no history: restarting
   them at 0 over a cleared map (before they overflow, or on restore)
   changes no round, and snapshots never capture them.
3. **Apply.**  The un-peeled head (at most :data:`TAIL_THRESHOLD` pairs,
   the hard conflict chains) runs through a scalar Python loop in pair
   order; the peeled rounds then apply in reverse peel order as fancy
   indexed table lookups, or one vectorized ``model.apply`` call each
   for a stochastic model.  Within a round no pair writes a cell another
   pair touches, so the scatters commute.  Every round also moves the
   count vector by the histograms of the states it leaves and enters,
   so the counts are exact whenever a chunk returns.

Because conflicting pairs always execute in their original sampling
order, non-conflicting pairs commute exactly, and each interaction
keeps its own uniform whichever round applies it, the resulting states
are **bit-for-bit identical** to applying the same pair block one pair
at a time with the same uniforms — for every model, not merely equal in
distribution.  The property tests in
``tests/engine/test_vectorized_kernel.py`` and
``tests/property/test_engine_equivalence.py`` pin this down, including
the degenerate geometries (``n = 2``, ``n = 3``, chunk larger than
``n``).

States live in the model's narrow ``state_dtype``; pair indices are
computed on chunk-sized ``intp`` copies, never on a widened state array.

The kernel also serves the count backend: at the start of every run a
count vector expands to a canonical per-agent state assignment, uniform
pair sampling over that array *is* the count-level chain
(exchangeability), and only the count vector is exposed.

The sampler is pluggable: the kernel never draws pairs itself, and
:func:`run_kernel` takes any pair law, so weighted
(heterogeneous-activity) and graph-restricted pair blocks flow through
the exact same conflict resolution.  Models that read two extra sampled
agents per interaction (``slots_per_step == 4``, e.g.
:class:`~repro.engine.model.ImitationModel`) must be one-way stochastic
models: the observed agents join the conflict analysis as read cells,
and :func:`run_kernel` draws them per block through the law's
``others_block`` (uniform shift trick or weighted rejection).
"""

from __future__ import annotations

import numpy as np

from repro.engine.base import BLOCK_SIZE
from repro.engine.model import (
    component_picker,
    draws_uniform,
    responder_classes,
)
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
        The interaction law.  (Mixture-of-)table models run fully
        in-kernel, each interaction's uniform picking its component;
        stochastic models through ``model.apply_scalar`` in the head and
        one ``model.apply`` call per round, one- or two-way.  4-slot
        models must be one-way stochastic models.
    states, counts:
        The live per-agent state array (in the model's ``state_dtype``)
        and count vector, adopted (never reallocated); every round
        :meth:`apply_chunk` executes updates both.

    :attr:`draws` tells :func:`run_kernel` whether every interaction
    takes a uniform (:func:`~repro.engine.model.draws_uniform`, which
    refuses several component tables without ``component_probs``).

    Each conflict analysis takes :attr:`chunk` pairs, set by
    :func:`auto_chunk` (halved for 4-slot models).

    :attr:`read_free` is derived from the component tables: it holds
    for one-way tables whose every write keeps the written agent's
    responder class.  Reads then commute with all writes (a read sees
    only the class), so peeling orders each initiator's writes alone and
    skips the read stamps and checks.

    An owner that places every inert-state agent at an index ``>= b``
    (the count proxy) may set :attr:`inert_index_bound` to ``b`` between
    chunks: the inert filter then becomes a single index comparison
    instead of two gathers.  Sound because inert agents never change
    state (one-way models).
    """

    def __init__(self, model, states: np.ndarray, counts: np.ndarray):
        self.model = model
        self.s = model.n_states
        self.states = states
        self.counts = counts
        self.n = states.size
        tables = model.component_tables
        self._stochastic = tables is None
        self.draws = draws_uniform(model)
        self._pick = (component_picker(model.component_probs)
                      if self.draws and tables is not None else None)
        one_way = bool(model.one_way)
        self.four = model.slots_per_step == 4
        if self.four and not (self._stochastic and one_way):
            raise InvalidParameterError(
                "4-slot models must be one-way stochastic models (tables "
                "cannot encode observed-agent reads)")
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
        # Agent -> latest pair stamp.  Read-free and two-way kernels
        # read it back only where the round just wrote it, so it never
        # needs clearing; the criterion with reads also reads cells the
        # round did not stamp, where older entries must read as earlier
        # than the round's stamps, like a cleared map's -1.
        if one_way and not self.read_free:
            self._pos = np.full(self.n, -1, dtype=np.int32)
            if self.four:
                # Interleaved (responder, observed_i, observed_j) read
                # slots so equal-agent collisions resolve to the highest
                # pair stamp (scatter order = pair order).
                self._read_buf = np.empty(3 * self.chunk, dtype=np.intp)
        else:
            self._pos = np.empty(self.n, dtype=np.int32)
            if not one_way:
                self._slot_buf = np.empty(2 * self.chunk, dtype=np.intp)
        self._arange = np.arange(self.chunk, dtype=np.int32)
        self._stamp = 0

    # ------------------------------------------------------------------
    # Conflict peeling (index-only; no state reads)
    # ------------------------------------------------------------------
    def _peel(self, ii, jj, w, oi=None, oj=None):
        """Split a chunk into execution rounds.

        Returns ``(head, rounds)``: the un-peeled head 5-tuple (scalar
        loop, executed first, in pair order) and the peeled rounds
        (applied in *reverse* list order after the head).  Every round
        carries the matching slices of ``w`` (a table mixture's component
        indices or a stochastic model's uniforms) and of the observed
        agents (``None`` when absent).
        """
        read_free = self.read_free
        one_way = self.one_way
        pos = self._pos
        rounds = []
        while ii.size > TAIL_THRESHOLD:
            m = ii.size
            stamp = self._stamp
            if stamp + m > STAMP_MAX:
                if one_way and not read_free:
                    pos.fill(-1)
                stamp = 0
            pid = self._arange[:m] + stamp
            self._stamp = stamp + m
            if one_way:
                pos[ii] = pid
                ok = pos[ii] == pid           # last write to own cell
                if not read_free:
                    # With the write checks done, reads stamp over the
                    # same map: a write cell read by a later pair then
                    # holds a stamp above its writer's.
                    if oi is None:
                        ok &= pos[jj] <= pid  # no later write to read cell
                        pos[jj] = pid
                    else:
                        # All read cells (responder + both observed
                        # agents) interleaved in pair order: a shared
                        # agent keeps the *latest* reader's stamp.
                        reads = self._read_buf[:3 * m]
                        reads[0::3] = jj
                        reads[1::3] = oi
                        reads[2::3] = oj
                        rpid = np.repeat(pid, 3)
                        unread = pos[reads] <= rpid  # no later write to reads
                        ok &= unread[0::3] & unread[1::3] & unread[2::3]
                        pos[reads] = rpid
                    ok &= pos[ii] <= pid      # no later read of write cell
            else:
                slots = self._slot_buf[:2 * m]
                slots[0::2] = ii
                slots[1::2] = jj
                spid = np.repeat(pid, 2)
                pos[slots] = spid
                ok = pos[slots] == spid
                ok = ok[0::2] & ok[1::2]  # both agents unused later
            if ok.all():
                rounds.append((ii, jj, w, oi, oj))
                return (None, None, None, None, None), rounds
            take = np.flatnonzero(ok)
            rounds.append((ii[take], jj[take],
                           None if w is None else w[take],
                           None if oi is None else oi[take],
                           None if oj is None else oj[take]))
            rem = np.flatnonzero(~ok)
            ii = ii[rem]
            jj = jj[rem]
            if w is not None:
                w = w[rem]
            if oi is not None:
                oi = oi[rem]
                oj = oj[rem]
        return (ii, jj, w, oi, oj), rounds

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def _apply_head(self, ii, jj, w, oi, oj):
        """Scalar loop in pair order over the hard conflict chains."""
        states, s = self.states, self.s
        counts = self.counts
        stochastic = self._stochastic
        apply = self.model.apply_scalar
        fu = None if stochastic else self._flat_u_list
        fv = None if stochastic else self._flat_v_list
        wl = None if w is None else w.tolist()
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
                nu, nv = apply(u, v, wl[t], observed)
            else:
                flat = u * s + v if wl is None else (wl[t] * s + u) * s + v
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

    def _apply_round(self, ii, jj, w, oi, oj):
        """Vectorized application of one mutually-independent round."""
        states, s = self.states, self.s
        u = states[ii]
        v = states[jj]
        if self._stochastic:
            observed = None
            if oi is not None:
                observed = (states[oi].astype(np.intp),
                            states[oj].astype(np.intp))
            nu, nv = self.model.apply(u.astype(np.intp), v.astype(np.intp),
                                      w, observed)
        else:
            flat = u.astype(np.intp)  # narrow states wrap in u * s
            flat *= s
            flat += v
            if w is not None:
                flat += w * (s * s)
            nu = self._flat_u[flat]
            nv = None if self.one_way else self._flat_v[flat]
        states[ii] = nu
        self._move(u, nu)
        if not self.one_way:
            states[jj] = nv
            self._move(v, nv)

    def _move(self, old, new) -> None:
        """Move a round's agents from the states ``old`` to ``new`` in the
        count vector."""
        self.counts += (np.bincount(new, minlength=self.s)
                        - np.bincount(old, minlength=self.s))

    def apply_chunk(self, ii, jj, uniforms=None, oi=None, oj=None) -> None:
        """Execute one chunk of sampled pairs, exactly as if sequential.

        ``uniforms`` holds each interaction's uniform when :attr:`draws`
        (``None`` otherwise); ``oi``/``oj`` carry the observed-agent
        indices of 4-slot models.  The state array and the count vector
        are both current when it returns.
        """
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
                if uniforms is not None:
                    uniforms = uniforms[act]
                if oi is not None:
                    oi = oi[act]
                    oj = oj[act]
        w = uniforms if self._pick is None else self._pick(uniforms)
        (hi, hj, hw, ho_i, ho_j), rounds = self._peel(ii, jj, w, oi, oj)
        if hi is not None and hi.size:
            self._apply_head(hi, hj, hw, ho_i, ho_j)
        for pi, pj, pw, po_i, po_j in reversed(rounds):
            self._apply_round(pi, pj, pw, po_i, po_j)


def run_kernel(kernel: ConflictFreeKernel, law, max_steps: int,
               steps_done: int, stop_when, observe_every, check_stop_every,
               sink, states=None):
    """Drive a kernel through up to ``max_steps`` interactions.

    The one engine loop of the kernel paths.  ``law`` is a pair law of
    :mod:`repro.engine.sampling` / :mod:`repro.engine.topology`: its
    ``pair_block`` draws the pairs in :data:`~repro.engine.base.BLOCK_SIZE`
    blocks (the seed simulator's consumption), a 4-slot model's
    observed agents follow per block through its ``others_block`` (one
    partner relative to each initiator, then each responder), and a
    kernel that :attr:`~ConflictFreeKernel.draws` gets
    ``law.rng.random(m)`` for each chunk of ``m`` pairs just before
    applying it.  Chunks are capped at observation / stop-cadence
    boundaries so counts are exact whenever the Python layer looks at
    them, and an early stop discards the remainder of the drawn block;
    the generator then stands right after the executed interactions'
    uniforms, as a per-interaction loop's would.
    Returns ``(executed, converged)``.

    ``steps_done`` is the engine's cumulative pre-call step count (used
    only to label observations, which go to the observer ``sink``).
    ``states``, when given, is the live per-agent state array forwarded
    alongside each observation (agent backend only — the count-level
    kernels run on proxy states that mean nothing per agent).
    """
    counts = kernel.counts
    rng = law.rng
    done = 0
    while done < max_steps:
        batch = min(BLOCK_SIZE, max_steps - done)
        initiators, responders = law.pair_block(batch)
        obs_i = obs_j = None
        if kernel.four:
            obs_i = law.others_block(initiators)
            obs_j = law.others_block(responders)
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
                               rng.random(m) if kernel.draws else None,
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
