"""Vectorized interaction-batch kernel with exact sequential semantics.

The sequential backends spend ~200 ns of Python per interaction; this
module replaces that with NumPy batch work while preserving the *exact*
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
   A round compares its ``int32`` pair stamps only with each other and
   with older, smaller ones, so stamps carry no history: restarting
   them at 0 over cleared maps (before they overflow, or on restore)
   changes no round, and snapshots never capture them.
3. **Apply.**  The un-peeled head (at most :data:`TAIL_THRESHOLD` pairs,
   the hard conflict chains) runs through a scalar Python loop in pair
   order; the peeled rounds then apply in reverse peel order as fancy
   indexed table lookups.  Within a round no pair writes a cell another
   pair touches, so the scatters commute.

Because conflicting pairs always execute in their original sampling
order and non-conflicting pairs commute exactly, the resulting states
are **bit-for-bit identical** to the sequential loop fed the same pair
block — not merely equal in distribution.  The property tests in
``tests/engine/test_vectorized_kernel.py`` pin this down, including the
degenerate geometries (``n = 2``, ``n = 3``, chunk larger than ``n``).

States live in the model's narrow ``state_dtype``; pair indices are
computed on chunk-sized ``intp`` copies, never on a widened state array.

The kernel also serves the count backend: a count vector expands to an
(arbitrary, fixed) per-agent state assignment, uniform pair sampling
over that array *is* the count-level chain (exchangeability), and only
the count vector is exposed.  In that mode stochastic one-way models may
be applied round-vectorized too — each interaction still receives an
independent model draw, so the trajectory law is untouched even though
generator consumption differs from the scalar loop.

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

from repro.engine.model import count_states
from repro.engine.snapshot import (
    _check_population,
    _snapshot_array,
    _snapshot_states,
)
from repro.utils.errors import InvalidParameterError

#: Remaining-conflict head below which the scalar loop finishes a chunk.
TAIL_THRESHOLD = 48

#: Bounds of the auto-selected chunk size (pairs per conflict analysis).
MIN_CHUNK = 1024
MAX_CHUNK = 32768

#: Below this population size the sequential loops win (chunks of ~n/2
#: pairs carry too many conflicts to amortize the NumPy call overhead).
MIN_VECTORIZED_N = 1000

#: Observation / stop-check cadences below this bound the chunk size so
#: hard that the sequential loop is faster; the auto path falls back.
MIN_VECTORIZED_CADENCE = 256

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
        fully in-kernel; stochastic models are accepted only when
        ``allow_stochastic`` is set *and* the model is one-way, and are
        applied through vectorized ``model.apply`` calls per round.
    states, counts:
        The live per-agent state array (in the model's ``state_dtype``)
        and count vector, adopted (never reallocated).  ``counts`` is
        only written by :meth:`apply_chunk` when asked
        (``update_counts``) or by :meth:`sync_counts`.
    chunk:
        Pairs per conflict analysis (default :func:`auto_chunk`).
    allow_stochastic:
        Permit stochastic one-way models (count-level use: the law is
        preserved per interaction, but generator consumption differs
        from the scalar loop, so agent-level bit parity is off).
    track_pairs:
        Accumulate the per-type-pair interaction count matrix
        :attr:`pair_counts` (the count-level payoff-accounting input).
        Disables the inert filter — inert interactions still count.
    inert_index_bound:
        Owners that control the state-to-agent assignment (the count
        proxy) may place all inert-state agents at indices ``>= bound``;
        the inert filter then becomes a single index comparison instead
        of two gathers.  Sound because inert agents never change state
        and active agents never become inert mid-run (one-way models).
    """

    def __init__(self, model, states: np.ndarray, counts: np.ndarray,
                 chunk: int | None = None, allow_stochastic: bool = False,
                 track_pairs: bool = False,
                 inert_index_bound: int | None = None):
        self.model = model
        self.s = model.n_states
        self.states = states
        self.counts = counts
        self.n = states.size
        tables = model.component_tables
        self._stochastic = tables is None
        if self._stochastic and not allow_stochastic:
            raise InvalidParameterError(
                "the vectorized kernel needs component tables; stochastic "
                "models require allow_stochastic=True (the trajectory law "
                "is exact but generator consumption differs from the "
                "scalar loop)")
        one_way = bool(model.one_way)
        if self._stochastic and not one_way:
            raise InvalidParameterError(
                "stochastic models are only vectorizable when one-way "
                "(responder never changes state)")
        self.four = model.slots_per_step == 4
        if self.four and not self._stochastic:
            raise InvalidParameterError(
                "4-slot models with component tables are not supported; "
                "tables cannot encode observed-agent reads")
        self.one_way = one_way
        s = self.s
        if tables is not None:
            # (C*S*S,) stacked flat lookups in the states' dtype;
            # component c of pair (u, v) lives at c*S*S + u*S + v.
            self._flat_u = np.concatenate(
                [t[:, :, 0].ravel() for t in tables]).astype(states.dtype)
            self._flat_v = (None if one_way else np.concatenate(
                [t[:, :, 1].ravel() for t in tables]).astype(states.dtype))
            self._flat_u_list = self._flat_u.tolist()
            self._flat_v_list = (None if one_way
                                 else self._flat_v.tolist())
        self.track_pairs = bool(track_pairs)
        self.pair_counts = (np.zeros(s * s, dtype=np.int64)
                            if self.track_pairs else None)
        inert = None if self.track_pairs else model.inert_states
        self._inert_bound = (None if self.track_pairs
                             else inert_index_bound)
        # Non-inert states, looked up per chunk unless the bound applies.
        self._active = None
        if inert is not None and self._inert_bound is None:
            self._active = ~np.asarray(inert, dtype=bool)
        if chunk is None:
            chunk = auto_chunk(self.n)
            if self.four:
                # 4-slot interactions occupy twice the agents per pair,
                # so conflict density at a given chunk size doubles;
                # halving restores the measured sweet spot at every n.
                chunk = max(MIN_CHUNK // 2, chunk // 2)
        self.chunk = int(chunk)
        if self.chunk < 1:
            raise InvalidParameterError(
                f"chunk must be positive, got {self.chunk}")
        # Agent -> latest pair-stamp maps; older entries read as earlier
        # than the current round's, like a cleared map's -1.
        if one_way:
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
        one_way = self.one_way
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
            if one_way:
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
    def _apply_head(self, ii, jj, comps, oi, oj, update_counts, rng):
        """Scalar loop over the hard conflict chains, in pair order."""
        states, s = self.states, self.s
        counts = self.counts
        one_way = self.one_way
        stochastic = self._stochastic
        track = self.pair_counts
        fu = None if stochastic else self._flat_u_list
        fv = None if stochastic or one_way else self._flat_v_list
        cl = None if comps is None else comps.tolist()
        state = states.item  # Python ints: narrow scalars would wrap
        for t, (a, b) in enumerate(zip(ii.tolist(), jj.tolist())):
            u = state(a)
            v = state(b)
            pair = u * s + v
            if track is not None:
                track[pair] += 1
            if stochastic:
                observed = None
                if oi is not None:
                    observed = (state(oi[t]), state(oj[t]))
                nu, _ = self.model.apply_scalar(u, v, rng, observed)
                nv = v
            else:
                flat = pair if cl is None else cl[t] * s * s + pair
                nu = fu[flat]
                nv = v if one_way else fv[flat]
            if nu != u:
                states[a] = nu
                if update_counts:
                    counts[u] -= 1
                    counts[nu] += 1
            if nv != v:
                states[b] = nv
                if update_counts:
                    counts[v] -= 1
                    counts[nv] += 1

    def _apply_round(self, ii, jj, comps, oi, oj, update_counts, rng):
        """Vectorized application of one mutually-independent round."""
        states, s = self.states, self.s
        u = states[ii].astype(np.intp)  # narrow states wrap in u * s
        v = states[jj]
        if not update_counts and self.pair_counts is None \
                and not self._stochastic:
            # Hot path: nothing reads the pre-states after the lookup,
            # so build the pair index in place instead of via temps.
            u *= s
            u += v
            if comps is not None:
                u += comps * (s * s)
            states[ii] = self._flat_u[u]
            if not self.one_way:
                states[jj] = self._flat_v[u]
            return
        v = v.astype(np.intp)
        pair = u * s
        pair += v
        if self.pair_counts is not None:
            self.pair_counts += np.bincount(pair, minlength=s * s)
        if self._stochastic:
            observed = None
            if oi is not None:
                observed = (states[oi].astype(np.intp),
                            states[oj].astype(np.intp))
            nu, _ = self.model.apply(u, v, rng, observed)
            states[ii] = nu
            if update_counts:
                self.counts += (np.bincount(nu, minlength=s)
                                - np.bincount(u, minlength=s))
            return
        flat = pair if comps is None else comps * (s * s) + pair
        nu = self._flat_u[flat]
        states[ii] = nu
        if self.one_way:
            if update_counts:
                self.counts += (np.bincount(nu, minlength=s)
                                - np.bincount(u, minlength=s))
            return
        nv = self._flat_v[flat]
        states[jj] = nv
        if update_counts:
            self.counts += (
                np.bincount(np.concatenate((nu, nv)), minlength=s)
                - np.bincount(np.concatenate((u, v)), minlength=s))

    def apply_chunk(self, ii, jj, comps=None, update_counts: bool = True,
                    rng=None, oi=None, oj=None) -> None:
        """Execute one chunk of sampled pairs, exactly as if sequential.

        With ``update_counts`` false the count vector is left stale for
        speed; call :meth:`sync_counts` before reading it.  ``rng`` is
        required for stochastic models (their per-interaction draws);
        ``oi``/``oj`` carry the observed-agent indices of 4-slot models.
        """
        if self._inert_bound is not None or self._active is not None:
            if self._inert_bound is not None:
                act = np.flatnonzero(ii < self._inert_bound)
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
            self._apply_head(hi, hj, hc, ho_i, ho_j, update_counts, rng)
        for pi, pj, pc, po_i, po_j in reversed(rounds):
            self._apply_round(pi, pj, pc, po_i, po_j, update_counts, rng)

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def encode_proxy_state(self) -> dict:
        """The ``proxy_state`` snapshot block of a count engine's kernel.

        A count engine running this kernel owns the per-agent state
        arrangement (identical index draws must hit identical states)
        and the pair-count accumulator when tracked.
        """
        return {
            "states": self.states.copy(),
            "pair_counts": (None if self.pair_counts is None
                            else self.pair_counts.copy()),
        }

    def _check_proxy_state(self, block: dict, chain: np.ndarray) -> None:
        """Refuse a :meth:`encode_proxy_state` block that does not fit.

        Its states must also agree with ``chain``, the snapshot's counts
        the kernel adopts alongside them.  An older ``kernel`` block of
        peel stamps is ignored.
        """
        states = _snapshot_states(block, "states", self.states)
        _check_population(chain, self.n, states)
        if self.pair_counts is not None:
            _snapshot_array(block, "pair_counts", self.pair_counts)

    def restore_proxy_state(self, block: dict) -> None:
        """Adopt a block checked by :meth:`_check_proxy_state`, in place."""
        self.states[:] = block["states"]
        if self.pair_counts is not None:
            self.pair_counts[:] = block["pair_counts"]

    def sync_counts(self) -> None:
        """Recompute the count vector from the state array, in place."""
        self.counts[:] = count_states(self.states, self.s)

    def pair_count_matrix(self) -> np.ndarray:
        """The accumulated ``(S, S)`` per-type-pair interaction counts."""
        if self.pair_counts is None:
            raise InvalidParameterError(
                "pair counts were not tracked; construct the kernel with "
                "track_pairs=True")
        return self.pair_counts.reshape(self.s, self.s).copy()


def run_kernel(kernel: ConflictFreeKernel, pair_block, sample_components,
               rng, max_steps: int, steps_done: int, stop_when,
               observe_every, check_stop_every, sink,
               block_size: int, others_block=None, states=None):
    """Drive a kernel through up to ``max_steps`` interactions.

    The shared engine loop of the vectorized paths: pair randomness is
    drawn in ``block_size`` blocks (identical consumption to the
    sequential loops), chunks are capped at observation / stop-cadence
    boundaries so counts are exact whenever the Python layer looks at
    them, and early stops discard the remainder of the drawn block just
    like the sequential loops do.  Returns ``(executed, converged)``.

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
    track = observe_every is not None or stop_when is not None
    if kernel.four and others_block is None:
        raise InvalidParameterError(
            "4-slot models need an others_block to draw observed agents")
    done = 0
    while done < max_steps:
        batch = min(block_size, max_steps - done)
        initiators, responders = pair_block(batch)
        obs_i = obs_j = None
        if kernel.four:
            obs_i = others_block(initiators)
            obs_j = others_block(responders)
        comps = sample_components(rng, batch)
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
                               update_counts=track, rng=rng,
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
    if not track:
        kernel.sync_counts()
    return max_steps, False
