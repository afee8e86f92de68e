"""Per-agent sequential simulation backend.

Executes the model's classic semantics: every agent's state is tracked
individually and the sampled interactions are applied strictly one at a
time.  Scheduler randomness is drawn in vectorized blocks through
:meth:`repro.engine.sampling.RandomScheduler.pair_block` (the shift-trick
sampler), exactly like the seed simulator — so for deterministic (table /
mixture-of-table) models a fixed seed reproduces the pre-engine
simulator's trajectories bit for bit.

Two inner loops:

* **conflict-free kernel** (:mod:`repro.engine.vectorized`) — every
  model without component tables, and table models at ``n >= 1000``
  by default.  Table chunks are split into mutually independent rounds
  applied as fancy indexed table lookups, with only the hard conflict
  chains running through a scalar tail.  Outcomes are **bit-for-bit
  identical** to the table loop (same pair blocks, same component draws,
  conflicting pairs executed in sampling order), roughly 5-8x its
  throughput on the k-IGT workload; ``vectorized=False`` opts out,
  ``vectorized=True`` forces it even where the auto heuristics would
  decline.  Stochastic models run each chunk in pair order, one
  :meth:`~repro.engine.model.InteractionModel.apply_scalar` call per
  interaction; models that read extra agents (``slots_per_step == 4``)
  get their observed agents sampled per block through the scheduler's
  ``others_block`` (the same shift trick under the uniform scheduler;
  weighted rejection draws under a weighted one).  ``vectorized=True``
  moves one-way stochastic models to the batched rounds instead —
  *distribution*-identical (each interaction still gets an independent
  model draw and conflicting interactions execute in sampling order)
  but not bit-identical, because model randomness is consumed per round
  rather than per step;
* **table loop** — other runs of models exposing ``component_tables``
  take a tight flat-lookup loop over the kernel's stacked tables, as
  Python lists (several times faster than per-element NumPy indexing,
  identical outcomes) or, when the population dwarfs the run, as NumPy
  arrays.  On the list path the live state array is written back at run
  end (and the live count array additionally at every stop check), so
  ``stop_when`` predicates must read the ``counts`` argument they are
  handed — not per-agent backend state.

The scheduler is any pair law of :mod:`repro.engine.sampling` /
:mod:`repro.engine.topology` (e.g. a
:class:`~repro.engine.sampling.WeightedScheduler` for heterogeneous
contact processes); every inner loop draws its pairs — and 4-slot models
their observed agents — through it.
"""

from __future__ import annotations

import numpy as np

from repro.engine.base import BLOCK_SIZE, EngineResult, SimulationEngine
from repro.engine.model import InteractionModel, count_states
from repro.engine.sampling import RandomScheduler
from repro.engine.vectorized import (
    MIN_VECTORIZED_CADENCE,
    MIN_VECTORIZED_N,
    ConflictFreeKernel,
    run_kernel,
)
from repro.utils import check_int_array
from repro.utils.errors import InvalidParameterError

#: Above this ratio of population size to step budget, the list-based fast
#: loop's O(n) array<->list conversion costs more than the per-step savings
#: (~0.5 µs/step vs ~100 ns/agent of conversion); fall back to NumPy.
_LIST_PATH_MAX_N_PER_STEP = 10


class AgentBackend(SimulationEngine):
    """Sequential per-agent engine for an :class:`InteractionModel`.

    Parameters
    ----------
    model:
        The interaction law.
    initial_states:
        Length-``n`` integer array of initial agent states, copied into
        the engine's own array in the model's ``state_dtype``.
    seed:
        Seed or generator (ignored when ``scheduler`` is given).
    scheduler:
        Optional pair law (a
        :class:`~repro.engine.sampling.RandomScheduler`,
        :class:`~repro.engine.sampling.WeightedScheduler`, or
        :class:`~repro.engine.topology.GraphScheduler`) sharing its
        randomness stream with the caller; uniform by default.
    vectorized:
        Path selection.  For table models: ``None`` (default) uses the
        chunked NumPy kernel when ``n`` and the run's observation/stop
        cadences make it profitable, ``True`` forces it, ``False`` keeps
        the sequential loop (bit-for-bit the seed simulator; the kernel
        produces identical trajectories, so this knob is about
        performance and auditability, not results).  Stochastic models
        always run on the kernel: ``None``/``False`` in pair order (the
        reproducibility default), ``True`` in the batched rounds of
        one-way models — distribution-identical to pair order but not
        bit-identical.
    """

    def __init__(self, model: InteractionModel, initial_states, seed=None,
                 scheduler=None, vectorized: bool | None = None):
        self.model = model
        states = np.asarray(initial_states)  # integers are not widened
        if states.dtype.kind not in "iu":
            states = check_int_array("initial_states", states)
        if states.ndim != 1 or states.size < 2:
            raise InvalidParameterError(
                "initial_states must be a 1-D array of at least 2 agents")
        if states.min() < 0 or states.max() >= model.n_states:
            raise InvalidParameterError(
                f"initial states must lie in 0..{model.n_states - 1}")
        states = states.astype(model.state_dtype)
        self._states = states
        self.n = states.size
        if scheduler is None:
            scheduler = RandomScheduler(self.n, seed)
        elif scheduler.n != self.n:
            raise InvalidParameterError(
                f"scheduler is over n={scheduler.n} agents, "
                f"population has n={self.n}")
        self.scheduler = scheduler
        self._counts = count_states(states, model.n_states)
        self._has_tables = model.component_tables is not None
        self.vectorized = vectorized
        self._kernel = None
        self.steps_run = 0

    @property
    def states(self) -> np.ndarray:
        """Current per-agent states (copy)."""
        return self._states.copy()

    @property
    def states_live(self) -> np.ndarray:
        """The live state array, in the model's ``state_dtype`` (mutated
        by :meth:`run`; do not resize or write it)."""
        return self._states

    # ------------------------------------------------------------------
    # Snapshot / restore (the crash-safety contract; see engine.snapshot)
    # ------------------------------------------------------------------
    def _ensure_kernel(self) -> ConflictFreeKernel:
        if self._kernel is None:
            self._kernel = ConflictFreeKernel(
                self.model, self._states, self._counts,
                in_order=self.vectorized is not True)
        return self._kernel

    def snapshot(self) -> "SnapshotState":
        """Exact mutable state between runs, for :meth:`restore`.

        Captures copies of the per-agent states and counts, the step
        cursor, and the scheduler generator's bitstream position.  The
        kernel's peel stamps carry no history (see
        :mod:`repro.engine.vectorized`), so a restored engine starts them
        afresh.
        """
        from repro.engine.snapshot import SnapshotState, rng_state

        return SnapshotState(kind="agent", payload={
            "n": int(self.n),
            "n_states": int(self.model.n_states),
            "steps_run": int(self.steps_run),
            "states": self._states.copy(),
            "counts": self._counts.copy(),
            "rng": rng_state(self.scheduler.rng),
        })

    def restore(self, snapshot: "SnapshotState") -> None:
        """Adopt a snapshot taken by an identically constructed engine.

        Every array is checked (shapes, state range, counts equal to the
        states' histogram) before any is written; they are then written
        *in place* (facades and the kernel alias them).  After this call
        any sequence of ``run`` calls is byte-identical to the
        snapshotting engine continuing.  An older document's ``int64``
        states restore too, and its peel stamps are ignored.
        """
        from repro.engine.snapshot import (
            _check_population,
            _snapshot_array,
            _snapshot_states,
            check_snapshot,
            restore_rng,
        )

        payload = check_snapshot(snapshot, "agent", n=self.n,
                                 n_states=self.model.n_states)
        states = _snapshot_states(payload, "states", self._states)
        counts = _snapshot_array(payload, "counts", self._counts)
        _check_population(counts, self.n, states)
        restore_rng(self.scheduler.rng, payload["rng"])
        self._states[:] = states
        self._counts[:] = counts
        self.steps_run = int(payload["steps_run"])

    def _result(self, converged, sink) -> EngineResult:
        sink.flush()
        return EngineResult(counts=self._counts.copy(), steps=self.steps_run,
                            converged=converged, observations=sink.records)

    def run(self, max_steps: int, stop_when=None,
            observe_every: int | None = None,
            check_stop_every: int = 1, observe=None) -> EngineResult:
        (max_steps, observe_every, check_stop_every, sink,
         stopped) = self._prepare_run(max_steps, stop_when, observe_every,
                                      check_stop_every, observe)
        if stopped or max_steps == 0:
            return self._result(stopped, sink)
        if self._has_tables and not self._use_vectorized(
                stop_when, observe_every, check_stop_every):
            return self._run_tables(max_steps, stop_when, observe_every,
                                    check_stop_every, sink)
        executed, converged = run_kernel(
            self._ensure_kernel(), self.scheduler.pair_block,
            self.model.sample_components, self.scheduler.rng, max_steps,
            self.steps_run, stop_when, observe_every, check_stop_every,
            sink, others_block=self.scheduler.others_block,
            states=self._states)
        self.steps_run += executed
        return self._result(converged, sink)

    # ------------------------------------------------------------------
    # Vectorized kernel path
    # ------------------------------------------------------------------
    def _use_vectorized(self, stop_when, observe_every,
                        check_stop_every) -> bool:
        """Whether this run of a table model should take the kernel.

        ``vectorized=True``/``False`` decide outright; the auto default
        declines for small populations and for runs whose observation or
        stop cadence would cap chunks below the point where NumPy call
        overhead wins (both paths produce identical trajectories, so the
        choice is invisible except in wall-clock).
        """
        if self.vectorized is not None:
            return self.vectorized
        if self.n < MIN_VECTORIZED_N:
            return False
        cadence = min(
            observe_every if observe_every is not None else BLOCK_SIZE,
            check_stop_every if stop_when is not None else BLOCK_SIZE)
        return cadence >= MIN_VECTORIZED_CADENCE

    # ------------------------------------------------------------------
    # Table fast loop
    # ------------------------------------------------------------------
    def _run_tables(self, max_steps, stop_when, observe_every,
                    check_stop_every, sink) -> EngineResult:
        model = self.model
        s = model.n_states
        kernel = self._ensure_kernel()
        use_lists = self.n <= _LIST_PATH_MAX_N_PER_STEP * max_steps
        if use_lists:
            flat_u, flat_v = kernel.flat_u_list, kernel.flat_v_list
            states = self._states.tolist()
            counts = self._counts.tolist()
        else:
            flat_u, flat_v = kernel.flat_u, kernel.flat_v
            states = self._states
            counts = self._counts
            # Narrow state scalars times an intp factor give an intp
            # pair index; times a Python int they would wrap.
            s = np.intp(s)
        single = len(flat_u) == s * s  # one component table
        rng = self.scheduler.rng

        def sync():
            if use_lists:
                self._states[:] = states
                self._counts[:] = counts

        done = 0
        while done < max_steps:
            batch = min(BLOCK_SIZE, max_steps - done)
            initiators, responders = self.scheduler.pair_block(batch)
            comps = None if single else model.sample_components(rng, batch)
            if comps is None and not single:
                raise InvalidParameterError(
                    "model exposes multiple component tables but "
                    "sample_components returned None; override it to draw "
                    "per-interaction component indices")
            if use_lists:
                initiators = initiators.tolist()
                responders = responders.tolist()
                if comps is not None:
                    comps = comps.tolist()
            for offset in range(batch):
                i = initiators[offset]
                j = responders[offset]
                u = states[i]
                v = states[j]
                if comps is None:
                    pair = u * s + v
                else:
                    pair = (comps[offset] * s + u) * s + v
                new_u = flat_u[pair]
                if new_u != u:
                    states[i] = new_u
                    counts[u] -= 1
                    counts[new_u] += 1
                if flat_v is not None:
                    new_v = flat_v[pair]
                    if new_v != v:
                        states[j] = new_v
                        counts[v] -= 1
                        counts[new_v] += 1
                step = done + offset + 1
                if observe_every is not None and step % observe_every == 0:
                    sink.emit(self.steps_run + step, counts, states)
                if (stop_when is not None
                        and step % check_stop_every == 0):
                    if use_lists:
                        # Refresh the live count array so predicates that
                        # read backend state (instead of their argument)
                        # still see current counts.
                        self._counts[:] = counts
                        probe = self._counts
                    else:
                        probe = counts
                    if stop_when(probe):
                        sync()
                        self.steps_run += step
                        return self._result(True, sink)
            done += batch
        sync()
        self.steps_run += max_steps
        return self._result(False, sink)
