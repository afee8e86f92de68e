"""Per-agent simulation backend.

Executes the model's classic semantics: every agent's state is tracked
individually and the sampled interactions take effect as if applied one
at a time.  Scheduler randomness is drawn in vectorized blocks through
:meth:`repro.engine.sampling.RandomScheduler.pair_block` (the shift-trick
sampler), exactly like the seed simulator — so for table models a fixed
seed reproduces the pre-engine simulator's trajectories bit for bit.

Every run goes through the conflict-free kernel
(:mod:`repro.engine.vectorized`), one way for every model: each chunk's
interactions draw their uniforms (for models that draw one) before any
executes, and the chunk is split into mutually independent rounds
applied as table lookups or vectorized ``model.apply`` calls, with only
the hard conflict chains running through a scalar head.  That is
**bit-for-bit identical** to applying the pairs one at a time, each
with its own uniform (same pair blocks, same uniforms, conflicting
pairs executed in sampling order).

Models that read extra agents (``slots_per_step == 4``) get their
observed agents sampled per block through the scheduler's
``others_block`` (the same shift trick under the uniform scheduler;
weighted rejection draws under a weighted one).

The scheduler is any pair law of :mod:`repro.engine.sampling` /
:mod:`repro.engine.topology` (e.g. a
:class:`~repro.engine.sampling.WeightedScheduler` for heterogeneous
contact processes); the kernel draws its pairs — and 4-slot models
their observed agents — through it.
"""

from __future__ import annotations

import numpy as np

from repro.engine.base import EngineResult, SimulationEngine
from repro.engine.model import InteractionModel, count_states
from repro.engine.sampling import RandomScheduler
from repro.engine.vectorized import ConflictFreeKernel, run_kernel
from repro.utils import check_int_array
from repro.utils.errors import InvalidParameterError


class AgentBackend(SimulationEngine):
    """Per-agent engine for an :class:`InteractionModel`.

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
    """

    def __init__(self, model: InteractionModel, initial_states, seed=None,
                 scheduler=None):
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
        # Refuses several component tables without ``component_probs``.
        self._kernel = ConflictFreeKernel(model, states, self._counts)
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
    def snapshot(self) -> "SnapshotState":
        """Exact mutable state between runs, for :meth:`restore`.

        Captures copies of the per-agent states and counts, the step
        cursor, and the scheduler generator's bitstream position.  The
        kernel's peel stamps carry no history (see
        :mod:`repro.engine.vectorized`), so they are not captured: a
        restored engine keeps its own.
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
        executed, converged = run_kernel(
            self._kernel, self.scheduler, max_steps, self.steps_run,
            stop_when, observe_every, check_stop_every, sink,
            states=self._states)
        self.steps_run += executed
        return self._result(converged, sink)
