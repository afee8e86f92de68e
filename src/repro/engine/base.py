"""The simulation-engine contract shared by all backends.

A :class:`SimulationEngine` executes interactions of an
:class:`~repro.engine.model.InteractionModel` under the uniform random
scheduler and owns everything that is *not* the transition law: step
accounting, stop predicates, periodic count observations, and result
packaging.  Two interchangeable backends implement the contract:

* :class:`~repro.engine.agent.AgentBackend` — per-agent sequential
  semantics (tracks every agent's state; the model's classic view);
* :class:`~repro.engine.count.CountBackend` — exact count-level simulation
  (tracks only the state-count vector; distribution-identical to the agent
  view, orders of magnitude faster at large ``n``).

Both run the same process law; see each backend for its guarantees.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.engine.observe import as_sink
from repro.utils import check_positive_int
from repro.utils.errors import InvalidParameterError

#: Interactions per scheduler randomness block (the seed simulator's value;
#: kept identical so agent-backend trajectories are bit-for-bit stable).
BLOCK_SIZE = 65536

#: Valid concrete ``backend=`` names, in documentation order.
BACKENDS = ("agent", "count")

#: User-facing spellings: the concrete engines plus adaptive dispatch
#: (``"auto"`` resolves via :mod:`repro.engine.dispatch` before an
#: engine is built).
BACKEND_CHOICES = BACKENDS + ("auto",)


def check_backend(backend: str, allow_auto: bool = False) -> str:
    """Validate a ``backend=`` knob value and return it.

    ``allow_auto`` additionally admits ``"auto"`` — for the user-facing
    layers that resolve it through the dispatcher; the engines themselves
    only ever see concrete names.
    """
    valid = BACKEND_CHOICES if allow_auto else BACKENDS
    if backend not in valid:
        raise InvalidParameterError(
            f"backend must be one of {valid}, got {backend!r}")
    return backend


@dataclass
class EngineResult:
    """Outcome of an engine run.

    Attributes
    ----------
    counts:
        Final state-count vector of length ``n_states``.
    steps:
        Cumulative interactions executed by the engine (including previous
        ``run`` calls on the same engine).
    converged:
        Whether the stop predicate fired.
    observations:
        ``(step, counts)`` snapshots at the requested cadence, if any.
        Populated from the observer sink's retained records — empty for
        streaming/reducing sinks, whose output lives in the stream file
        or the reduction summary (see :mod:`repro.engine.observe`).

    Per-agent states are read from the engine, not copied per run.
    """

    counts: np.ndarray
    steps: int
    converged: bool
    observations: list[tuple[int, np.ndarray]] = field(default_factory=list)


class SimulationEngine(ABC):
    """Common interface of the interchangeable simulation backends.

    Concrete engines expose ``n`` (population size), ``steps_run``
    (cumulative interaction count), and the live count vector via
    :attr:`counts`.
    """

    n: int
    steps_run: int
    _counts: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        """Current state-count vector (copy)."""
        return self._counts.copy()

    @property
    def counts_live(self) -> np.ndarray:
        """The live count array, always mutated in place by the engine.

        Façades (the population simulator, the IGT and game simulations)
        alias this array so their observables track engine runs without
        copying; engines guarantee they never reallocate it.  Callers must
        not resize it.
        """
        return self._counts

    @property
    def states(self) -> np.ndarray | None:
        """Per-agent states (``None`` when the backend tracks only counts)."""
        return None

    @property
    def states_live(self) -> np.ndarray | None:
        """The live per-agent state array, or ``None`` (see :attr:`states`)."""
        return None

    @abstractmethod
    def run(self, max_steps: int, stop_when=None,
            observe_every: int | None = None,
            check_stop_every: int = 1, observe=None) -> EngineResult:
        """Execute up to ``max_steps`` interactions.

        Parameters
        ----------
        max_steps:
            Interaction budget for this call.
        stop_when:
            Optional predicate ``counts -> bool`` evaluated every
            ``check_stop_every`` steps of this call; the run stops early
            when it returns true.  Backends batch *across* check
            boundaries (interior counts are materialized exactly), so the
            cadence only controls how often the Python predicate runs —
            not the batch size.
        observe_every:
            When given, snapshot ``(step, counts)`` every that many steps of
            this call, including the entry state.
        observe:
            Where observations go: ``None`` (a fresh in-RAM
            :class:`~repro.engine.observe.MemorySink`, the historical
            behaviour), an :class:`~repro.engine.observe.ObserverSink`,
            or a spec string (``"jsonl:PATH"``, ``"mean"``, ...).
            Requires ``observe_every``.
        """

    def _prepare_run(self, max_steps, stop_when, observe_every,
                     check_stop_every, observe=None):
        """Shared argument validation + initial observation/stop handling.

        Returns ``(max_steps, observe_every, check_stop_every, sink,
        stopped)`` where ``stopped`` is true when the predicate already
        holds on entry (the run then executes zero interactions).
        """
        max_steps = check_positive_int("max_steps", max_steps, minimum=0)
        check_stop_every = check_positive_int("check_stop_every",
                                              check_stop_every)
        if observe is not None and observe_every is None:
            raise InvalidParameterError(
                "observe= needs observe_every — the observation cadence")
        sink = as_sink(observe)
        if sink.wants_states and self.states_live is None:
            raise InvalidParameterError(
                f"{type(sink).__name__} needs per-agent states, which "
                "only the agent backend tracks — count-level backends "
                "cannot drive it")
        if observe_every is not None:
            observe_every = check_positive_int("observe_every", observe_every)
            sink.emit(self.steps_run, self._counts,
                      self.states_live if sink.wants_states else None)
        stopped = stop_when is not None and bool(stop_when(self._counts))
        return (max_steps, observe_every, check_stop_every, sink, stopped)
