"""Sequential population-protocol simulator.

A thin per-agent façade over the engine layer (:mod:`repro.engine`): the
protocol's transition table becomes a
:class:`~repro.engine.model.TableModel` and an
:class:`~repro.engine.agent.AgentBackend` owns the uniform-scheduler loop,
stop predicates, and observations.  A full run from a fresh simulator is
bit-for-bit identical to the pre-engine simulator under a fixed seed
(same block-sampled randomness, same sequential semantics); the one
deliberate change is that observation/stop cadences now count from the
start of each ``run`` call rather than from the simulator's cumulative
step total, so chunked ``run`` calls snapshot on a per-call grid.

For count-level simulation of a protocol at large ``n`` — exact in
distribution but orders of magnitude faster — use
:func:`simulate_protocol_counts`.
"""

from __future__ import annotations

import numpy as np

from repro.engine import EngineResult, build_engine, make_law, protocol_model
from repro.population.protocol import PopulationProtocol
from repro.utils import check_int_array


class Simulator:
    """Runs a :class:`PopulationProtocol` on a concrete population.

    Parameters
    ----------
    protocol:
        The protocol to execute.
    initial_states:
        Length-``n`` integer array of initial agent states.
    seed:
        Seed or generator.
    vectorized:
        Forwarded to :class:`~repro.engine.agent.AgentBackend`: ``None``
        (default) picks the chunked NumPy kernel adaptively, ``False``
        pins the sequential loop, ``True`` forces the kernel.  Both paths
        produce bit-for-bit identical trajectories.
    topology:
        Optional interaction graph restricting which pairs may meet —
        a spec string (``"ring"``, ``"grid:8"``, ``"smallworld:0.1"``,
        ``"powerlaw:1.5"``; ``"complete"`` means unrestricted), an
        :class:`~repro.engine.topology.InteractionGraph`, or an
        ``(E, 2)`` edge array.  The run then draws pairs through a
        :class:`~repro.engine.topology.GraphScheduler` and simulates the
        quenched process on the concrete graph.
    """

    def __init__(self, protocol: PopulationProtocol, initial_states, seed=None,
                 vectorized: bool | None = None, topology=None):
        self.protocol = protocol
        states = check_int_array("initial_states", initial_states).copy()
        law = make_law(states.size, topology=topology, seed=seed)
        self._backend = build_engine(protocol_model(protocol), law, "agent",
                                     states=states, vectorized=vectorized)
        self.states = self._backend.states_live
        self.n = self._backend.n
        self._counts = self._backend.counts_live
        self._output_map = None

    @property
    def steps_run(self) -> int:
        """Total interactions executed so far."""
        return self._backend.steps_run

    @property
    def counts(self) -> np.ndarray:
        """Current state-count vector (kept incrementally; O(1) reads)."""
        return self._counts.copy()

    def state_count(self, state: int) -> int:
        """Number of agents currently in ``state``."""
        return int(self._counts[state])

    def run(self, max_steps: int, stop_when=None,
            observe_every: int | None = None,
            check_stop_every: int = 1, observe=None) -> EngineResult:
        """Execute up to ``max_steps`` interactions.

        Returns the engine's :class:`~repro.engine.base.EngineResult`:
        final ``states`` and ``counts``, the engine's cumulative
        ``steps``, whether the stop predicate fired (``converged``) and
        the ``observations``.

        Parameters
        ----------
        max_steps:
            Interaction budget.
        stop_when:
            Optional predicate ``counts -> bool`` evaluated every
            ``check_stop_every`` steps; the run stops early when it returns
            true.  Predicates must read the ``counts`` argument they are
            handed (or :attr:`counts`): on the engine's fast path the
            per-agent :attr:`states` array is written back only when the
            run returns, so mid-run reads of it see entry-of-run values.
        observe_every:
            When given, snapshot ``(step, counts)`` every that many steps
            of this call (including its entry state).
        observe:
            Where observations go — ``None`` (in-RAM, the default), an
            :class:`~repro.engine.observe.ObserverSink`, or a spec string
            like ``"jsonl:PATH"`` (see :mod:`repro.engine.observe`).
        """
        return self._backend.run(max_steps, stop_when=stop_when,
                                 observe_every=observe_every,
                                 check_stop_every=check_stop_every,
                                 observe=observe)

    def outputs(self) -> list:
        """Current per-agent outputs under the protocol's output map.

        Vectorized through a precomputed state -> output lookup array
        (one ``take`` instead of ``n`` Python-level calls).
        """
        if self._output_map is None:
            values = [self.protocol.output(s)
                      for s in range(self.protocol.n_states)]
            if all(type(v) is int for v in values):
                self._output_map = np.array(values, dtype=np.int64)
            else:
                self._output_map = np.empty(len(values), dtype=object)
                self._output_map[:] = values
        return self._output_map[self.states].tolist()


def simulate_protocol_counts(protocol: PopulationProtocol, initial_counts,
                             max_steps: int, seed=None, stop_when=None,
                             observe_every: int | None = None,
                             check_stop_every: int | None = None,
                             observe=None):
    """Count-level protocol simulation at scale (exact in distribution).

    Runs the protocol on the :class:`~repro.engine.count.CountBackend`:
    only the state-count vector is tracked, which lifts the practical
    population limit to ``n = 10^7`` and beyond.  Returns the backend's
    :class:`~repro.engine.base.EngineResult` (``states`` is ``None``).

    ``check_stop_every`` defaults to ``~sqrt(n)`` — the backend's natural
    batch scale.  Batches span check boundaries (the backend materializes
    interior counts exactly), so even ``check_stop_every=1`` keeps the
    vectorized batching; the default simply avoids calling the Python
    predicate once per interaction.  Pass ``1`` explicitly when the stop
    step must be exact to the interaction.
    """
    counts = check_int_array("initial_counts", initial_counts)
    backend = build_engine(protocol_model(protocol),
                           make_law(int(counts.sum()), seed=seed), "count",
                           counts=counts)
    if check_stop_every is None:
        check_stop_every = max(1, int(backend.n ** 0.5))
    return backend.run(max_steps, stop_when=stop_when,
                       observe_every=observe_every,
                       check_stop_every=check_stop_every,
                       observe=observe)
