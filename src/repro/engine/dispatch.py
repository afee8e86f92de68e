"""Engine construction: pair laws, ``backend="auto"``, and the factory.

Every facade builds its engine through three steps that live here:
:func:`make_law` parses the ``weights=`` / ``topology=`` knobs into one
pair law, :func:`resolve_backend` turns the ``backend=`` knob into a
concrete engine name, and :func:`build_engine` maps the law and that
name to an engine.

``backend="auto"`` picks the per-agent or a count-level engine by
comparing ``n`` with a measured crossover: below it the (vectorized)
agent backend wins, from it on the count backends' batched kernels do.
The crossovers are source constants, like the engines' other measured
path bounds (:data:`~repro.engine.count.PROXY_MAX_N`,
:data:`~repro.engine.weighted.WEIGHTED_PROXY_MAX_N`,
:data:`~repro.engine.vectorized.MIN_VECTORIZED_N`), so ``auto`` names
one engine for given inputs and source on every install — and a result
cached under ``backend="auto"``, whose key digests the source, names one
trajectory.  ``benchmarks/bench_engine.py`` re-measures them and prints
the edit to make here when a measurement disagrees.
"""

from __future__ import annotations

import numpy as np

from repro.engine.agent import AgentBackend
from repro.engine.base import check_backend
from repro.engine.count import CountBackend
from repro.engine.sampling import RandomScheduler, WeightedScheduler
from repro.engine.topology import GraphScheduler, resolve_topology
from repro.engine.weighted import WeightedCountBackend, resolve_weights
from repro.utils.errors import InvalidParameterError

#: ``auto`` crossover of unweighted workloads: count wins from the smallest
#: measured size (its array-proxy kernel ties the agent kernel there).
STRATEGY_CROSSOVER_N = 1000

#: Crossover under non-uniform weights: both engines run the conflict
#: kernel on weighted pair blocks, and the count side's
#: ``(weight class × state)`` lift takes the lead from here on.
WEIGHTED_CROSSOVER_N = 2636


def resolve_backend(backend: str | None, n: int, weighted: bool = False,
                    graph_restricted: bool = False) -> str:
    """Resolve a user-facing ``backend`` knob to a concrete engine name.

    ``"agent"``/``"count"`` pass through (unknown names raise).  ``None``
    and ``"auto"`` pick ``"count"`` iff ``n`` reaches the workload's
    crossover: :data:`WEIGHTED_CROSSOVER_N` when ``weighted``, else
    :data:`STRATEGY_CROSSOVER_N`.  ``graph_restricted`` forces
    ``"agent"``: ``auto`` must never silently change the law, and on a
    non-complete graph only the agent backend simulates the quenched
    process (the count backends' annealed chain is opt-in via an explicit
    ``backend="count"``, accepted only for vertex-transitive graphs).
    """
    if backend is not None and backend != "auto":
        return check_backend(backend)
    if graph_restricted:
        return "agent"
    crossover = WEIGHTED_CROSSOVER_N if weighted else STRATEGY_CROSSOVER_N
    return "count" if int(n) >= crossover else "agent"


def make_law(n: int, weights=None, topology=None, seed=None):
    """The pair law named by the facades' ``weights=`` / ``topology=`` knobs.

    The one parser of both knobs: ``weights`` is a spec string or a
    per-agent array (:func:`~repro.engine.weighted.resolve_weights`;
    ``"uniform"`` means none), ``topology`` a spec string, graph, or edge
    array (:func:`~repro.engine.topology.resolve_topology`;
    ``"complete"`` means none).  Returns a
    :class:`~repro.engine.topology.GraphScheduler`,
    :class:`~repro.engine.sampling.WeightedScheduler`, or
    :class:`~repro.engine.sampling.RandomScheduler` over ``n`` agents
    drawing from ``seed``.  Non-uniform weights on a graph are refused:
    that combined law is not defined here.
    """
    weights = resolve_weights(weights, n)
    graph = resolve_topology(topology, n)
    if graph is not None and weights is not None:
        raise InvalidParameterError(
            "pass either weights= or topology=, not both: the weighted "
            "graph-restricted law is not defined here (an irregular "
            "graph's degree-proportional activity is already captured by "
            "its topology)")
    if graph is not None:
        return GraphScheduler(graph, seed)
    if weights is not None:
        return WeightedScheduler(weights, seed)
    return RandomScheduler(n, seed)


def build_engine(model, law, backend: str, *, states=None, counts=None,
                 track_pair_counts: bool = False,
                 vectorized: bool | None = None):
    """The engine that runs ``model`` under ``law`` on a concrete backend.

    The one place that maps a pair law and a resolved ``backend`` name
    to an engine; every engine draws from the law's generator.

    * ``"agent"`` — :class:`~repro.engine.agent.AgentBackend` over a
      copy of ``states`` in the model's ``state_dtype``, drawing every
      pair through ``law``.
    * ``"count"`` under non-uniform ``law.weights`` — the exact
      ``(weight class × state)`` lift
      :class:`~repro.engine.weighted.WeightedCountBackend`, built from
      ``states`` and the law's per-agent weights.
    * ``"count"`` otherwise — :class:`~repro.engine.count.CountBackend`
      over ``counts`` (or the histogram of ``states``); it accepts only
      vertex-transitive graphs.  This path needs no per-agent array, so
      callers at large ``n`` pass ``counts`` alone.

    ``track_pair_counts`` applies to every engine and ``vectorized`` to
    the agent backend's kernel choice.
    """
    if check_backend(backend) == "agent":
        return AgentBackend(model, states, scheduler=law,
                            vectorized=vectorized,
                            track_pair_counts=track_pair_counts)
    if law.weights is not None:
        return WeightedCountBackend.from_agent_states(
            model, states, law.weights, seed=law.rng,
            track_pair_counts=track_pair_counts)
    if counts is None:
        counts = np.bincount(states, minlength=model.n_states)
    return CountBackend(model, counts, scheduler=law,
                        track_pair_counts=track_pair_counts)


__all__ = [
    "STRATEGY_CROSSOVER_N",
    "WEIGHTED_CROSSOVER_N",
    "resolve_backend",
    "make_law",
    "build_engine",
]
