"""Engine construction: pair laws, ``backend="auto"``, and the factory.

Every facade builds its engine through three steps that live here:
:func:`make_law` parses the ``weights=`` / ``topology=`` knobs into one
pair law, :func:`resolve_backend` turns the ``backend=`` knob into a
concrete engine name, and :func:`build_engine` maps the law and that
name to an engine.

``backend="auto"`` chooses between the per-agent and count-level engines
from the workload coordinates that actually decide the race:

* **per-agent observables** (agent trajectories, per-agent payoffs)
  force ``"agent"`` — the count backends track no identities;
* otherwise the population size ``n`` decides against a measured
  crossover: below it the (vectorized) agent backend wins, above it the
  count backend's batched kernels do.  ``mode="action"`` workloads get
  their own, much lower crossover — the agent backend must *play* a
  Monte-Carlo repeated game per interaction there, while the count
  backend applies the exact classification law vectorized.  **Weighted**
  (heterogeneous-activity) workloads use a third crossover: both engines
  then run the conflict-resolution kernel on weighted pair blocks, but
  the count side folds the population into ``(weight class × state)``
  counts and keeps its lead at scale.

The crossovers are read from the ``auto_thresholds`` section that
``benchmarks/bench_engine.py`` writes into ``BENCH_engine.json`` (the
committed machine-readable perf record), falling back to built-in
defaults when the file is absent — e.g. in a wheel install.  Reads are
cached per path and invalidated when the file's mtime changes, so a
benchmark run that regenerates the file in-process (or a test writing a
fresh one) is picked up instead of being served stale crossovers.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.engine.agent import AgentBackend
from repro.engine.base import check_backend
from repro.engine.count import CountBackend
from repro.engine.sampling import RandomScheduler, WeightedScheduler
from repro.engine.topology import GraphScheduler, resolve_topology
from repro.engine.weighted import WeightedCountBackend, resolve_weights
from repro.utils.errors import InvalidParameterError

#: Fallback crossovers (population size above which ``"count"`` is
#: chosen) when no benchmark file is readable.  Values match the shipped
#: ``BENCH_engine.json`` (count wins from the smallest measured size on
#: all three workloads — its array-proxy/product kernels tie the agent
#: kernel at small ``n`` and win beyond); see the file's
#: ``auto_thresholds`` section for the live numbers.
DEFAULT_THRESHOLDS = {
    "strategy_crossover_n": 1000,
    "action_crossover_n": 1000,
    "weighted_crossover_n": 1000,
}

#: Default location of the benchmark record: the repository root, three
#: levels above this file (absent in site-packages installs — that is
#: what the fallback defaults are for).
BENCH_PATH = pathlib.Path(__file__).resolve().parents[3] / "BENCH_engine.json"

#: ``path -> (mtime_ns, thresholds)`` cache: one file read per process
#: *per file version* — a changed mtime (e.g. ``bench_engine.py``
#: regenerating the record mid-process) invalidates the entry.
_THRESHOLD_CACHE: dict[str, tuple[int | None, dict]] = {}


def _mtime_ns(path: pathlib.Path) -> int | None:
    """The file's st_mtime_ns, or ``None`` when it cannot be stat'd."""
    try:
        return path.stat().st_mtime_ns
    except OSError:
        return None


def load_thresholds(path=None) -> dict:
    """The dispatch thresholds, from ``BENCH_engine.json`` if available.

    Unknown keys are ignored and missing keys filled from
    :data:`DEFAULT_THRESHOLDS`, so older benchmark files stay usable.
    Results are cached per ``(path, mtime)``; rewriting the file serves
    fresh values, while an unreadable file keeps serving the last good
    read (or the defaults when there never was one).
    """
    path = BENCH_PATH if path is None else pathlib.Path(path)
    key = str(path)
    mtime = _mtime_ns(path)
    cached = _THRESHOLD_CACHE.get(key)
    if cached is not None and (mtime is None or cached[0] == mtime):
        return dict(cached[1])
    thresholds = dict(DEFAULT_THRESHOLDS)
    try:
        recorded = json.loads(path.read_text()).get("auto_thresholds", {})
    except (OSError, ValueError):
        recorded = {}
    for name in thresholds:
        value = recorded.get(name)
        if isinstance(value, (int, float)) and value > 0:
            thresholds[name] = int(value)
    _THRESHOLD_CACHE[key] = (mtime, dict(thresholds))
    return thresholds


def choose_backend(n: int, mode: str = "strategy",
                   needs_per_agent: bool = False,
                   thresholds: dict | None = None,
                   weighted: bool = False,
                   graph_restricted: bool = False) -> str:
    """The backend ``"auto"`` resolves to for one workload.

    Parameters
    ----------
    n:
        Population size.
    mode:
        ``"action"`` selects the action-mode crossover (the agent
        backend is orders of magnitude slower there); anything else uses
        the strategy crossover.
    needs_per_agent:
        Per-agent observables required — forces ``"agent"``.
    thresholds:
        Optional override of :func:`load_thresholds` (tests, callers
        with their own measurements).
    weighted:
        Heterogeneous-activity workload — selects the weighted
        crossover (the count side is then the product-space lift of
        :class:`~repro.engine.weighted.WeightedCountBackend`).
    graph_restricted:
        Interaction-graph workload — forces ``"agent"``.  ``"auto"``
        must never silently change the law: on a non-complete graph
        only the agent backend simulates the quenched process, so the
        count backends' annealed semantics are opt-in (pin
        ``backend="count"`` explicitly, which the engine then accepts
        only for vertex-transitive graphs).
    """
    if needs_per_agent or graph_restricted:
        return "agent"
    if thresholds is None:
        thresholds = load_thresholds()
    if weighted:
        key = "weighted_crossover_n"
    elif mode == "action":
        key = "action_crossover_n"
    else:
        key = "strategy_crossover_n"
    crossover = thresholds.get(key, DEFAULT_THRESHOLDS[key])
    return "count" if int(n) >= crossover else "agent"


def resolve_backend(backend: str | None, n: int, mode: str = "strategy",
                    needs_per_agent: bool = False,
                    weighted: bool = False,
                    graph_restricted: bool = False) -> str:
    """Resolve a user-facing ``backend`` knob to a concrete engine name.

    ``None`` and ``"auto"`` dispatch via :func:`choose_backend`;
    ``"agent"``/``"count"`` pass through (validated).  A concrete choice
    conflicting with ``needs_per_agent`` is *not* rejected here — the
    facades raise their own, more specific errors.
    """
    if backend is None or backend == "auto":
        return choose_backend(n, mode=mode, needs_per_agent=needs_per_agent,
                              weighted=weighted,
                              graph_restricted=graph_restricted)
    return check_backend(backend)


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

    * ``"agent"`` — :class:`~repro.engine.agent.AgentBackend`, adopting
      the int64 array ``states`` in place and drawing every pair through
      ``law``.
    * ``"count"`` under non-uniform ``law.weights`` — the exact
      ``(weight class × state)`` lift
      :class:`~repro.engine.weighted.WeightedCountBackend`, built from
      ``states`` and the law's per-agent weights.
    * ``"count"`` otherwise — :class:`~repro.engine.count.CountBackend`
      over ``counts`` (or the histogram of ``states``); it accepts only
      vertex-transitive graphs.  This path needs no per-agent array, so
      callers at large ``n`` pass ``counts`` alone.

    ``track_pair_counts`` applies to the count engines and
    ``vectorized`` to the agent backend's kernel choice.
    """
    if check_backend(backend) == "agent":
        return AgentBackend(model, states, scheduler=law, copy=False,
                            vectorized=vectorized)
    if law.weights is not None:
        return WeightedCountBackend.from_agent_states(
            model, states, law.weights, seed=law.rng,
            track_pair_counts=track_pair_counts)
    if counts is None:
        counts = np.bincount(states, minlength=model.n_states)
    return CountBackend(model, counts, scheduler=law,
                        track_pair_counts=track_pair_counts)


def _reset_threshold_cache() -> None:
    """Drop cached threshold reads (test hook)."""
    _THRESHOLD_CACHE.clear()


__all__ = [
    "DEFAULT_THRESHOLDS",
    "BENCH_PATH",
    "load_thresholds",
    "choose_backend",
    "resolve_backend",
    "make_law",
    "build_engine",
]
