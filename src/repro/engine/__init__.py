"""Unified simulation-engine layer.

The architecture is: *models* declare what a pairwise interaction does
(:mod:`repro.engine.model`, built from domain objects by
:mod:`repro.engine.adapters`), and interchangeable *backends* execute the
uniform-scheduler process:

* :class:`AgentBackend` — per-agent sequential semantics, bit-for-bit
  reproducible against the seed simulator for deterministic models; table
  models run on the chunked vectorized kernel by default
  (:mod:`repro.engine.vectorized`, identical trajectories, ~5-8x the
  sequential loops; ``vectorized=False`` opts out); generic models
  run a per-interaction loop;
* :class:`CountBackend` — exact count-level simulation (the Section 2.2.1
  Markov-on-counts view): ``Θ(√n)``-batched birthday runs at large ``n``,
  and an array-proxy kernel below :data:`~repro.engine.count.PROXY_MAX_N`
  so small populations no longer pay the per-batch fixed costs.

With ``track_pair_counts=True`` every backend accumulates per-type-pair
interaction counts, the one route to the facades' payoff observables.

Observations stream through pluggable sinks (:mod:`repro.engine.observe`):
the default :class:`MemorySink` reproduces the classic in-RAM
``observations`` list byte-for-byte, while :class:`JsonlSink` appends
newline-delimited JSON and online :class:`Reducer` sinks hold summaries —
both constant-memory regardless of trajectory length, so observed runs
stream at ``n = 10^9`` without materializing a single row in RAM.

Non-uniform scheduling is first-class: each pair law is one class
(:class:`RandomScheduler`, :class:`WeightedScheduler`,
:class:`GraphScheduler`) with the ``weights`` / ``topology`` /
``others_block`` capabilities, and every law plugs into
:class:`AgentBackend`.  :class:`WeightedCountBackend`
(:mod:`repro.engine.weighted`) runs the exact ``(weight class × state)``
count chain that replaces the exchangeable count vector under a
:class:`WeightedScheduler`, and graph-restricted laws run quenched on
:class:`AgentBackend` and degree-annealed on :class:`CountBackend` for
vertex-transitive graphs.  Surfaces that cannot honor a law refuse
loudly instead of silently downgrading it.

Facades build engines in :mod:`repro.engine.dispatch`: :func:`make_law`
parses ``weights=`` / ``topology=`` into one law, :func:`resolve_backend`
turns ``backend="auto"`` into an engine name from
``(n, weights, topology)`` and crossover constants measured by
``benchmarks/bench_engine.py``, and :func:`build_engine` constructs it.
"""

from repro.engine.adapters import (
    igt_action_model,
    igt_model,
    igt_update,
    matrix_game_model,
    protocol_model,
)
from repro.engine.agent import AgentBackend
from repro.engine.base import (
    BACKEND_CHOICES,
    BACKENDS,
    EngineResult,
    SimulationEngine,
    check_backend,
)
from repro.engine.count import CountBackend
from repro.engine.dispatch import (
    build_engine,
    make_law,
    resolve_backend,
)
from repro.engine.sampling import (
    AliasTable,
    RandomScheduler,
    WeightedScheduler,
    ordered_pair_block,
    weighted_pair_block,
)
from repro.engine.observe import (
    SERIES_DIR_ENV,
    DegreeProfileReducer,
    ExtinctionTimeReducer,
    JsonlSink,
    MeanReducer,
    MemorySink,
    ObserverSink,
    Reducer,
    TeeSink,
    as_sink,
    series_paths_for,
    series_sink,
    sink_from_spec,
    use_series_scope,
)
from repro.engine.model import (
    ImitationModel,
    InteractionModel,
    LogitResponseModel,
    MixtureTableModel,
    PairMixtureTableModel,
    TableModel,
)
from repro.engine.topology import (
    GraphScheduler,
    InteractionGraph,
    complete_graph,
    graph_pair_block,
    grid_graph,
    powerlaw_graph,
    resolve_topology,
    ring_graph,
    small_world_graph,
    topology_from_spec,
)
from repro.engine.snapshot import (
    FileSnapshotChannel,
    ScopedSnapshotChannel,
    SnapshotChannel,
    SnapshotError,
    SnapshotState,
    SnapshotStore,
    current_channel,
    run_resumable,
    scoped_channel,
    use_snapshot_channel,
)
from repro.engine.vectorized import ConflictFreeKernel
from repro.engine.weighted import (
    WEIGHTED_PROXY_MAX_N,
    ProductStateModel,
    WeightedCountBackend,
    resolve_weights,
    weight_classes,
    weights_from_spec,
)

__all__ = [
    "BACKENDS",
    "BACKEND_CHOICES",
    "check_backend",
    "resolve_backend",
    "make_law",
    "build_engine",
    "SimulationEngine",
    "EngineResult",
    "AgentBackend",
    "CountBackend",
    "WeightedCountBackend",
    "ConflictFreeKernel",
    "InteractionModel",
    "TableModel",
    "MixtureTableModel",
    "PairMixtureTableModel",
    "LogitResponseModel",
    "ImitationModel",
    "ProductStateModel",
    "protocol_model",
    "igt_model",
    "igt_update",
    "igt_action_model",
    "matrix_game_model",
    "ordered_pair_block",
    "weighted_pair_block",
    "AliasTable",
    "RandomScheduler",
    "WeightedScheduler",
    "resolve_weights",
    "weight_classes",
    "weights_from_spec",
    "WEIGHTED_PROXY_MAX_N",
    "InteractionGraph",
    "GraphScheduler",
    "complete_graph",
    "ring_graph",
    "grid_graph",
    "small_world_graph",
    "powerlaw_graph",
    "topology_from_spec",
    "resolve_topology",
    "graph_pair_block",
    "ObserverSink",
    "MemorySink",
    "JsonlSink",
    "Reducer",
    "MeanReducer",
    "ExtinctionTimeReducer",
    "DegreeProfileReducer",
    "TeeSink",
    "as_sink",
    "sink_from_spec",
    "series_sink",
    "series_paths_for",
    "use_series_scope",
    "SERIES_DIR_ENV",
    "SnapshotState",
    "SnapshotStore",
    "SnapshotError",
    "SnapshotChannel",
    "FileSnapshotChannel",
    "ScopedSnapshotChannel",
    "current_channel",
    "use_snapshot_channel",
    "scoped_channel",
    "run_resumable",
]
