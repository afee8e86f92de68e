"""Loud refusals at the engine boundary.

Every engine-level knob that a facade, a CLI flag or a snapshot file can
feed must reject a malformed value with a message naming the problem,
before any state is built.  One case per refusal branch.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.engine import (
    AgentBackend,
    CountBackend,
    ImitationModel,
    InteractionGraph,
    LogitResponseModel,
    MixtureTableModel,
    PairMixtureTableModel,
    ProductStateModel,
    SnapshotError,
    SnapshotState,
    TableModel,
    WeightedCountBackend,
    grid_graph,
    igt_model,
    matrix_game_model,
    powerlaw_graph,
    resolve_topology,
    resolve_weights,
    ring_graph,
    small_world_graph,
    topology_from_spec,
    weights_from_spec,
)
from repro.engine.observe import DegreeProfileReducer
from repro.engine.snapshot import check_snapshot, restore_rng, run_resumable
from repro.utils import InvalidParameterError

IDENTITY = np.stack(np.meshgrid(np.arange(2), np.arange(2), indexing="ij"),
                    axis=-1)

TOPOLOGY_REFUSALS = [
    pytest.param(lambda: InteractionGraph(1, [[0, 0]]),
                 "at least 2 vertices", id="graph-one-vertex"),
    pytest.param(lambda: InteractionGraph(4, np.empty((0, 2))),
                 "non-empty", id="graph-no-edges"),
    pytest.param(lambda: InteractionGraph(4, [[0, 4]]),
                 "endpoints must lie in 0..3", id="graph-endpoint-range"),
    pytest.param(lambda: ring_graph(8, half_width=0),
                 "half-width must be >= 1", id="ring-width"),
    pytest.param(lambda: grid_graph(10, rows=3),
                 "must divide n=10", id="grid-rows"),
    pytest.param(lambda: small_world_graph(10, p=1.5),
                 "must lie in \\[0, 1\\]", id="smallworld-p"),
    pytest.param(lambda: small_world_graph(10, half_width=1),
                 "half-width must be >= 2", id="smallworld-width"),
    pytest.param(lambda: powerlaw_graph(10, alpha=0.0),
                 "positive and finite", id="powerlaw-alpha"),
    pytest.param(lambda: topology_from_spec("complete:3", 10),
                 "takes no argument", id="spec-complete-argument"),
    pytest.param(lambda: topology_from_spec("ring:wide", 10),
                 "malformed ring half-width", id="spec-ring"),
    pytest.param(lambda: topology_from_spec("grid:x", 10),
                 "malformed grid rows", id="spec-grid"),
    pytest.param(lambda: topology_from_spec("smallworld:often", 10),
                 "malformed smallworld", id="spec-smallworld"),
    pytest.param(lambda: topology_from_spec("powerlaw:steep", 10),
                 "malformed powerlaw exponent", id="spec-powerlaw"),
    pytest.param(lambda: resolve_topology(ring_graph(8), 10),
                 "over n=8 agents", id="graph-size-mismatch"),
]

WEIGHT_REFUSALS = [
    pytest.param(lambda: weights_from_spec("uniform:2", 10),
                 "takes no argument", id="uniform-argument"),
    pytest.param(lambda: weights_from_spec("powerlaw:x", 10),
                 "malformed powerlaw exponent", id="powerlaw-malformed"),
    pytest.param(lambda: weights_from_spec("twoclass:x", 10),
                 "malformed twoclass ratio", id="twoclass-malformed"),
    pytest.param(lambda: weights_from_spec("twoclass:inf", 10),
                 "positive and finite", id="twoclass-infinite"),
    pytest.param(lambda: resolve_weights(np.ones(9), 10),
                 "length n=10", id="array-length"),
    pytest.param(lambda: WeightedCountBackend(TableModel(IDENTITY),
                                              [[5, 5]], [[1.0]]),
                 "1-D array", id="class-weights-shape"),
    pytest.param(lambda: WeightedCountBackend(TableModel(IDENTITY),
                                              [[5, 5]], [0.0]),
                 "positive and finite", id="class-weights-positive"),
    pytest.param(lambda: WeightedCountBackend(TableModel(IDENTITY),
                                              [5, 5], [1.0]),
                 "shape \\(C, S\\)", id="initial-counts-shape"),
    pytest.param(lambda: WeightedCountBackend.from_agent_states(
        TableModel(IDENTITY), np.zeros(4, dtype=np.int64), np.ones(5)),
                 "cover 5 agents", id="from-agent-states-length"),
    pytest.param(lambda: ProductStateModel(TableModel(IDENTITY), 0),
                 "n_classes must be positive", id="product-classes"),
]

#: Non-integral populations, refused instead of truncated by a cast.
POPULATION_REFUSALS = [
    pytest.param(lambda: CountBackend(igt_model(3), [2.5, 3.5, 1.9, 4, 4]),
                 "initial_counts must hold integers, got 2.5",
                 id="count-fractional"),
    pytest.param(lambda: CountBackend(igt_model(3),
                                      [np.nan, 4.0, 4.0, 4.0, 4.0]),
                 "initial_counts must hold integers, got nan",
                 id="count-nan"),
    pytest.param(lambda: AgentBackend(igt_model(3), [True, False, True]),
                 "initial_states must hold integers, got dtype bool",
                 id="agent-bool"),
    pytest.param(lambda: WeightedCountBackend.from_agent_states(
        TableModel(IDENTITY), [0.0, 1.0, 0.5, 1.0], np.ones(4)),
                 "states must hold integers, got 0.5",
                 id="from-agent-states-fractional"),
    pytest.param(lambda: AgentBackend(igt_model(3), [0, 1, 2, 1.5]),
                 "initial_states must hold integers, got 1.5",
                 id="agent-fractional"),
    pytest.param(lambda: CountBackend(igt_model(3), [[3, 3, 3, 3, 3]]),
                 "initial_counts must be a 1-D array", id="count-2d"),
]

MODEL_REFUSALS = [
    pytest.param(lambda: TableModel(np.zeros((0, 0, 2), dtype=int)),
                 ">= 1 state", id="table-empty"),
    pytest.param(lambda: TableModel([[[0, 0.9], [1.7, 1]],
                                     [[1, 0], [1, 1]]]),
                 "transition table must hold integers, got 0.9",
                 id="table-fractional"),
    pytest.param(lambda: TableModel(IDENTITY.astype(float) * np.nan),
                 "transition table must hold integers, got nan",
                 id="table-nan"),
    pytest.param(lambda: TableModel(IDENTITY.astype(bool)),
                 "transition table must hold integers, got dtype bool",
                 id="table-bool"),
    pytest.param(lambda: TableModel(IDENTITY + 1),
                 "table entries must lie in 0..1", id="table-entry-high"),
    pytest.param(lambda: TableModel(IDENTITY - 1),
                 "table entries must lie in 0..1", id="table-entry-negative"),
    pytest.param(lambda: TableModel(np.zeros((2, 3, 2), dtype=int)),
                 "shape \\(S, S, 2\\), got \\(2, 3, 2\\)",
                 id="table-not-square"),
    pytest.param(lambda: TableModel(np.zeros((2, 2, 3), dtype=int)),
                 "shape \\(S, S, 2\\), got \\(2, 2, 3\\)",
                 id="table-last-axis"),
    pytest.param(lambda: MixtureTableModel([IDENTITY, IDENTITY + 0.5],
                                           [0.5, 0.5]),
                 "transition table must hold integers, got 0.5",
                 id="mixture-fractional"),
    pytest.param(lambda: PairMixtureTableModel(
        IDENTITY, IDENTITY.astype(bool), np.full((2, 2), 0.5)),
                 "transition table must hold integers, got dtype bool",
                 id="pair-mixture-bool"),
    pytest.param(lambda: MixtureTableModel([], []),
                 "at least one component", id="mixture-empty"),
    pytest.param(lambda: MixtureTableModel(
        [IDENTITY, np.zeros((3, 3, 2), dtype=int)], [0.5, 0.5]),
                 "over 3 states, expected 2", id="mixture-state-mismatch"),
    pytest.param(lambda: LogitResponseModel(np.ones((2, 3))),
                 "square matrix", id="logit-shape"),
    pytest.param(lambda: ImitationModel(np.ones((2, 3))),
                 "square matrix", id="imitation-shape"),
    pytest.param(lambda: ImitationModel(np.ones((2, 2)), scale=-1.0),
                 "scale must be positive", id="imitation-scale"),
    pytest.param(lambda: ImitationModel(np.eye(2)).apply_scalar(
        0, 1, np.random.default_rng(0)),
                 "two observed opponent states", id="imitation-unobserved"),
    pytest.param(lambda: matrix_game_model(np.ones(3), "logit"),
                 "square matrix", id="game-model-shape"),
]


def v2_document(header: bytes) -> bytes:
    magic = b"\x89RSNAP2\n"
    body = len(header).to_bytes(8, "little") + header
    return magic + hashlib.sha256(body).digest() + body


def v1_document(document: dict) -> bytes:
    """A version-1 document: checksummed JSON, no longer read."""
    body = json.dumps(document)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return json.dumps({"checksum": digest, "body": body}).encode("utf-8")


SNAPSHOT_REFUSALS = [
    pytest.param(lambda: SnapshotState.from_bytes(v2_document(b"[1, 2]")),
                 "malformed snapshot document", id="v2-header-not-object"),
    pytest.param(lambda: SnapshotState.from_bytes(
        v1_document({"version": 1, "kind": "count",
                     "payload": {"steps_run": 9}})),
                 "bad magic prefix", id="v1-document"),
    pytest.param(lambda: restore_rng(np.random.default_rng(0),
                                     {"bit_generator": "MT19937"}),
                 "'MT19937' generator state", id="rng-kind"),
    pytest.param(lambda: restore_rng(np.random.default_rng(0),
                                     {"bit_generator": "PCG64"}),
                 "malformed generator state", id="rng-malformed"),
    pytest.param(lambda: check_snapshot({"kind": "count"}, "count"),
                 "expected a SnapshotState", id="not-a-snapshot"),
    pytest.param(lambda: run_resumable(None, 10, None, check_stop_every=1,
                                       observe="memory"),
                 "observe= needs observe_every", id="resumable-cadence"),
]


class TestTopologyRefusals:
    @pytest.mark.parametrize("call, match", TOPOLOGY_REFUSALS)
    def test_refused(self, call, match):
        with pytest.raises(InvalidParameterError, match=match):
            call()


class TestWeightRefusals:
    @pytest.mark.parametrize("call, match", WEIGHT_REFUSALS)
    def test_refused(self, call, match):
        with pytest.raises(InvalidParameterError, match=match):
            call()


class TestPopulationRefusals:
    @pytest.mark.parametrize("call, match", POPULATION_REFUSALS)
    def test_refused(self, call, match):
        with pytest.raises(InvalidParameterError, match=match):
            call()


class TestModelRefusals:
    @pytest.mark.parametrize("call, match", MODEL_REFUSALS)
    def test_refused(self, call, match):
        with pytest.raises(InvalidParameterError, match=match):
            call()

    def test_degree_profile_needs_class_labels(self):
        with pytest.raises(InvalidParameterError, match="non-empty 1-d"):
            DegreeProfileReducer(np.empty(0, dtype=np.int64), [0.0, 1.0])


class TestSnapshotRefusals:
    @pytest.mark.parametrize("call, match", SNAPSHOT_REFUSALS)
    def test_refused(self, call, match):
        with pytest.raises((SnapshotError, InvalidParameterError),
                           match=match):
            call()
