"""Crash-safety properties: snapshot/restore is bit-for-bit exact.

The contract under test (see :mod:`repro.engine.snapshot`): an engine
snapshot taken between ``run()`` calls, restored into a *freshly
constructed* engine with identical arguments, continues the trajectory
byte-identically — same counts, same per-agent states, same
observations, same generator bitstream position — across all three
backends, both execution paths of the count engines (array proxy and
birthday batching), stochastic kernels (peel stamps), weighted
populations, and graph topologies.  The second half exercises the
durability machinery itself: the checksummed on-disk store's fallback
ladder under torn writes, and the :mod:`repro.testing.faults` crash
harness via real subprocess deaths.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.engine import (
    AgentBackend,
    CountBackend,
    SnapshotError,
    SnapshotState,
    SnapshotStore,
    TableModel,
    WeightedCountBackend,
    igt_model,
    matrix_game_model,
    run_resumable,
    use_snapshot_channel,
)
from repro.engine.snapshot import FileSnapshotChannel, RecordingChannel
from repro.testing import FaultSpec, crash_point, reset_faults
from repro.testing.faults import CRASH_EXIT_CODE, FAULTS_ENV
from repro.utils.errors import InvariantError

PAYOFFS = np.array([[3.0, 0.0], [5.0, 1.0]])  # prisoner's dilemma


def det_model():
    return igt_model(3)  # 5-state deterministic one-way table


def logit_model():
    return matrix_game_model(PAYOFFS, "logit", eta=0.7)  # stochastic one-way


def averaging_model():
    """Two-way table: the initiator takes the ceiling of the pair's mean,
    the responder the floor (a protocol, not a game)."""
    return TableModel([[((u + v + 1) // 2, (u + v) // 2) for v in range(5)]
                       for u in range(5)])


def initial_states(n, n_states, seed=7):
    return np.random.default_rng(seed).integers(0, n_states, size=n)


def initial_counts(n, n_states, seed=7):
    return np.bincount(initial_states(n, n_states, seed),
                       minlength=n_states).astype(np.int64)


def engine_rng(engine):
    return getattr(engine, "rng", None) or engine.scheduler.rng


# A run plan mixes plain runs, stop-checked runs, and observed runs so
# every post-restore code path consumes the generator.
def run_plan(engine, plan):
    results = []
    for steps, kwargs in plan:
        results.append(engine.run(steps, **kwargs))
    return results


PRE_PLAN = [(900, {}), (450, {"stop_when": lambda z: False,
                              "check_stop_every": 64})]
POST_PLAN = [(700, {"observe_every": 128}),
             (500, {"stop_when": lambda z: False, "check_stop_every": 50}),
             (333, {})]


def assert_resumes_identically(factory, pre_plan=None, post_plan=None):
    """run(a); snapshot; run(b)  ==  fresh().restore(snapshot); run(b)."""
    pre_plan = PRE_PLAN if pre_plan is None else pre_plan
    post_plan = POST_PLAN if post_plan is None else post_plan
    original = factory()
    run_plan(original, pre_plan)
    # Round-trip through the checksummed byte format: the restored
    # object is exactly what a crashed process would read back.
    snapshot = SnapshotState.from_bytes(original.snapshot().to_bytes())
    resumed = factory()
    resumed.restore(snapshot)
    assert_continues_identically(original, resumed, post_plan)


def assert_continues_identically(original, resumed, post_plan=None):
    """Both engines run ``post_plan`` to identical results and generators."""
    post_plan = POST_PLAN if post_plan is None else post_plan
    assert resumed.steps_run == original.steps_run
    for steps, kwargs in post_plan:
        left = original.run(steps, **kwargs)
        right = resumed.run(steps, **kwargs)
        assert left.steps == right.steps
        assert left.converged == right.converged
        np.testing.assert_array_equal(left.counts, right.counts)
        if left.states is not None:
            np.testing.assert_array_equal(left.states, right.states)
        assert len(left.observations) == len(right.observations)
        for (step_a, counts_a), (step_b, counts_b) in zip(
                left.observations, right.observations):
            assert step_a == step_b
            np.testing.assert_array_equal(counts_a, counts_b)
    # The generators stayed in bitstream lockstep through it all.
    np.testing.assert_array_equal(
        engine_rng(original).integers(0, 2 ** 62, size=8),
        engine_rng(resumed).integers(0, 2 ** 62, size=8))


# ----------------------------------------------------------------------
# Backend x path matrix
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    @pytest.mark.parametrize("build", [
        lambda: AgentBackend(averaging_model(), initial_states(2000, 5),
                             seed=15, vectorized=True),
        lambda: CountBackend(averaging_model(), initial_counts(5000, 5),
                             seed=24),
        lambda: CountBackend(averaging_model(), initial_counts(5000, 5),
                             seed=25, vectorized=False),
    ], ids=["agent-kernel", "count-proxy", "count-birthday"])
    def test_two_way_table_protocol(self, build):
        assert_resumes_identically(build)

    def test_agent_backend_table_loop(self):
        assert_resumes_identically(lambda: AgentBackend(
            det_model(), initial_states(300, 5), seed=11, vectorized=False))

    def test_agent_backend_table_vectorized(self):
        assert_resumes_identically(lambda: AgentBackend(
            det_model(), initial_states(2000, 5), seed=12, vectorized=True))

    def test_agent_backend_stochastic_loop(self):
        assert_resumes_identically(lambda: AgentBackend(
            logit_model(), initial_states(200, 2), seed=13))

    def test_agent_backend_stochastic_kernel_stamps(self):
        # Stochastic kernel: the peel stamps are part of the captured
        # state (they set per-round model.apply draw counts).
        assert_resumes_identically(lambda: AgentBackend(
            logit_model(), initial_states(1500, 2), seed=14,
            vectorized=True))

    def test_count_backend_proxy(self):
        assert_resumes_identically(lambda: CountBackend(
            det_model(), initial_counts(5000, 5), seed=21))

    def test_count_backend_proxy_stochastic(self):
        assert_resumes_identically(lambda: CountBackend(
            logit_model(), initial_counts(4000, 2), seed=22,
            vectorized=True))

    def test_count_backend_proxy_pair_counts(self):
        def factory():
            return CountBackend(det_model(), initial_counts(3000, 5),
                                seed=23, track_pair_counts=True)

        assert_resumes_identically(factory)
        original, resumed = factory(), factory()
        run_plan(original, PRE_PLAN)
        resumed.restore(original.snapshot())
        original.run(400)
        resumed.run(400)
        np.testing.assert_array_equal(original.pair_counts,
                                      resumed.pair_counts)

    def test_count_backend_birthday(self):
        assert_resumes_identically(lambda: CountBackend(
            det_model(), initial_counts(5000, 5), seed=24,
            vectorized=False))

    def test_count_backend_birthday_pair_counts(self):
        assert_resumes_identically(lambda: CountBackend(
            det_model(), initial_counts(2500, 5), seed=25,
            vectorized=False, track_pair_counts=True))

    def weighted_counts(self, n_states=5):
        counts = np.array([initial_counts(900, n_states, seed=3),
                           initial_counts(2100, n_states, seed=4)])
        return counts, np.array([1.0, 3.5])

    def test_weighted_backend_proxy(self):
        counts, weights = self.weighted_counts()
        assert_resumes_identically(lambda: WeightedCountBackend(
            det_model(), counts, weights, seed=31))

    def test_weighted_backend_birthday(self):
        counts, weights = self.weighted_counts()
        assert_resumes_identically(lambda: WeightedCountBackend(
            det_model(), counts, weights, seed=32, vectorized=False))

    def test_weighted_backend_birthday_stochastic(self):
        counts, weights = self.weighted_counts(n_states=2)
        assert_resumes_identically(lambda: WeightedCountBackend(
            logit_model(), counts, weights, seed=33, vectorized=False))


# ----------------------------------------------------------------------
# Byte pins of the stochastic-kernel snapshot encoding
# ----------------------------------------------------------------------
def pinned_engine(kind):
    if kind == "agent":
        return AgentBackend(logit_model(), initial_states(1500, 2), seed=14,
                            vectorized=True)
    if kind == "count":
        return CountBackend(logit_model(), initial_counts(4000, 2), seed=22,
                            vectorized=True, track_pair_counts=True)
    if kind == "count-birthday":
        return CountBackend(det_model(), initial_counts(2500, 5), seed=25,
                            vectorized=False, track_pair_counts=True)
    if kind == "weighted-birthday":
        counts = np.array([initial_counts(900, 5, seed=3),
                           initial_counts(2100, 5, seed=4)])
        return WeightedCountBackend(det_model(), counts,
                                    np.array([1.0, 3.5]), seed=32,
                                    vectorized=False, track_pair_counts=True)
    counts = np.array([initial_counts(900, 2, seed=3),
                       initial_counts(2100, 2, seed=4)])
    return WeightedCountBackend(logit_model(), counts, np.array([1.0, 3.5]),
                                seed=31)


class TestSnapshotBytePins:
    """``snapshot().to_bytes()`` of every count-chain path, byte for byte.

    The proxy cases run stochastic kernels, so they cover the peel
    stamps on all three engines and the count engines' ``proxy_state``
    block (states, pair counts when tracked, stamps).  The birthday
    cases cover both count engines' batched payloads with a tracked
    pair-count accumulator.  The digests pin the format written today,
    so any change to the on-disk/wire snapshot format moves one.  The
    ``count-birthday`` digest was re-captured when table models'
    birthday batches became cell compositions (a new bitstream, not a
    new format).
    """

    @pytest.mark.parametrize("kind, digest", [
        ("agent",
         "f7f6fabe21b3f64215123895840ef2bd126e9ae4816c5cef135c6af02789420a"),
        ("count",
         "3e5942cd4151272ee46912c7351edc1500fd5b3b41b3b9116d84a5f53bb8a1a3"),
        ("weighted",
         "60a4bcabfa8401729b59a97a03e3e9a5149c0d25010f57845a1035cc0e69c233"),
        ("count-birthday",
         "f371572936fb162a9d4c4fd3bd03e54ee3cc502641992cd9bc4b32ae8fb60ff9"),
        ("weighted-birthday",
         "4f9a72222d9b48efb378e7df8ea735a3d69842aae85c9ead96e92368a3e255d6"),
    ])
    def test_v2_bytes_pinned(self, kind, digest):
        engine = pinned_engine(kind)
        run_plan(engine, PRE_PLAN)
        snapshot = engine.snapshot()
        if not kind.endswith("birthday"):
            block = snapshot.payload.get("proxy_state", snapshot.payload)
            assert block["kernel"] is not None  # peel stamps are captured
        data = snapshot.to_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        # Decoding into a fresh engine and encoding again is lossless,
        # and so is decoding and re-encoding the document itself; the
        # restored engine then continues identically.
        resumed = pinned_engine(kind)
        resumed.restore(SnapshotState.from_bytes(data))
        assert resumed.snapshot().to_bytes() == data
        assert SnapshotState.from_bytes(data).to_bytes() == data
        assert_continues_identically(engine, resumed)


# ----------------------------------------------------------------------
# Facade (IGTSimulation), including graph topologies
# ----------------------------------------------------------------------
def igt_sim(**kwargs):
    shares = PopulationShares(alpha=0.2, beta=0.2, gamma=0.6)
    grid = GenerosityGrid(k=4, g_max=0.6)
    defaults = dict(n=600, shares=shares, grid=grid, seed=5)
    defaults.update(kwargs)
    return IGTSimulation(**defaults)


def agent_action_sim(track_payoffs):
    from repro.core.equilibrium import RDSetting

    return igt_sim(n=200, mode="action", track_payoffs=track_payoffs,
                   setting=RDSetting(b=4.0, c=1.0, delta=0.7, s1=0.5))


class TestFacade:
    @pytest.mark.parametrize("backend", ["agent", "count"])
    def test_igt_simulation_resumes(self, backend):
        def continue_plan(sim):
            sim.run(1000)
            sim.run_until(800, lambda z: False, check_stop_every=100)
            return sim.counts.copy()

        original = igt_sim(backend=backend)
        original.run(1500)
        snapshot = SnapshotState.from_bytes(original.snapshot().to_bytes())
        resumed = igt_sim(backend=backend)
        resumed.restore(snapshot)
        assert resumed.steps_run == original.steps_run
        np.testing.assert_array_equal(continue_plan(original),
                                      continue_plan(resumed))
        assert original.steps_run == resumed.steps_run

    def test_igt_simulation_topology(self):
        # Graph-restricted pairing runs on the agent backend with a
        # GraphScheduler; the shared generator is the only mutable
        # scheduler state, so restore realigns the whole pipeline.
        original = igt_sim(topology="ring", n=400)
        original.run(1200)
        snapshot = original.snapshot()
        resumed = igt_sim(topology="ring", n=400)
        resumed.restore(snapshot)
        original.run(900)
        resumed.run(900)
        np.testing.assert_array_equal(original.counts, resumed.counts)
        np.testing.assert_array_equal(original.indices, resumed.indices)

    @pytest.mark.parametrize("track_payoffs", [False, True],
                             ids=["plain", "payoffs"])
    def test_agent_action_mode_resumes(self, track_payoffs):
        def build():
            return agent_action_sim(track_payoffs)

        original = build()
        original.run(1500)
        data = original.snapshot().to_bytes()
        resumed = build()
        resumed.restore(SnapshotState.from_bytes(data))
        assert resumed.snapshot().to_bytes() == data
        original.run(1000)
        resumed.run_until(1000, lambda z: False, check_stop_every=100)
        assert resumed.snapshot().to_bytes() == original.snapshot().to_bytes()
        if track_payoffs:
            assert resumed.pair_counts().sum() == resumed.steps_run == 2500

    @pytest.mark.parametrize("track_payoffs", [False, True],
                             ids=["plain", "payoffs"])
    def test_agent_action_mode_crash_and_resume(self, track_payoffs):
        recording = RecordingChannel()
        reference = agent_action_sim(track_payoffs)
        run_resumable(reference, 6000, lambda z: False,
                      check_stop_every=100, channel=recording)
        final = reference.snapshot().to_bytes()
        for crashed_at in (0, len(recording.snapshots) - 1):
            resumed = agent_action_sim(track_payoffs)
            run_resumable(resumed, 6000, lambda z: False,
                          check_stop_every=100,
                          channel=RecordingChannel(
                              initial=recording.snapshots[crashed_at]))
            assert resumed.snapshot().to_bytes() == final


# ----------------------------------------------------------------------
# Validation: wrong engine, wrong shape, torn bytes, version skew
# ----------------------------------------------------------------------
class TestValidation:
    def test_kind_mismatch_refused(self):
        count = CountBackend(det_model(), initial_counts(100, 5), seed=1)
        agent = AgentBackend(det_model(), initial_states(100, 5), seed=1)
        with pytest.raises(SnapshotError, match="'count'"):
            agent.restore(count.snapshot())

    def test_untracked_pair_counts_refused(self):
        plain = AgentBackend(det_model(), initial_states(100, 5), seed=1)
        tracked = AgentBackend(det_model(), initial_states(100, 5), seed=1,
                               track_pair_counts=True)
        with pytest.raises(SnapshotError, match="'pair_counts'"):
            tracked.restore(plain.snapshot())

    def test_shape_mismatch_refused(self):
        small = CountBackend(det_model(), initial_counts(100, 5), seed=1)
        large = CountBackend(det_model(), initial_counts(200, 5), seed=1)
        with pytest.raises(SnapshotError, match="identical arguments"):
            large.restore(small.snapshot())

    def test_proxy_flag_mismatch_refused(self):
        proxy = CountBackend(det_model(), initial_counts(500, 5), seed=1)
        birthday = CountBackend(det_model(), initial_counts(500, 5),
                                seed=1, vectorized=False)
        with pytest.raises(SnapshotError, match="proxy"):
            birthday.restore(proxy.snapshot())

    def test_torn_bytes_detected(self):
        data = SnapshotState(kind="count",
                             payload={"steps_run": 9}).to_bytes()
        for torn in (data[:len(data) // 2], data[:-1], b"", b"not json"):
            with pytest.raises(SnapshotError):
                SnapshotState.from_bytes(torn)

    def test_checksum_mismatch_detected(self):
        data = SnapshotState(kind="count",
                             payload={"steps_run": 9}).to_bytes()
        corrupted = data.replace(b'"steps_run":9', b'"steps_run":8')
        assert corrupted != data  # the flip really landed
        with pytest.raises(SnapshotError, match="checksum"):
            SnapshotState.from_bytes(corrupted)

    def test_version_skew_refused(self):
        snapshot = SnapshotState(kind="count", payload={"steps_run": 1},
                                 version=99)
        with pytest.raises(SnapshotError, match="version"):
            SnapshotState.from_bytes(snapshot.to_bytes())
        with pytest.raises(SnapshotError, match="version"):
            SnapshotState.from_wire(snapshot.to_wire())

    def test_exact_large_integers_survive_the_wire(self):
        # PCG64 state words are 128-bit; they must round-trip exactly.
        huge = (1 << 127) + 12345
        snapshot = SnapshotState(kind="count",
                                 payload={"steps_run": 3, "word": huge})
        assert SnapshotState.from_bytes(
            snapshot.to_bytes()).payload["word"] == huge


# ----------------------------------------------------------------------
# Format v2: narrowed frames, canonical bytes, corruption
# ----------------------------------------------------------------------
MAGIC_AND_DIGEST = 8 + 32  # magic prefix, then the sha256 of the rest


def v2_layout(data: bytes) -> tuple[dict, bytes]:
    """A v2 document's parsed header and its frame bytes."""
    start = MAGIC_AND_DIGEST + 8
    length = int.from_bytes(data[MAGIC_AND_DIGEST:start], "little")
    return json.loads(data[start:start + length]), data[start + length:]


NARROWING = [
    (np.zeros(4, dtype=np.int64), "uint8"),
    (np.array([3, 255], dtype=np.int64), "uint8"),
    (np.array([3, 256], dtype=np.int64), "uint16"),
    (np.array([65535, 0], dtype=np.int64), "uint16"),
    (np.array([65536], dtype=np.int64), "uint32"),
    (np.array([2 ** 32 - 1, 7], dtype=np.int64), "uint32"),
    (np.array([2 ** 32], dtype=np.int64), "int64"),
    (np.array([4, -1, 9], dtype=np.int64), "int64"),
    (np.array([], dtype=np.int64), "int64"),
    (np.arange(12, dtype=np.int64).reshape(3, 4), "uint8"),
    (np.array([0.5, -2.0, 1e300]), "float64"),
    (np.array([True, False, True]), "bool"),
]


class TestFormatV2:
    @pytest.mark.parametrize("array, stored", NARROWING,
                             ids=[f"{a.dtype}{list(a.shape)}-{stored}"
                                  for a, stored in NARROWING])
    def test_narrowing_round_trips_exactly(self, array, stored):
        data = SnapshotState(kind="count",
                             payload={"steps_run": 1, "a": array}).to_bytes()
        header, frames = v2_layout(data)
        frame = header["payload"]["a"]
        assert frame["dtype"] == str(array.dtype)
        assert frame["stored"] == stored
        # The stored width is the smallest that holds the values.
        assert len(frames) == np.dtype(stored).itemsize * array.size
        back = SnapshotState.from_bytes(data).payload["a"]
        assert back.dtype == array.dtype and back.shape == array.shape
        np.testing.assert_array_equal(back, array)
        assert back.flags.writeable and back.flags.owndata
        assert SnapshotState.from_bytes(data).to_bytes() == data

    def test_nested_arrays_and_exact_ints_survive(self):
        payload = {"steps_run": 2 ** 62, "word": (1 << 127) + 5,
                   "block": {"b": np.arange(3), "a": np.array([-4])},
                   "items": [np.array([2.5]), None, "x"]}
        back = SnapshotState.from_bytes(
            SnapshotState(kind="agent", payload=payload).to_bytes())
        assert back.payload["steps_run"] == 2 ** 62
        assert back.payload["word"] == (1 << 127) + 5
        np.testing.assert_array_equal(back.payload["block"]["b"],
                                      np.arange(3))
        np.testing.assert_array_equal(back.payload["block"]["a"], [-4])
        np.testing.assert_array_equal(back.payload["items"][0], [2.5])
        assert back.payload["items"][1:] == [None, "x"]

    def test_wire_is_the_base64_of_the_bytes(self):
        snapshot = SnapshotState(kind="count", payload={
            "steps_run": 3, "counts": np.array([5, 0, 2])})
        wire = snapshot.to_wire()
        assert isinstance(wire, str)
        back = SnapshotState.from_wire(wire)
        assert back.to_bytes() == snapshot.to_bytes()
        for bad in ({"bogus": True}, "not base64!", wire[:-4] + "AAAA"):
            with pytest.raises(SnapshotError):
                SnapshotState.from_wire(bad)

    def corrupted(self):
        """A v2 document and each corruption of it that must be refused."""
        data = SnapshotState(kind="count", payload={
            "steps_run": 9, "states": np.arange(1000) % 7}).to_bytes()
        header_end = len(data) - 1000  # one uint8 frame of 1000 values

        def flipped(at, mask=0x01):
            broken = bytearray(data)
            broken[at] ^= mask
            return bytes(broken)

        # Format 1 (checksummed JSON) is no longer read: a v1 file is
        # not a snapshot, whatever its checksum says.
        body = json.dumps({"version": 1, "kind": "count",
                           "payload": {"steps_run": 9}})
        v1 = json.dumps({"checksum": hashlib.sha256(body.encode())
                         .hexdigest(), "body": body}).encode()
        return data, {
            "header": flipped((MAGIC_AND_DIGEST + header_end) // 2),
            "frame": flipped(header_end + 500),
            "truncated": data[:header_end + 400],
            "magic": flipped(0),
            "v1": v1,
        }

    @pytest.mark.parametrize("damage", ["header", "frame", "truncated",
                                        "magic", "v1"])
    def test_corruption_is_refused(self, damage, tmp_path):
        data, broken = self.corrupted()
        with pytest.raises(SnapshotError):
            SnapshotState.from_bytes(broken[damage])
        # The store falls back to the previous generation.
        store = SnapshotStore(tmp_path)
        store.save("task", store_snapshot(1))
        store.save("task", SnapshotState.from_bytes(data))
        (tmp_path / "task.snap").write_bytes(broken[damage])
        assert store.load("task").steps_run == 1


# ----------------------------------------------------------------------
# Restore checks what it adopts, before writing anything
# ----------------------------------------------------------------------
CHECKED_ENGINES = {
    "agent": lambda: AgentBackend(det_model(), initial_states(400, 5),
                                  seed=3),
    "count-proxy": lambda: CountBackend(det_model(),
                                        initial_counts(400, 5), seed=3),
    "count-birthday": lambda: CountBackend(
        det_model(), initial_counts(400, 5), seed=3, vectorized=False),
    "weighted": lambda: WeightedCountBackend(
        det_model(), np.array([initial_counts(150, 5, seed=3),
                               initial_counts(250, 5, seed=4)]),
        np.array([1.0, 3.5]), seed=3),
    "weighted-birthday": lambda: WeightedCountBackend(
        det_model(), np.array([initial_counts(150, 5, seed=3),
                               initial_counts(250, 5, seed=4)]),
        np.array([1.0, 3.5]), seed=3, vectorized=False),
}


def agent_states(payload):
    """The snapshot's per-agent state array (``None`` on birthday paths)."""
    return payload.get("proxy_state", payload).get("states")


def chain_of(payload):
    """The array the engine's counts derive from."""
    return payload.get("product_counts", payload["counts"])


def state_out_of_range(payload):
    states = agent_states(payload)
    if states is not None:
        states[0] = 99
    else:  # no per-agent states: a negative count instead
        chain = chain_of(payload)
        chain[0], chain[1] = -1, chain[1] + chain[0] + 1


def wrong_length(payload):
    payload["counts"] = np.append(payload["counts"], 0)


def counts_disagree(payload):
    chain = chain_of(payload)
    if agent_states(payload) is not None:
        chain[0] += 1  # still sums to n: only the states disagree
        chain[1] -= 1
    else:
        chain[0] += 1  # no states to disagree with: the sum is off


class TestRestoreChecks:
    @pytest.mark.parametrize("engine", sorted(CHECKED_ENGINES))
    @pytest.mark.parametrize("damage", [state_out_of_range, wrong_length,
                                        counts_disagree],
                             ids=lambda damage: damage.__name__)
    def test_inconsistent_snapshot_is_refused_untouched(self, engine,
                                                        damage):
        factory = CHECKED_ENGINES[engine]
        source = factory()
        source.run(700)
        snapshot = source.snapshot()
        damage(snapshot.payload)
        target = factory()
        target.run(300)
        before = target.snapshot().to_bytes()
        with pytest.raises(SnapshotError):
            target.restore(snapshot)
        assert target.snapshot().to_bytes() == before
        # The undamaged snapshot still restores.
        target.restore(source.snapshot())
        assert target.snapshot().to_bytes() == source.snapshot().to_bytes()

    @pytest.mark.parametrize("engine", ["weighted", "weighted-birthday"])
    def test_counts_must_project_from_the_chain(self, engine):
        # The lift's state counts are a projection of its (class x
        # state) chain; counts that sum to n but disagree are refused.
        factory = CHECKED_ENGINES[engine]
        source = factory()
        source.run(700)
        snapshot = source.snapshot()
        snapshot.payload["counts"][0] += 1
        snapshot.payload["counts"][1] -= 1
        target = factory()
        before = target.snapshot().to_bytes()
        with pytest.raises(SnapshotError, match="chain"):
            target.restore(snapshot)
        assert target.snapshot().to_bytes() == before


# ----------------------------------------------------------------------
# The on-disk store: atomicity, checksums, the fallback ladder
# ----------------------------------------------------------------------
def store_snapshot(cursor: int) -> SnapshotState:
    return SnapshotState(kind="count", payload={"steps_run": cursor})


class TestSnapshotStore:
    def test_save_load_clear(self, tmp_path):
        store = SnapshotStore(tmp_path / "snaps")
        assert store.load("task") is None
        store.save("task", store_snapshot(1))
        assert store.load("task").steps_run == 1
        store.save("task", store_snapshot(2))
        assert store.load("task").steps_run == 2
        store.clear("task")
        assert store.load("task") is None
        assert not list((tmp_path / "snaps").glob("task*"))

    def test_torn_latest_falls_back_to_previous(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save("task", store_snapshot(1))
        store.save("task", store_snapshot(2))
        latest = tmp_path / "task.snap"
        latest.write_bytes(latest.read_bytes()[:20])
        assert store.load("task").steps_run == 1

    def test_all_generations_torn_means_clean_start(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save("task", store_snapshot(1))
        store.save("task", store_snapshot(2))
        (tmp_path / "task.snap").write_bytes(b"torn")
        (tmp_path / "task.snap.prev").write_bytes(b"also torn")
        assert store.load("task") is None

    def test_keys_cannot_escape_the_root(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for bad in ("", "a/b", "..", "a\\b", "../../etc"):
            with pytest.raises(SnapshotError, match="invalid snapshot key"):
                store.save(bad, store_snapshot(1))

    def test_no_temp_files_left_behind(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for cursor in range(4):
            store.save("task", store_snapshot(cursor))
        leftovers = [p for p in tmp_path.iterdir()
                     if p.suffix not in (".snap", ".prev")]
        assert leftovers == []


# ----------------------------------------------------------------------
# run_resumable: the segmented law and mid-run crash recovery
# ----------------------------------------------------------------------
class TestRunResumable:
    def final_state(self, sim):
        return (sim.steps_run, sim.counts.copy())

    def test_channel_is_invisible_to_the_trajectory(self, tmp_path):
        # Uninterrupted, channel-less and channel-ful runs are all
        # byte-identical: segmentation is unconditional, saving is
        # read-only.
        def run_with(channel):
            sim = igt_sim(backend="count")
            run_resumable(sim, 6000, lambda z: False,
                          check_stop_every=100, channel=channel)
            return self.final_state(sim)

        bare_steps, bare_counts = run_with(None)
        recording = RecordingChannel()
        rec_steps, rec_counts = run_with(recording)
        file_channel = FileSnapshotChannel(SnapshotStore(tmp_path), "cell")
        file_steps, file_counts = run_with(file_channel)
        assert bare_steps == rec_steps == file_steps
        np.testing.assert_array_equal(bare_counts, rec_counts)
        np.testing.assert_array_equal(bare_counts, file_counts)
        assert len(recording.snapshots) > 1  # it really checkpointed

    def test_crash_and_resume_matches_uninterrupted(self):
        recording = RecordingChannel()
        reference = igt_sim(backend="count")
        run_resumable(reference, 6000, lambda z: False,
                      check_stop_every=100, channel=recording)
        # "Crash" after each checkpoint: a fresh process would reload
        # the latest snapshot and re-enter run_resumable with the same
        # arguments.  Every resume point must converge to the same end.
        for crashed_at in (0, len(recording.snapshots) // 2,
                           len(recording.snapshots) - 1):
            resumed = igt_sim(backend="count")
            channel = RecordingChannel(
                initial=recording.snapshots[crashed_at])
            run_resumable(resumed, 6000, lambda z: False,
                          check_stop_every=100, channel=channel)
            assert self.final_state(resumed)[0] == reference.steps_run
            np.testing.assert_array_equal(resumed.counts, reference.counts)

    def test_ambient_channel_is_picked_up(self):
        recording = RecordingChannel()
        sim = igt_sim(backend="count")
        with use_snapshot_channel(recording):
            run_resumable(sim, 4000, lambda z: False, check_stop_every=100)
        assert recording.snapshots

    def test_early_convergence_stops_segmenting(self):
        recording = RecordingChannel()
        sim = igt_sim(backend="count")
        converged = run_resumable(sim, 50_000, lambda z: True,
                                  check_stop_every=100, channel=recording)
        assert converged
        # Converged on the first check of the first segment: no
        # checkpoint was ever worth writing.
        assert recording.snapshots == []

    def test_segment_boundaries_are_deterministic(self):
        left, right = igt_sim(backend="count"), igt_sim(backend="count")
        run_resumable(left, 5000, lambda z: False, check_stop_every=77)
        run_resumable(right, 5000, lambda z: False, check_stop_every=77)
        np.testing.assert_array_equal(left.counts, right.counts)
        assert left.steps_run == right.steps_run == 5000

    @pytest.mark.parametrize("backend, n", [("agent", 600), ("count", 600),
                                            ("count", 2_000_000)],
                             ids=["agent", "count-proxy", "count-birthday"])
    def test_corrupted_engine_is_refused_at_next_boundary(self, backend, n):
        sim = igt_sim(backend=backend, n=n)

        class Corrupting(RecordingChannel):
            """Adds one agent from nowhere after the first checkpoint."""

            def save(self, snapshot):
                super().save(snapshot)
                if len(self.snapshots) == 1:
                    engine = sim._engine
                    chain = (engine.counts_live if backend == "agent"
                             else engine._chain)
                    chain[0] += 1

        channel = Corrupting()
        # Segments are 8 checks of 100 steps: saved at 800, refused at
        # the next boundary, before the corrupt state is checkpointed.
        with pytest.raises(InvariantError, match=r"at step 1600: .* n=" +
                           str(n)):
            run_resumable(sim, 6000, lambda z: False, check_stop_every=100,
                          channel=channel)
        assert len(channel.snapshots) == 1


# ----------------------------------------------------------------------
# Fault injection: real process deaths at armed crash points
# ----------------------------------------------------------------------
CHILD_SCRIPT = """
import sys
from repro.engine.snapshot import SnapshotState, SnapshotStore

store = SnapshotStore(sys.argv[1])
for cursor in (1, 2, 3):
    store.save("task", SnapshotState(kind="count",
                                     payload={"steps_run": cursor}))
print("survived")
"""


def run_child(tmp_path, faults):
    env = dict(os.environ)
    env[FAULTS_ENV] = faults
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)


class TestFaultInjection:
    def test_spec_parsing(self):
        spec = FaultSpec.parse("snapshot.post-save:3:kill")
        assert (spec.point, spec.hits, spec.mode) == ("snapshot.post-save",
                                                      3, "kill")
        assert FaultSpec.parse("a.b:1").mode == "exit"
        for bad in ("", "a.b", "a.b:0", "a.b:1:nope", "a:b:c:d"):
            with pytest.raises(ValueError):
                FaultSpec.parse(bad)

    def test_unarmed_crash_points_are_free(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        reset_faults()
        crash_point("snapshot.post-save")  # must simply return

    def test_armed_point_fires_at_nth_hit_only(self, tmp_path):
        result = run_child(tmp_path, "snapshot.post-save:2")
        assert result.returncode == CRASH_EXIT_CODE
        # Generations 1 and 2 are durable; 3 never happened.
        assert SnapshotStore(tmp_path).load("task").steps_run == 2

    def test_unrelated_points_do_not_fire(self, tmp_path):
        result = run_child(tmp_path, "worker.pre-submit:1")
        assert result.returncode == 0
        assert "survived" in result.stdout
        assert SnapshotStore(tmp_path).load("task").steps_run == 3

    def test_mid_write_crash_keeps_previous_generation(self, tmp_path):
        # Death between the temp write and the atomic renames: the
        # prior generations are untouched.
        result = run_child(tmp_path, "snapshot.mid-write:3")
        assert result.returncode == CRASH_EXIT_CODE
        assert SnapshotStore(tmp_path).load("task").steps_run == 2

    def test_torn_write_falls_down_the_ladder(self, tmp_path):
        # The tear corrupts the *latest* generation in place
        # (simulating a non-atomic filesystem tear); the checksum
        # rejects it and the previous generation is served.
        result = run_child(tmp_path, "snapshot.mid-write:3:torn")
        assert result.returncode == CRASH_EXIT_CODE
        loaded = SnapshotStore(tmp_path).load("task")
        assert loaded is not None
        assert loaded.steps_run == 1
