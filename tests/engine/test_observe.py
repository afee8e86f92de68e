"""The observer-sink layer: units, byte-compat, and stream resume.

Covers the sink protocol itself (MemorySink identity, JsonlSink
durability/truncation, reducers vs manual computation, spec parsing),
the cross-backend contract that a JSONL stream decodes to exactly the
MemorySink series, and the ambient per-task series scope the sweep
executor binds.
"""

import os

import numpy as np
import pytest

from repro.engine import (
    AgentBackend,
    CountBackend,
    DegreeProfileReducer,
    ExtinctionTimeReducer,
    JsonlSink,
    MeanReducer,
    MemorySink,
    ObserverSink,
    WeightedCountBackend,
    as_sink,
    igt_model,
    series_paths_for,
    series_sink,
    sink_from_spec,
    use_series_scope,
)
from repro.engine.observe import decode_record, encode_record, series_path
from repro.engine.snapshot import _SegmentStreamSink
from repro.utils.errors import InvalidParameterError


def emit_rows(sink, rows):
    for step, counts in rows:
        sink.emit(step, counts)
    sink.flush()


ROWS = [(0, [3, 1, 0]), (10, [2, 2, 0]), (20, [0, 3, 1])]


class TestMemorySink:
    def test_records_are_owned_int64_copies(self):
        sink = MemorySink()
        live = np.array([5, 7], dtype=np.int64)
        sink.emit(0, live)
        live[:] = 0  # the backend reuses its working buffer
        step, counts = sink.records[0]
        assert step == 0
        assert counts.dtype == np.int64
        assert counts.tolist() == [5, 7]

    def test_accepts_python_lists(self):
        sink = MemorySink()
        sink.emit(3, [1, 2])
        assert sink.records[0][1].tolist() == [1, 2]

    def test_position_and_seek_truncate(self):
        sink = MemorySink()
        emit_rows(sink, ROWS[:2])
        token = sink.position()
        emit_rows(sink, ROWS[2:])
        sink2 = MemorySink()
        emit_rows(sink2, ROWS)
        sink2.seek(token)
        assert len(sink2.records) == 2
        with pytest.raises(InvalidParameterError):
            MemorySink().seek({"records": 5})


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "series.jsonl"
        sink = JsonlSink(path)
        emit_rows(sink, ROWS)
        sink.close()
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 3
        decoded = [decode_record(line) for line in lines]
        for (step, counts), (want_step, want_counts) in zip(decoded, ROWS):
            assert step == want_step
            assert counts.tolist() == list(want_counts)

    def test_encode_is_strict_ascii_json(self):
        line = encode_record(np.int64(7), np.array([1, 2], dtype=np.int64))
        assert line == b'{"step":7,"counts":[1,2]}\n'

    def test_fresh_sink_truncates_leftover_file(self, tmp_path):
        path = tmp_path / "series.jsonl"
        path.write_bytes(b"junk from a previous attempt\n")
        sink = JsonlSink(path)
        emit_rows(sink, ROWS[:1])
        sink.close()
        assert path.read_bytes() == encode_record(0, [3, 1, 0])

    def test_batching_defers_writes_until_flush(self, tmp_path):
        path = tmp_path / "series.jsonl"
        sink = JsonlSink(path)
        sink.emit(0, [1])
        assert not path.exists()
        sink.flush()
        assert path.exists()

    def test_position_flushes_and_seek_truncates(self, tmp_path):
        path = tmp_path / "series.jsonl"
        sink = JsonlSink(path)
        emit_rows(sink, ROWS[:2])
        token = sink.position()
        emit_rows(sink, ROWS[2:])
        sink.close()
        assert len(path.read_bytes().splitlines()) == 3

        resumed = JsonlSink(path)
        resumed.seek(token)
        resumed.emit(*ROWS[2])
        resumed.close()
        full = JsonlSink(tmp_path / "full.jsonl")
        emit_rows(full, ROWS)
        full.close()
        assert path.read_bytes() == (tmp_path / "full.jsonl").read_bytes()

    def test_seek_after_emit_is_an_error(self, tmp_path):
        sink = JsonlSink(tmp_path / "series.jsonl")
        sink.emit(0, [1])
        with pytest.raises(InvalidParameterError):
            sink.seek(None)

    def test_seek_detects_out_of_sync_stream(self, tmp_path):
        path = tmp_path / "series.jsonl"
        path.write_bytes(b"x")
        sink = JsonlSink(path)
        with pytest.raises(InvalidParameterError,
                           match="out of sync"):
            sink.seek({"records": 9, "bytes": 10_000})


class TestReducers:
    def test_mean_reducer_matches_manual_mean(self):
        sink = MeanReducer()
        emit_rows(sink, ROWS)
        manual = np.mean([counts for _, counts in ROWS], axis=0)
        summary = sink.summary()
        assert summary["kind"] == "mean"
        assert summary["observations"] == 3
        assert np.allclose(summary["mean"], manual)

    def test_mean_reducer_position_round_trip(self):
        sink = MeanReducer()
        emit_rows(sink, ROWS[:2])
        token = sink.position()
        resumed = MeanReducer()
        resumed.seek(token)
        emit_rows(resumed, ROWS[2:])
        full = MeanReducer()
        emit_rows(full, ROWS)
        assert resumed.summary() == full.summary()

    def test_extinction_reducer_records_first_zero(self):
        sink = ExtinctionTimeReducer()
        emit_rows(sink, ROWS)
        assert sink.summary() == {
            "kind": "extinction",
            # state 2 starts at zero (step 0); state 0 empties at 20;
            # state 1 never does.
            "first_zero": [20, None, 0],
        }

    def test_degree_profile_matches_manual_grouping(self):
        class_of = [1, 1, 2, 2, 2]
        values = np.array([0.0, 0.5, 1.0, np.nan])
        sink = DegreeProfileReducer(class_of, values)
        states = np.array([0, 1, 2, 3, 1])
        sink.emit(0, [2, 2, 1, 1], states=states)
        classes, means = sink.profile()
        assert classes.tolist() == [1, 2]
        # class 1: states (0, 1) -> (0.0 + 0.5)/2; class 2: states
        # (2, 1) with the state-3 agent excluded as NaN.
        assert means == pytest.approx([0.25, 0.75])
        summary = sink.summary()
        assert summary["classes"] == [1, 2]
        assert summary["profile"] == pytest.approx([0.25, 0.75])

    def test_degree_profile_requires_states(self):
        sink = DegreeProfileReducer([1, 2], [0.0, 1.0])
        assert sink.wants_states
        with pytest.raises(InvalidParameterError, match="agent backend"):
            sink.emit(0, [1, 1])

    def test_degree_profile_position_round_trip(self):
        def build():
            return DegreeProfileReducer([1, 1, 2], [0.0, 1.0])

        full, resumed = build(), build()
        states = [np.array([0, 1, 1]), np.array([1, 1, 0])]
        full.emit(0, [1, 2], states=states[0])
        token = full.position()
        full.emit(1, [1, 2], states=states[1])
        resumed.seek(token)
        resumed.emit(1, [1, 2], states=states[1])
        assert resumed.summary() == full.summary()


#: Every sink kind that can resume from a saved position.
RESUMABLE = ("degree-profile", "extinction", "jsonl", "mean", "memory",
             "segment-stream")

#: Per-agent states for the degree-profile sink (three agents).
AGENT_STATES = np.array([0, 1, 2])


def resumable_sink(kind, path):
    """A fresh sink of ``kind``; ``path`` backs the jsonl stream."""
    if kind == "degree-profile":
        return DegreeProfileReducer([1, 1, 2], [0.0, 1.0, 2.0])
    if kind == "segment-stream":
        return _SegmentStreamSink(MemorySink(), 10, 0)
    if kind == "jsonl":
        return JsonlSink(path)
    return {"extinction": ExtinctionTimeReducer, "mean": MeanReducer,
            "memory": MemorySink}[kind]()


def emit_with_states(sink, rows):
    for step, counts in rows:
        sink.emit(step, counts, AGENT_STATES)


def token_of(kind, path):
    """The position a ``kind`` sink reports after two checkpoints."""
    sink = resumable_sink(kind, path)
    emit_with_states(sink, ROWS[:2])
    token = sink.position()
    sink.close()
    return token


class TestForeignTokens:
    """A sink resumes only from a position its own kind wrote: another
    kind's token is refused, naming the sink, before ``seek`` changes
    any state or file."""

    @pytest.mark.parametrize("kind", RESUMABLE)
    def test_another_kinds_token_is_refused(self, tmp_path, kind):
        path = tmp_path / "series.jsonl"
        own = token_of(kind, path)
        sink = resumable_sink(kind, path)
        if kind == "jsonl":  # a stream seeks before its first emit
            before = path.read_bytes()
        else:
            emit_with_states(sink, ROWS[:2])
            before = sink.position()
        for other in RESUMABLE:
            if other == kind:
                continue
            token = token_of(other, tmp_path / f"{other}.jsonl")
            with pytest.raises(InvalidParameterError,
                               match=type(sink).__name__):
                sink.seek(token)
        if kind == "jsonl":
            assert path.read_bytes() == before
        else:
            assert sink.position() == before
        sink.seek(own)  # its own kind's token still resumes it
        sink.close()


class TestSpecs:
    def test_spec_strings_resolve(self, tmp_path):
        assert isinstance(sink_from_spec("memory"), MemorySink)
        assert isinstance(sink_from_spec("mean"), MeanReducer)
        assert isinstance(sink_from_spec("extinction"),
                          ExtinctionTimeReducer)
        jsonl = sink_from_spec(f"jsonl:{tmp_path / 's.jsonl'}")
        assert isinstance(jsonl, JsonlSink)

    def test_spec_errors(self):
        with pytest.raises(InvalidParameterError, match="needs a path"):
            sink_from_spec("jsonl:")
        with pytest.raises(InvalidParameterError, match="degree-profile"):
            sink_from_spec("degree-profile")
        with pytest.raises(InvalidParameterError, match="unknown"):
            sink_from_spec("csv")

    def test_as_sink_resolution(self):
        assert isinstance(as_sink(None), MemorySink)
        assert isinstance(as_sink("mean"), MeanReducer)
        sink = MemorySink()
        assert as_sink(sink) is sink
        with pytest.raises(InvalidParameterError):
            as_sink(42)

    def test_base_sink_contract(self):
        sink = ObserverSink()
        with pytest.raises(NotImplementedError):
            sink.emit(0, [1])
        assert sink.position() is None
        sink.seek(None)
        with pytest.raises(InvalidParameterError):
            sink.seek({"records": 1})
        assert sink.records == []


class TestSeriesScope:
    def test_no_scope_means_no_sink(self):
        assert series_sink("trajectory") is None

    def test_scoped_sink_streams_and_is_discoverable(self, tmp_path):
        with use_series_scope(tmp_path, "abc123"):
            sink = series_sink("trajectory")
            assert isinstance(sink, JsonlSink)
            emit_rows(sink, ROWS)
            sink.close()
        assert series_sink("trajectory") is None
        found = series_paths_for(tmp_path, "abc123")
        assert found == [str(tmp_path / "abc123--trajectory.jsonl")]
        assert series_paths_for(tmp_path, "missing") == []
        assert series_paths_for(tmp_path / "nowhere", "abc123") == []

    def test_series_path_sanitizes_names(self, tmp_path):
        path = series_path(tmp_path, "key", "a/b c")
        assert os.path.basename(path) == "key--a-b-c.jsonl"


def igt_counts(k=3, total=900):
    counts = [total // (k + 2)] * (k + 2)
    counts[0] += total - sum(counts)
    return counts


class TestBackendByteCompat:
    """A JSONL stream decodes to exactly the MemorySink series."""

    def assert_stream_matches_memory(self, build, tmp_path, **run_kwargs):
        memory = build().run(observe=None, **run_kwargs)
        path = tmp_path / "stream.jsonl"
        streamed = build().run(observe=f"jsonl:{path}", **run_kwargs)
        assert streamed.observations == []
        assert streamed.counts.tolist() == memory.counts.tolist()
        decoded = [decode_record(line)
                   for line in path.read_bytes().splitlines()]
        assert len(decoded) == len(memory.observations)
        for (step, counts), (want_step, want_counts) in zip(
                decoded, memory.observations):
            assert step == want_step
            assert counts.tolist() == want_counts.tolist()

    def test_agent_backend(self, tmp_path):
        def build():
            return AgentBackend(igt_model(3), [0] * 40 + [1] * 30
                                + [2] * 50, seed=5)

        self.assert_stream_matches_memory(build, tmp_path, max_steps=997,
                                          observe_every=100)

    def test_count_backend(self, tmp_path):
        def build():
            return CountBackend(igt_model(4), igt_counts(4, 5000),
                                seed=11)

        self.assert_stream_matches_memory(build, tmp_path,
                                          max_steps=20_000,
                                          observe_every=1500)

    def test_weighted_backend(self, tmp_path):
        def build():
            counts = np.array([[10, 8, 6, 10, 6],
                               [6, 6, 10, 8, 10]], dtype=np.int64)
            return WeightedCountBackend(igt_model(3), counts,
                                        [1.0, 3.0], seed=23)

        self.assert_stream_matches_memory(build, tmp_path, max_steps=900,
                                          observe_every=90)

    def test_reducer_over_engine_run(self):
        mean = MeanReducer()
        CountBackend(igt_model(3), igt_counts(3, 600),
                     seed=2).run(3000, observe_every=300, observe=mean)
        reference = CountBackend(igt_model(3), igt_counts(3, 600),
                                 seed=2).run(3000, observe_every=300)
        manual = np.mean([c for _, c in reference.observations], axis=0)
        assert np.allclose(mean.summary()["mean"], manual)

    def test_states_sink_refused_off_agent_backend(self):
        backend = CountBackend(igt_model(3), igt_counts(3, 600), seed=2)
        profile = DegreeProfileReducer([1] * 600, [0.0] * 5)
        with pytest.raises(InvalidParameterError, match="states"):
            backend.run(1000, observe_every=100, observe=profile)

    def test_observe_requires_cadence(self):
        backend = CountBackend(igt_model(3), igt_counts(3, 600), seed=2)
        with pytest.raises(InvalidParameterError, match="observe_every"):
            backend.run(1000, observe="mean")
