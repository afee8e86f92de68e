"""Crash-equals-uninterrupted for *streamed* observations.

:func:`~repro.engine.snapshot.run_resumable` carries the observer
sink's resume token inside every segment snapshot; a resumed
:class:`~repro.engine.observe.JsonlSink` truncates back to the last
durable position and continues.  The property under test: however a
streaming run dies, re-entering ``run_resumable`` with the surviving
snapshot produces a stream file **byte-identical** to one written by an
uninterrupted run.  (The real-SIGKILL end-to-end version of this lives
in ``scripts/run_chaos_smoke.py``.)
"""

import numpy as np
import pytest

from repro.core.equilibrium import RDSetting
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.engine import JsonlSink, MemorySink, run_resumable
from repro.engine.snapshot import RecordingChannel

STEPS = 50_000
CADENCE = 1_000


class AbortChannel(RecordingChannel):
    """Raise out of ``run_resumable`` after the n-th checkpoint lands.

    The saved snapshots stay durable (appended before the raise), so
    the abort models a process that dies *after* a checkpoint — the
    worst case for a stream, whose file holds rows past the snapshot.
    """

    def __init__(self, abort_after: int, initial=None):
        super().__init__(initial=initial)
        self.abort_after = int(abort_after)

    def save(self, snapshot) -> None:
        super().save(snapshot)
        if len(self.snapshots) >= self.abort_after:
            raise RuntimeError("simulated crash after checkpoint")


def fresh_sim(**overrides):
    options = dict(n=2000, shares=PopulationShares(alpha=0.2, beta=0.3,
                                                   gamma=0.5),
                   grid=GenerosityGrid(k=3, g_max=0.6), seed=99,
                   backend="count")
    options.update(overrides)
    return IGTSimulation(**options)


#: The agent backend's action mode: a stochastic model on the engine's
#: kernel, one uniform per interaction drawn per chunk.
AGENT_ACTION = dict(backend="agent", mode="action",
                    setting=RDSetting(b=4.0, c=1.0, delta=0.7, s1=0.5))


def stream_run(path, channel, **overrides):
    sink = JsonlSink(path)
    sim = fresh_sim(**overrides)
    run_resumable(sim, STEPS, None, check_stop_every=CADENCE,
                  channel=channel, observe_every=CADENCE, observe=sink)
    sink.close()
    return sim


class TestStreamedResume:
    def test_channel_is_invisible_to_the_stream(self, tmp_path):
        # The segment boundaries are part of the execution law, so a
        # channel-less run and a checkpointing run stream identical
        # records: one row per cadence point, no boundary duplicates.
        bare = MemorySink()
        run_resumable(fresh_sim(), STEPS, None, check_stop_every=CADENCE,
                      observe_every=CADENCE, observe=bare)
        checkpointed = MemorySink()
        recording = RecordingChannel()
        run_resumable(fresh_sim(), STEPS, None, check_stop_every=CADENCE,
                      channel=recording, observe_every=CADENCE,
                      observe=checkpointed)
        assert recording.snapshots  # it really checkpointed
        assert (len(bare.records) == len(checkpointed.records)
                == STEPS // CADENCE + 1)
        for (step, counts), (want_step, want_counts) in zip(
                bare.records, checkpointed.records):
            assert step == want_step
            np.testing.assert_array_equal(counts, want_counts)
        assert [step for step, _ in bare.records] \
            == list(range(0, STEPS + 1, CADENCE))

    @pytest.mark.parametrize("abort_after", [1, 3, 5])
    def test_crash_resume_stream_is_byte_identical(self, tmp_path,
                                                   abort_after):
        reference = stream_run(tmp_path / "reference.jsonl",
                               RecordingChannel())

        crashed = AbortChannel(abort_after)
        with pytest.raises(RuntimeError, match="simulated crash"):
            stream_run(tmp_path / "resumed.jsonl", crashed)
        # The dead run's file extends past its last durable snapshot.
        assert (tmp_path / "resumed.jsonl").stat().st_size > 0

        # A fresh process: new simulation object, new sink on the same
        # path, the channel serving the last durable snapshot.
        resumed = stream_run(
            tmp_path / "resumed.jsonl",
            RecordingChannel(initial=crashed.snapshots[-1]))

        assert ((tmp_path / "resumed.jsonl").read_bytes()
                == (tmp_path / "reference.jsonl").read_bytes())
        assert resumed.steps_run == reference.steps_run
        np.testing.assert_array_equal(resumed.counts, reference.counts)

    def test_double_crash_still_converges(self, tmp_path):
        reference = stream_run(tmp_path / "reference.jsonl",
                               RecordingChannel())

        first = AbortChannel(2)
        with pytest.raises(RuntimeError):
            stream_run(tmp_path / "twice.jsonl", first)
        second = AbortChannel(2, initial=first.snapshots[-1])
        with pytest.raises(RuntimeError):
            stream_run(tmp_path / "twice.jsonl", second)
        resumed = stream_run(
            tmp_path / "twice.jsonl",
            RecordingChannel(initial=second.snapshots[-1]))

        assert ((tmp_path / "twice.jsonl").read_bytes()
                == (tmp_path / "reference.jsonl").read_bytes())
        np.testing.assert_array_equal(resumed.counts, reference.counts)


class TestAgentActionStream:
    def test_crash_resume_stream_is_byte_identical(self, tmp_path):
        reference = stream_run(tmp_path / "reference.jsonl",
                               RecordingChannel(), **AGENT_ACTION)
        lines = (tmp_path / "reference.jsonl").read_text().splitlines()
        assert len(lines) == STEPS // CADENCE + 1

        crashed = AbortChannel(3)
        with pytest.raises(RuntimeError, match="simulated crash"):
            stream_run(tmp_path / "resumed.jsonl", crashed, **AGENT_ACTION)
        resumed = stream_run(
            tmp_path / "resumed.jsonl",
            RecordingChannel(initial=crashed.snapshots[-1]), **AGENT_ACTION)

        assert ((tmp_path / "resumed.jsonl").read_bytes()
                == (tmp_path / "reference.jsonl").read_bytes())
        assert (resumed.snapshot().to_bytes()
                == reference.snapshot().to_bytes())
