"""``LocalPool``'s forked workers start clean and die with their parent.

A worker is a fork of the process that calls :func:`repro.runner.execute`,
so it starts with that process's memory.  It must still behave as a
fresh interpreter would: no snapshot channel or series scope bound by
the parent, and ``REPRO_FAULTS`` hits counted from zero.  And a parent
killed mid-sweep must not leave its workers waiting on the task queue.
"""

import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro
from repro.engine.observe import use_series_scope
from repro.engine.snapshot import (
    RecordingChannel,
    SnapshotStore,
    use_snapshot_channel,
)
from repro.runner import RunPlan, RunTask, execute
from repro.runner.executor import _task_cache_key
from repro.testing import crash_point, reset_faults
from repro.testing.faults import FAULTS_ENV

#: An E4 task whose relaxation saves exactly one checkpoint, and a task
#: that saves none.
CHECKPOINTING = RunTask(
    experiment_id="E4", seed=2, params={"n": 20_000, "m": 4, "k_max": 3, "m_urn": 8}
)
PLAN = RunPlan(tasks=(CHECKPOINTING, RunTask(experiment_id="E1", seed=3)), jobs=2)

#: Seconds a killed sweep's process group may take to empty.  The
#: workers exit within a poll of the parent's death; the rest is the
#: host reaping them.
GROUP_DEADLINE_S = 10.0


def e13_task(seed: int) -> RunTask:
    """E13 streams a ``coalescence`` series whenever a scope is bound."""
    return RunTask(experiment_id="E13", seed=seed, params={"n": 100, "m_urn": 8})


@pytest.fixture
def faults(monkeypatch):
    """Arm ``REPRO_FAULTS`` in this process (and so in its workers)."""
    reset_faults()
    yield lambda spec: monkeypatch.setenv(FAULTS_ENV, spec)
    reset_faults()


class TestWorkersStartClean:
    def test_parent_channel_never_reaches_a_worker(self, tmp_path, faults):
        # The worker dies right after its first save, so the checkpoint
        # stays on disk to show which channel took it.
        faults("snapshot.post-save:1")
        parent = RecordingChannel()
        with use_snapshot_channel(parent), pytest.raises(BrokenProcessPool):
            execute(PLAN, snapshot_dir=tmp_path)
        assert parent.snapshots == [] and parent.cleared == 0
        saved = SnapshotStore(tmp_path).load(_task_cache_key(CHECKPOINTING))
        assert saved is not None
        assert saved.payload["scope"].startswith("e4-relax:")

    def test_parent_series_scope_never_reaches_a_worker(self, tmp_path):
        plan = RunPlan(tasks=(e13_task(1), e13_task(2)), jobs=2)
        with use_series_scope(tmp_path / "parent", "parent-task"):
            execute(plan)
            streamed = execute(plan, series_dir=tmp_path / "series")
        assert not (tmp_path / "parent").exists()
        assert all(len(result.series) == 1 for result in streamed.results)

    def test_worker_counts_fault_hits_from_zero(self, tmp_path, faults):
        faults("snapshot.post-save:2")
        crash_point("snapshot.post-save")  # hit 1, here in the parent
        report = execute(PLAN, snapshot_dir=tmp_path)
        assert all(result.source == "executed" for result in report.results)
        saved = SnapshotStore(tmp_path).load(_task_cache_key(CHECKPOINTING))
        assert saved is None


def test_killed_sweep_leaves_no_worker_behind(tmp_path):
    env = dict(os.environ)
    env[FAULTS_ENV] = "executor.post-cache:1:kill"
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    command = ["sweep", "E6", "--grid", "seed=0:7:8", "--jobs", "2", "--cache"]
    sweep = subprocess.Popen(
        [sys.executable, "-m", "repro", *command, str(tmp_path / "cache")],
        env=env,
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    assert sweep.wait(timeout=120) == -signal.SIGKILL
    deadline = time.monotonic() + GROUP_DEADLINE_S
    while True:
        try:
            os.killpg(sweep.pid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            os.killpg(sweep.pid, signal.SIGKILL)
            pytest.fail(
                f"the killed sweep's workers were still alive "
                f"{GROUP_DEADLINE_S:.0f} s after it died"
            )
        time.sleep(0.05)
