"""Resumable-sweep plumbing: env channel binding and E4 wiring.

The engine-level byte-identity contract lives in
``tests/property/test_snapshot_equivalence.py``; these tests pin the
*runner* half — how :func:`repro.runner.executor.run_task` binds a
snapshot channel from :data:`SNAPSHOT_DIR_ENV`, when checkpoints are
cleared versus kept, and that E4's relaxation actually checkpoints
through the task's channel (so ``repro sweep --resume`` has something to
resume).  The full kill-and-resume byte-compare runs as a subprocess
scenario in ``scripts/run_chaos_smoke.py``.
"""

import os

import pytest

from repro.engine.snapshot import (
    RecordingChannel,
    SnapshotState,
    SnapshotStore,
    use_snapshot_channel,
)
from repro.runner import (
    RunPlan,
    RunTask,
    execute,
    run_task,
    strip_provenance,
    task_record,
)
from repro.runner.executor import (
    SNAPSHOT_DIR_ENV,
    _snapshot_dir_env,
    _task_cache_key,
)
def stale_snapshot() -> SnapshotState:
    return SnapshotState(kind="count", payload={"steps_run": 3})


class TestEnvChannelBinding:
    def test_success_clears_the_task_checkpoints(self, tmp_path, monkeypatch):
        task = RunTask(experiment_id="E1", seed=3)
        store = SnapshotStore(tmp_path / "snapshots")
        store.save(_task_cache_key(task), stale_snapshot())
        monkeypatch.setenv(SNAPSHOT_DIR_ENV, str(tmp_path / "snapshots"))
        run_task(task)
        assert store.load(_task_cache_key(task)) is None

    def test_failure_keeps_the_task_checkpoints(self, tmp_path, monkeypatch):
        import repro.experiments.base as base

        def dying(*args, **kwargs):
            raise RuntimeError("simulated mid-task crash")

        task = RunTask(experiment_id="E1", seed=3)
        store = SnapshotStore(tmp_path / "snapshots")
        store.save(_task_cache_key(task), stale_snapshot())
        monkeypatch.setenv(SNAPSHOT_DIR_ENV, str(tmp_path / "snapshots"))
        monkeypatch.setattr(base, "run_experiment", dying)
        with pytest.raises(RuntimeError, match="simulated"):
            run_task(task)
        found = store.load(_task_cache_key(task))
        assert found is not None and found.payload == {"steps_run": 3}

    def test_no_env_means_no_channel_side_effects(self, tmp_path):
        task = RunTask(experiment_id="E1", seed=3)
        store = SnapshotStore(tmp_path / "snapshots")
        store.save(_task_cache_key(task), stale_snapshot())
        assert SNAPSHOT_DIR_ENV not in os.environ
        run_task(task)
        assert store.load(_task_cache_key(task)) is not None

    def test_ambient_channel_wins_over_env(self, tmp_path, monkeypatch):
        # The fabric worker binds its HTTP channel before run_task runs;
        # the env directory must not shadow it.
        task = RunTask(experiment_id="E1", seed=3)
        store = SnapshotStore(tmp_path / "snapshots")
        store.save(_task_cache_key(task), stale_snapshot())
        monkeypatch.setenv(SNAPSHOT_DIR_ENV, str(tmp_path / "snapshots"))
        ambient = RecordingChannel()
        with use_snapshot_channel(ambient):
            run_task(task)
        assert ambient.cleared == 1
        assert store.load(_task_cache_key(task)) is not None


class TestSnapshotDirEnv:
    def test_sets_and_restores(self, monkeypatch):
        monkeypatch.delenv(SNAPSHOT_DIR_ENV, raising=False)
        with _snapshot_dir_env("/tmp/snaps"):
            assert os.environ[SNAPSHOT_DIR_ENV] == "/tmp/snaps"
        assert SNAPSHOT_DIR_ENV not in os.environ

    def test_restores_previous_value(self, monkeypatch):
        monkeypatch.setenv(SNAPSHOT_DIR_ENV, "/previous")
        with _snapshot_dir_env("/tmp/snaps"):
            assert os.environ[SNAPSHOT_DIR_ENV] == "/tmp/snaps"
        assert os.environ[SNAPSHOT_DIR_ENV] == "/previous"

    def test_none_is_a_no_op(self):
        with _snapshot_dir_env(None):
            assert SNAPSHOT_DIR_ENV not in os.environ


class TestExecuteResume:
    def test_snapshot_dir_execute_matches_plain(self, tmp_path):
        plan = RunPlan(tasks=(RunTask(experiment_id="E1", seed=11),
                              RunTask(experiment_id="E2", seed=11)))
        plain = execute(plan)
        resumed = execute(plan, snapshot_dir=tmp_path / "snapshots")
        assert SNAPSHOT_DIR_ENV not in os.environ
        assert [strip_provenance(task_record(r)) for r in resumed.results] == [
            strip_provenance(task_record(r)) for r in plain.results
        ]

    def test_cached_cells_never_reexecute(self, tmp_path):
        plan = RunPlan(tasks=(RunTask(experiment_id="E1", seed=11),),
                       cache_dir=str(tmp_path / "cache"))
        first = execute(plan, snapshot_dir=tmp_path / "snapshots")
        second = execute(plan, snapshot_dir=tmp_path / "snapshots")
        assert [r.source for r in first.results] == ["executed"]
        assert [r.source for r in second.results] == ["cache"]


class TestE4Checkpointing:
    """E4's relaxation must checkpoint resumable snapshots."""

    PARAMS = {"n": 60_000, "m": 4, "k_max": 3, "m_urn": 8}

    def test_relaxation_checkpoints_through_task_channel(self):
        from repro.experiments.base import run_experiment

        channel = RecordingChannel()
        with use_snapshot_channel(channel):
            report = run_experiment("E4", params=self.PARAMS, seed=2)
        # The relaxation outruns one segment at this n, so snapshots
        # flowed into the task's channel: the relaxation engine's own
        # checkpoints, the task's one resumable run.
        assert len(channel.snapshots) > 0
        assert {s.kind for s in channel.snapshots} == {"count"}
        assert all(s.payload["n"] == self.PARAMS["n"] for s in channel.snapshots)

        # Channel presence is invisible in the result (segmented
        # execution is unconditional).
        bare = run_experiment("E4", params=self.PARAMS, seed=2)
        assert bare.to_dict() == report.to_dict()

    def test_relaxation_resumes_from_mid_run_checkpoint(self):
        from repro.experiments.base import run_experiment

        recording = RecordingChannel()
        with use_snapshot_channel(recording):
            baseline = run_experiment("E4", params=self.PARAMS, seed=2)
        middle = recording.snapshots[len(recording.snapshots) // 2]

        resumed_channel = RecordingChannel(initial=middle)
        with use_snapshot_channel(resumed_channel):
            resumed = run_experiment("E4", params=self.PARAMS, seed=2)
        assert resumed.to_dict() == baseline.to_dict()
