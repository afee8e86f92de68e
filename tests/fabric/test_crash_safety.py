"""Fabric crash-safety and auth tests.

Pins down the two robustness surfaces the distributed fabric grew:

* **Token auth** — a coordinator started with a token answers every
  unauthenticated request (including ``GET /status``) with a
  deterministic HTTP 401 that is never retried, and the token threads
  through :class:`Worker`, :class:`RemotePool`, and the heartbeat.
* **Mid-task snapshots** — workers post engine checkpoints to
  ``/snapshot``, the coordinator persists them in its own
  :class:`~repro.engine.snapshot.SnapshotStore`, re-leases of the same
  task carry the latest checkpoint so a replacement worker continues
  the trajectory mid-run, and a stored ``/result`` retires the key's
  snapshots.
"""

import threading
import urllib.error
import urllib.request

import pytest

from repro.engine.snapshot import SnapshotState
from repro.fabric import (
    Coordinator,
    FabricServer,
    ProtocolError,
    RemotePool,
    UnknownLeaseError,
    Worker,
    remote_execute,
    task_to_wire,
)
from repro.fabric.protocol import STATUS_UNAUTHORIZED, http_call
from repro.fabric.worker import EXIT_DRAINED, EXIT_LEASE_REJECTED
from repro.runner import RunPlan, RunTask, run_task

QUIET = {"log": lambda message: None}
TOKEN = "s3cret-fabric-token"


@pytest.fixture
def guarded(tmp_path):
    coordinator = Coordinator(tmp_path / "cache", lease_ttl=30.0)
    server = FabricServer(coordinator, token=TOKEN).start()
    yield server
    server.close()


@pytest.fixture
def server(tmp_path):
    coordinator = Coordinator(tmp_path / "cache", lease_ttl=30.0)
    server = FabricServer(coordinator).start()
    yield server
    server.close()


def one_task_plan() -> RunPlan:
    return RunPlan(tasks=(RunTask(experiment_id="E1", seed=7),))


def lease_snapshot_wire(server, payload) -> dict:
    """Submit one task, lease it, and post ``payload`` as a snapshot."""
    task = RunTask(experiment_id="E1", seed=7)
    keys = http_call(server.url, "/submit", {"tasks": [task_to_wire(task)]})[
        "keys"
    ]
    lease = http_call(server.url, "/lease", {"worker": "w1"})["lease"]
    wire = SnapshotState(kind="count", payload=payload).to_wire()
    response = http_call(
        server.url,
        "/snapshot",
        {"lease_id": lease["lease_id"], "worker": "w1", "snapshot": wire},
    )
    return {"keys": keys, "lease": lease, "response": response}


class TestTokenAuth:
    def test_missing_token_is_401(self, guarded):
        with pytest.raises(ProtocolError, match="token") as info:
            http_call(guarded.url, "/status", {})
        assert info.value.status == STATUS_UNAUTHORIZED

    def test_wrong_token_is_401(self, guarded):
        with pytest.raises(ProtocolError, match="token") as info:
            http_call(guarded.url, "/status", {}, token="not-the-token")
        assert info.value.status == STATUS_UNAUTHORIZED

    def test_get_status_is_guarded_too(self, guarded):
        # The read-only GET surface must not leak queue state either.
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(f"{guarded.url}/status", timeout=5.0)
        assert info.value.code == STATUS_UNAUTHORIZED

    def test_correct_token_is_accepted(self, guarded):
        status = http_call(guarded.url, "/status", {}, token=TOKEN)
        assert status["tasks"] == 0

    def test_tokenless_worker_exits_loudly(self, guarded):
        worker = Worker(guarded.url, retries=0, **QUIET)
        assert worker.run_forever() == EXIT_LEASE_REJECTED

    def test_tokened_sweep_and_worker_drain(self, guarded):
        plan = one_task_plan()
        worker = Worker(
            guarded.url,
            max_tasks=1,
            poll=0.05,
            retries=2,
            backoff=0.05,
            token=TOKEN,
            **QUIET,
        )
        thread = threading.Thread(target=worker.run_forever, daemon=True)
        thread.start()
        report = remote_execute(plan, guarded.url, poll=0.05, token=TOKEN)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert [r.source for r in report.results] == ["executed"]

    def test_tokenless_pool_is_rejected(self, guarded):
        with pytest.raises(ProtocolError, match="token"):
            RemotePool(guarded.url, retries=0).run(one_task_plan().tasks)


class TestSnapshotEndpoint:
    def test_snapshot_stored_and_relayed_on_next_lease(self, server):
        state = lease_snapshot_wire(server, {"steps_run": 7})
        assert state["response"] == {"ok": True, "state": "active"}
        key = state["lease"]["key"]
        found = server.coordinator.snapshots.load(key)
        assert found is not None and found.payload == {"steps_run": 7}

        # The worker dies (release); the replacement's lease carries
        # the checkpoint it should continue from.
        http_call(
            server.url,
            "/release",
            {"lease_id": state["lease"]["lease_id"], "error": "killed"},
        )
        release = http_call(server.url, "/lease", {"worker": "w2"})["lease"]
        assert release["key"] == key
        relayed = SnapshotState.from_wire(release["snapshot"])
        assert relayed.payload == {"steps_run": 7}

    def test_unknown_lease_is_409(self, server):
        wire = SnapshotState(kind="count", payload={"steps_run": 1}).to_wire()
        with pytest.raises(UnknownLeaseError):
            http_call(
                server.url,
                "/snapshot",
                {"lease_id": "never-issued", "worker": "w", "snapshot": wire},
            )

    def test_malformed_snapshot_is_rejected(self, server):
        state = lease_snapshot_wire(server, {"steps_run": 1})
        with pytest.raises(ProtocolError, match="snapshot"):
            http_call(
                server.url,
                "/snapshot",
                {
                    "lease_id": state["lease"]["lease_id"],
                    "worker": "w1",
                    "snapshot": {"bogus": True},
                },
            )
        with pytest.raises(ProtocolError, match="snapshot"):
            http_call(
                server.url,
                "/snapshot",
                {"lease_id": state["lease"]["lease_id"], "worker": "w1"},
            )

    def test_released_lease_answers_idempotently(self, server):
        state = lease_snapshot_wire(server, {"steps_run": 1})
        http_call(
            server.url,
            "/release",
            {"lease_id": state["lease"]["lease_id"], "error": "died"},
        )
        wire = SnapshotState(kind="count", payload={"steps_run": 2}).to_wire()
        late = http_call(
            server.url,
            "/snapshot",
            {
                "lease_id": state["lease"]["lease_id"],
                "worker": "w1",
                "snapshot": wire,
            },
        )
        assert late == {"ok": False, "state": "released"}
        # The late post changed nothing.
        key = state["lease"]["key"]
        assert server.coordinator.snapshots.load(key).payload == {
            "steps_run": 1
        }

    def test_stored_result_clears_snapshots(self, server):
        state = lease_snapshot_wire(server, {"steps_run": 3})
        key = state["lease"]["key"]
        payload, seconds = run_task(RunTask(experiment_id="E1", seed=7))
        http_call(
            server.url,
            "/result",
            {
                "lease_id": state["lease"]["lease_id"],
                "worker": "w1",
                "report": payload,
                "seconds": seconds,
            },
        )
        assert server.coordinator.snapshots.load(key) is None


class TestSnapshotBodyCap:
    def test_oversized_checkpoint_is_skipped(self, server, monkeypatch):
        # E4 at n=5e4 checkpoints three times; with the cap below a
        # checkpoint's body every save is skipped on the worker side,
        # and the task still completes and stores its result.
        monkeypatch.setattr("repro.fabric.worker.MAX_BODY_BYTES", 1000)
        stored = []
        original = server.coordinator.store_snapshot
        monkeypatch.setattr(
            server.coordinator,
            "store_snapshot",
            lambda *args: stored.append(args) or original(*args),
        )
        task = RunTask(experiment_id="E4", seed=1, params={"n": 50_000})
        http_call(server.url, "/submit", {"tasks": [task_to_wire(task)]})
        lines = []
        worker = Worker(
            server.url,
            max_tasks=1,
            poll=0.05,
            retries=2,
            backoff=0.05,
            log=lines.append,
        )
        assert worker.run_forever() == EXIT_DRAINED
        skipped = [line for line in lines if "checkpoint skipped" in line]
        assert len(skipped) == 3
        assert stored == []
        status = http_call(server.url, "/status", {})
        assert status["done"] == 1 and status["executed"] == 1


class TestWorkerContinuation:
    def test_crashed_worker_checkpoint_reaches_replacement(self, server):
        """A worker checkpoints, dies; the retry resumes from it."""
        http_call(
            server.url,
            "/submit",
            {"tasks": [task_to_wire(RunTask(experiment_id="E1", seed=5))]},
        )
        seen = []

        def crashy_then_resume(task):
            from repro.engine.snapshot import current_channel

            channel = current_channel()
            found = channel.load()
            seen.append(None if found is None else found.payload["steps_run"])
            if len(seen) == 1:
                channel.save(
                    SnapshotState(kind="count", payload={"steps_run": 7})
                )
                raise RuntimeError("simulated crash after checkpoint")
            return run_task(task)

        worker = Worker(
            server.url,
            max_tasks=1,
            poll=0.05,
            retries=2,
            backoff=0.05,
            run=crashy_then_resume,
            **QUIET,
        )
        assert worker.run_forever() == EXIT_DRAINED
        # First attempt started clean; the retry saw the crashed
        # attempt's checkpoint attached to its lease.
        assert seen == [None, 7]
        status = http_call(server.url, "/status", {})
        assert status["done"] == 1

    def test_corrupt_lease_snapshot_is_fatal(self, server):
        def loading_run(task):
            from repro.engine.snapshot import current_channel

            current_channel().load()
            return run_task(task)

        worker = Worker(server.url, run=loading_run, retries=0, **QUIET)
        lease = {
            "lease_id": "L1",
            "task": task_to_wire(RunTask(experiment_id="E1", seed=5)),
            "ttl": 30.0,
            "snapshot": {"bogus": True},
        }
        assert worker._execute(lease) == EXIT_LEASE_REJECTED
