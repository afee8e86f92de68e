"""End-to-end fabric tests: HTTP coordinator + real workers, in process.

These run the genuine article — a :class:`FabricServer` on an ephemeral
localhost port, :class:`Worker` loops executing real (fast-profile)
experiments, and :class:`RemotePool` clients — and pin down the three
fabric contracts: byte-identity with local execution, cache-served
resubmission, and the worker exit-code discipline under fault injection.
(The multi-process version of the same scenario lives in
``scripts/run_fabric_smoke.py``.)
"""

import socket
import threading
import time

import pytest

from repro.fabric import (
    Coordinator,
    FabricServer,
    ProtocolError,
    RemotePool,
    Worker,
    fabric_status,
    remote_execute,
    task_to_wire,
)
from repro.fabric.protocol import MAX_BODY_BYTES, http_call
from repro.fabric.worker import (
    EXIT_DRAINED,
    EXIT_LEASE_REJECTED,
    EXIT_NEVER_REACHED,
    EXIT_RESULT_LOST,
)
from repro.runner import RunPlan, RunTask, execute, run_task, strip_provenance
from repro.runner.plan import replicate_plan

QUIET = {"log": lambda message: None}


def small_plan(cache_dir=None) -> RunPlan:
    tasks = replicate_plan("E1", replicates=2, base_seed=7).tasks + (
        RunTask(experiment_id="E2", seed=11, label="e2"),
    )
    return RunPlan(tasks=tasks, jobs=1, cache_dir=cache_dir)


@pytest.fixture
def server(tmp_path):
    coordinator = Coordinator(tmp_path / "shared-cache", lease_ttl=30.0)
    server = FabricServer(coordinator).start()
    yield server
    server.close()


def drain_worker(url: str, max_tasks: int, **options) -> Worker:
    """A quiet worker tuned for fast test turnaround."""
    return Worker(
        url,
        max_tasks=max_tasks,
        poll=0.05,
        retries=2,
        backoff=0.05,
        **QUIET,
        **options,
    )


class TestByteIdentity:
    def test_remote_report_matches_local(self, tmp_path, server):
        plan = small_plan()
        local = execute(
            RunPlan(tasks=plan.tasks, cache_dir=str(tmp_path / "local-cache"))
        )

        worker = drain_worker(server.url, max_tasks=len(plan.tasks), worker_id="wA")
        thread = threading.Thread(target=worker.run_forever, daemon=True)
        thread.start()
        remote = remote_execute(plan, server.url, poll=0.05)
        thread.join(timeout=10.0)
        assert not thread.is_alive()

        local_records = [strip_provenance(r) for r in local.to_records()]
        remote_records = [strip_provenance(r) for r in remote.to_records()]
        assert remote_records == local_records
        assert [r.source for r in remote.results] == ["executed"] * 3
        assert {r.worker for r in remote.results} == {"wA"}

    def test_second_submission_is_served_from_cache(self, tmp_path, server):
        plan = small_plan()
        worker = drain_worker(server.url, max_tasks=len(plan.tasks))
        thread = threading.Thread(target=worker.run_forever, daemon=True)
        thread.start()
        first = remote_execute(plan, server.url, poll=0.05)
        thread.join(timeout=10.0)
        executed_after_first = fabric_status(server.url)["executed"]

        # No worker is connected any more: the resubmission must be
        # answered entirely by the coordinator's shared cache.
        second = remote_execute(plan, server.url, poll=0.05)
        assert [r.source for r in second.results] == ["cache"] * 3
        assert [r.worker for r in second.results] == [None] * 3
        assert fabric_status(server.url)["executed"] == executed_after_first
        assert [strip_provenance(r) for r in second.to_records()] == [
            strip_provenance(r) for r in first.to_records()
        ]


class TestFaultInjection:
    def test_killed_worker_task_requeues_and_finishes(self, tmp_path):
        coordinator = Coordinator(tmp_path / "cache", lease_ttl=0.4)
        server = FabricServer(coordinator).start()
        try:
            plan = small_plan()
            wires = [task_to_wire(task) for task in plan.tasks]
            keys = http_call(server.url, "/submit", {"tasks": wires})["keys"]
            # The "killed" worker takes a lease and is never heard from
            # again — its task must expire back onto the queue.
            dead = http_call(server.url, "/lease", {"worker": "dead"})["lease"]
            assert dead is not None

            worker = drain_worker(server.url, max_tasks=len(keys), worker_id="wB")
            assert worker.run_forever() == EXIT_DRAINED

            outcomes = http_call(server.url, "/collect", {"keys": keys})[
                "outcomes"
            ]
            assert all(outcomes[key] is not None for key in keys)
            assert outcomes[dead["key"]]["worker"] == "wB"

            # And the final report matches a purely local run, byte for
            # byte, once provenance is stripped.
            local = execute(
                RunPlan(tasks=plan.tasks, cache_dir=str(tmp_path / "local"))
            )
            remote = execute(
                plan, pool=RemotePool(server.url, poll=0.05)
            )
            assert [strip_provenance(r) for r in remote.to_records()] == [
                strip_provenance(r) for r in local.to_records()
            ]
        finally:
            server.close()

    def test_heartbeat_keeps_slow_task_alive(self, tmp_path):
        coordinator = Coordinator(tmp_path / "cache", lease_ttl=0.5)
        server = FabricServer(coordinator).start()
        try:

            def slow_run(task):
                time.sleep(1.2)  # well past the 0.5s lease TTL
                return run_task(task)

            http_call(
                server.url,
                "/submit",
                {"tasks": [task_to_wire(RunTask(experiment_id="E1", seed=3))]},
            )
            messages = []
            worker = Worker(
                server.url,
                worker_id="slowpoke",
                max_tasks=1,
                poll=0.05,
                retries=2,
                backoff=0.05,
                run=slow_run,
                log=messages.append,
            )
            assert worker.run_forever() == EXIT_DRAINED
            # The lease never expired, so the result was stored fresh —
            # not demoted to the duplicate path.
            assert any("(stored)" in message for message in messages)
            status = fabric_status(server.url)
            assert status["executed"] == 1
            assert status["pending"] == 0
        finally:
            server.close()

    def test_failing_task_is_released_and_retried(self, tmp_path, server):
        http_call(
            server.url,
            "/submit",
            {"tasks": [task_to_wire(RunTask(experiment_id="E1", seed=5))]},
        )
        attempts = []

        def flaky_run(task):
            attempts.append(task)
            if len(attempts) == 1:
                raise RuntimeError("simulated mid-task crash")
            return run_task(task)

        worker = drain_worker(server.url, max_tasks=1, run=flaky_run)
        assert worker.run_forever() == EXIT_DRAINED
        assert len(attempts) == 2  # failed once, requeued, succeeded
        assert fabric_status(server.url)["done"] == 1


class TestWorkerExitCodes:
    def test_never_reachable_coordinator(self):
        worker = Worker("http://127.0.0.1:1", retries=0, **QUIET)
        assert worker.run_forever() == EXIT_NEVER_REACHED

    def test_shutdown_drains_idle_worker(self, server):
        server.coordinator.request_shutdown()
        worker = drain_worker(server.url, max_tasks=None)
        assert worker.run_forever() == EXIT_DRAINED

    def test_max_idle_drains_worker(self, server):
        worker = drain_worker(server.url, max_tasks=None, max_idle=0.2)
        assert worker.run_forever() == EXIT_DRAINED

    def test_unknown_lease_rejection_is_fatal(self, server):
        http_call(
            server.url,
            "/submit",
            {"tasks": [task_to_wire(RunTask(experiment_id="E1", seed=9))]},
        )

        def amnesiac_run(task):
            payload, seconds = run_task(task)
            # Simulate a coordinator restarted WITHOUT its checkpoint
            # while the task ran: every issued lease id is forgotten.
            server.coordinator._leases.clear()
            return payload, seconds

        worker = drain_worker(server.url, max_tasks=1, run=amnesiac_run)
        assert worker.run_forever() == EXIT_LEASE_REJECTED

    def test_undeliverable_result_is_fatal(self, tmp_path):
        coordinator = Coordinator(tmp_path / "cache")
        server = FabricServer(coordinator).start()
        http_call(
            server.url,
            "/submit",
            {"tasks": [task_to_wire(RunTask(experiment_id="E1", seed=13))]},
        )

        def run_then_lose_coordinator(task):
            payload, seconds = run_task(task)
            server.close()  # the coordinator dies with a result in hand
            return payload, seconds

        worker = Worker(
            server.url,
            max_tasks=1,
            poll=0.05,
            retries=0,
            run=run_then_lose_coordinator,
            **QUIET,
        )
        assert worker.run_forever() == EXIT_RESULT_LOST


def raw_post(server, content_length: str) -> bytes:
    """POST with a hand-written ``Content-Length`` header and no body.

    Returns everything the server sends until it closes the connection;
    a server that never answers or never closes raises ``TimeoutError``.
    """
    request = (
        "POST /status HTTP/1.1\r\n"
        "Host: localhost\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    )
    with socket.create_connection((server.host, server.port), timeout=3.0) as sock:
        sock.sendall(request.encode("ascii"))
        received = b""
        while chunk := sock.recv(4096):
            received += chunk
    return received


class TestHttpSurface:
    @pytest.mark.parametrize("length", ["-1", "abc", "1_0", "+5"])
    def test_invalid_content_length_is_refused(self, server, length):
        reply = raw_post(server, length)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"invalid Content-Length" in reply
        assert fabric_status(server.url)["tasks"] == 0

    def test_oversized_body_is_refused_unread(self, server):
        # Declared over the cap and never sent: the coordinator answers
        # 413 and closes at once instead of waiting to buffer the body.
        started = time.monotonic()
        reply = raw_post(server, str(MAX_BODY_BYTES + 1))
        assert reply.startswith(b"HTTP/1.1 413 ")
        assert b"exceeds" in reply
        assert time.monotonic() - started < 2.0
        assert fabric_status(server.url)["tasks"] == 0

    def test_status_get_and_post_agree(self, server):
        posted = fabric_status(server.url)
        assert posted["tasks"] == 0
        assert posted["wire_version"] == 1
        assert "entries" in posted["cache"]

    def test_unknown_path_is_a_protocol_error(self, server):
        with pytest.raises(ProtocolError, match="unknown path"):
            http_call(server.url, "/frobnicate", {})

    def test_malformed_submit_is_a_400(self, server):
        with pytest.raises(ProtocolError, match="tasks"):
            http_call(server.url, "/submit", {"tasks": "not-a-list"})

    def test_remote_pool_timeout_without_workers(self, server):
        plan = RunPlan(tasks=(RunTask(experiment_id="E1", seed=21),))
        pool = RemotePool(server.url, poll=0.05, timeout=0.3)
        from repro.fabric import FabricUnavailable

        with pytest.raises(FabricUnavailable, match="still pending"):
            execute(plan, pool=pool)
