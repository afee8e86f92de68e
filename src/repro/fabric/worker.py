"""The fabric worker: lease, execute, heartbeat, push, repeat.

``repro worker --remote URL`` runs this loop.  Each iteration polls the
coordinator for a lease, executes the leased task through the *same*
:func:`repro.runner.executor.run_task` the local pool uses (so a fabric
result is bit-identical to a local one), heartbeats on a daemon thread
while the task runs, and pushes the strict-JSON result with
retries/backoff.

Exit discipline (the part the fault-injection tests pin down):

* ``0`` — drained: the coordinator signalled shutdown, the idle limit
  passed, or the coordinator disappeared while the worker held no
  result (nothing was lost; restarts/`--shutdown` races are normal).
* ``1`` — the coordinator was *never* reachable (misconfiguration).
* ``2`` — a computed result could not be delivered (retries exhausted
  with work in hand).
* ``3`` — the coordinator rejected this worker's lease identity
  (unknown lease id, HTTP 409): a protocol breach, reported loudly.
"""

from __future__ import annotations

import math
import os
import socket
import threading
import time

from repro.engine.snapshot import (
    SnapshotChannel,
    SnapshotError,
    SnapshotState,
    use_snapshot_channel,
)
from repro.fabric.protocol import (
    MAX_BODY_BYTES,
    FabricUnavailable,
    ProtocolError,
    call_with_retries,
    encode,
    http_call,
    task_from_wire,
)
from repro.runner.executor import run_task
from repro.testing import crash_point
from repro.utils.errors import InvalidParameterError

#: Exit codes, by name (see module docstring).
EXIT_DRAINED = 0
EXIT_NEVER_REACHED = 1
EXIT_RESULT_LOST = 2
EXIT_LEASE_REJECTED = 3


def default_worker_id() -> str:
    """``host-pid``: unique enough per machine, readable in reports."""
    return f"{socket.gethostname()}-{os.getpid()}"


class _Heartbeat:
    """Daemon thread extending one lease while its task executes.

    Beats every ``ttl / 3`` seconds; transport hiccups are swallowed
    (the lease simply expires if they persist, and the idempotent
    result path absorbs the consequences).
    """

    def __init__(self, remote: str, lease_id: str, ttl: float, timeout: float,
                 token: str | None = None):
        self.remote = remote
        self.lease_id = lease_id
        self.interval = max(ttl / 3.0, 0.05)
        self.timeout = timeout
        self.token = token
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join(timeout=self.interval + self.timeout)

    def _run(self):
        while not self._stop.wait(self.interval):
            try:
                http_call(
                    self.remote,
                    "/heartbeat",
                    {"lease_id": self.lease_id},
                    timeout=self.timeout,
                    token=self.token,
                )
            except (FabricUnavailable, ProtocolError):
                pass


class HttpSnapshotChannel(SnapshotChannel):
    """Mid-task checkpoints over the fabric wire.

    ``load`` serves the snapshot the coordinator attached to the lease
    (progress from a previous — possibly dead — worker); ``save`` posts
    each new checkpoint to ``/snapshot`` best-effort (a transport
    hiccup loses one checkpoint generation, never the task) and skips,
    with one log line, a checkpoint whose request body would exceed
    :data:`~repro.fabric.protocol.MAX_BODY_BYTES` (the coordinator
    would refuse it unread); ``clear`` is a no-op — the coordinator
    retires a key's snapshots itself when its ``/result`` lands.
    """

    def __init__(self, worker: "Worker", lease_id: str, initial: str | None):
        self.worker = worker
        self.lease_id = lease_id
        self.initial = initial

    def load(self) -> SnapshotState | None:
        if self.initial is None:
            return None
        return SnapshotState.from_wire(self.initial)

    def save(self, snapshot: SnapshotState) -> None:
        wire = snapshot.to_wire()
        message = {
            "lease_id": self.lease_id,
            "worker": self.worker.worker_id,
            "snapshot": wire,
        }
        # Base64 needs no JSON escaping: the body is the envelope plus
        # the wire string, byte for byte.
        size = len(encode({**message, "snapshot": ""})) + len(wire)
        if size > MAX_BODY_BYTES:
            self.worker.log(
                f"[{self.worker.worker_id}] checkpoint skipped: its "
                f"{size}-byte body exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        else:
            try:
                self.worker._call("/snapshot", message)
            except FabricUnavailable:
                pass  # best-effort: the previous generation still stands
        crash_point("snapshot.post-save")

    def clear(self) -> None:
        pass


class Worker:
    """One pull-based fabric worker (see module docstring).

    Parameters
    ----------
    remote:
        Coordinator base URL, e.g. ``http://127.0.0.1:8731``.
    worker_id:
        Identity reported with every lease/result (defaults to
        ``host-pid``); lands in the report's ``worker`` provenance.
    poll:
        Idle sleep between empty lease polls (seconds, non-negative and
        finite).
    max_idle:
        Exit cleanly after this many consecutive idle seconds
        (``None`` = poll forever, until shutdown).
    max_tasks:
        Exit cleanly after completing this many tasks, at least 1
        (``None`` = unlimited; the fault-injection harness uses it to
        stop a worker mid-sweep deterministically).
    retries, backoff, timeout:
        Transport retry policy (see
        :func:`repro.fabric.protocol.call_with_retries`): ``retries``
        non-negative, ``backoff`` non-negative and finite.
    token:
        Shared fabric token when the coordinator requires one
        (``repro serve --token``); sent with every request.
    run:
        Task executor, injectable for tests (defaults to
        :func:`repro.runner.executor.run_task`).
    """

    def __init__(
        self,
        remote: str,
        worker_id: str | None = None,
        poll: float = 0.5,
        max_idle: float | None = None,
        max_tasks: int | None = None,
        retries: int = 6,
        backoff: float = 0.25,
        timeout: float = 30.0,
        token: str | None = None,
        run=run_task,
        sleep=time.sleep,
        log=print,
    ):
        self.remote = str(remote).rstrip("/")
        self.worker_id = worker_id or default_worker_id()
        self.poll = float(poll)
        self.max_idle = max_idle
        self.max_tasks = max_tasks
        self.retries = int(retries)
        self.backoff = float(backoff)
        for name, seconds in (("poll", self.poll), ("backoff", self.backoff)):
            if not 0 <= seconds < math.inf:
                raise InvalidParameterError(
                    f"{name} must be non-negative and finite, got {seconds!r}"
                )
        if self.retries < 0:
            raise InvalidParameterError(
                f"retries must be non-negative, got {retries!r}"
            )
        if max_tasks is not None and max_tasks < 1:
            raise InvalidParameterError(
                f"max_tasks must be at least 1, got {max_tasks!r}"
            )
        self.timeout = float(timeout)
        self.token = token
        self.run = run
        self.sleep = sleep
        self.log = log
        self.completed = 0
        self._ever_reached = False

    def _call(self, path: str, payload: dict) -> dict:
        response = call_with_retries(
            self.remote,
            path,
            payload,
            timeout=self.timeout,
            retries=self.retries,
            backoff=self.backoff,
            sleep=self.sleep,
            token=self.token,
        )
        self._ever_reached = True
        return response

    def run_forever(self) -> int:
        """The worker loop; returns the process exit code."""
        idle_since: float | None = None
        while True:
            try:
                response = self._call("/lease", {"worker": self.worker_id})
            except ProtocolError as error:
                self.log(f"[{self.worker_id}] FATAL: {error}")
                return EXIT_LEASE_REJECTED
            except FabricUnavailable as error:
                if self._ever_reached:
                    self.log(
                        f"[{self.worker_id}] coordinator gone while idle "
                        f"({error}); exiting cleanly"
                    )
                    return EXIT_DRAINED
                self.log(f"[{self.worker_id}] {error}")
                return EXIT_NEVER_REACHED

            lease = response.get("lease")
            if lease is None:
                if response.get("shutting_down"):
                    self.log(
                        f"[{self.worker_id}] coordinator shutting down; "
                        f"{self.completed} task(s) completed"
                    )
                    return EXIT_DRAINED
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                if (
                    self.max_idle is not None
                    and now - idle_since >= self.max_idle
                ):
                    self.log(
                        f"[{self.worker_id}] idle for {self.max_idle:.0f}s; "
                        f"exiting ({self.completed} task(s) completed)"
                    )
                    return EXIT_DRAINED
                self.sleep(self.poll)
                continue

            idle_since = None
            code = self._execute(lease)
            if code is not None:
                return code
            if (
                self.max_tasks is not None
                and self.completed >= self.max_tasks
            ):
                self.log(
                    f"[{self.worker_id}] reached max-tasks="
                    f"{self.max_tasks}; exiting"
                )
                return EXIT_DRAINED

    def _execute(self, lease: dict) -> int | None:
        """Run one lease end to end; a non-``None`` return exits the loop."""
        lease_id = str(lease["lease_id"])
        task = task_from_wire(lease["task"])
        ttl = float(lease.get("ttl") or 30.0)
        self.log(
            f"[{self.worker_id}] leased {task.experiment_id} "
            f"(seed={task.seed}, label={task.label or '-'})"
        )
        channel = HttpSnapshotChannel(self, lease_id,
                                      lease.get("snapshot"))
        try:
            with _Heartbeat(self.remote, lease_id, ttl, self.timeout,
                            token=self.token), \
                    use_snapshot_channel(channel):
                payload, seconds = self.run(task)
        except SnapshotError as error:
            # A corrupt lease-delivered snapshot is a protocol breach.
            self.log(f"[{self.worker_id}] FATAL: {error}")
            return EXIT_LEASE_REJECTED
        except Exception as error:
            # Execution failed locally: hand the task back (best
            # effort) and keep serving — the coordinator requeues it.
            self.log(
                f"[{self.worker_id}] task failed "
                f"({type(error).__name__}: {error}); releasing lease"
            )
            try:
                self._call(
                    "/release", {"lease_id": lease_id, "error": str(error)}
                )
            except (FabricUnavailable, ProtocolError):
                pass
            return None
        crash_point("worker.pre-submit")
        try:
            response = self._call(
                "/result",
                {
                    "lease_id": lease_id,
                    "worker": self.worker_id,
                    "report": payload,
                    "seconds": seconds,
                },
            )
        except ProtocolError as error:
            # Unknown lease (409) and any other result rejection are
            # deterministic protocol breaches — exit loudly.
            self.log(f"[{self.worker_id}] FATAL: {error}")
            return EXIT_LEASE_REJECTED
        except FabricUnavailable as error:
            self.log(
                f"[{self.worker_id}] FATAL: computed result undeliverable "
                f"({error})"
            )
            return EXIT_RESULT_LOST
        self.completed += 1
        verdict = "stored" if response.get("stored") else "duplicate"
        self.log(
            f"[{self.worker_id}] {task.experiment_id} done in "
            f"{seconds:.1f}s ({verdict})"
        )
        return None
