"""The fabric coordinator: leased task queue over a shared ResultCache.

The coordinator is the stateful heart of ``repro serve``.  It holds a
ledger of submitted tasks keyed by the **canonical cache key** (PR 3:
the digest of experiment, resolved params, seed, backend, and code
version), leases pending tasks to workers with a deadline, accepts
strict-JSON results, and answers cache queries — the on-disk
:class:`~repro.runner.cache.ResultCache` is the dedup/memoization
store, so identical resolved payloads are served without burning CPU,
across submissions *and* across coordinator restarts.

Robustness model
----------------
* **Lease expiry** — a worker that stops heartbeating past its
  deadline forfeits the lease; the task silently requeues for the next
  ``/lease`` poll.  Dead workers therefore delay a sweep, never wedge
  it.
* **Idempotent completion** — results are keyed by the canonical cache
  key and the first write wins; a slow worker completing an expired
  (re-leased) task is a harmless duplicate, because both workers
  computed the same deterministic payload.
* **Loud identity failures** — a result or heartbeat for a lease id
  the coordinator *never issued* is rejected with HTTP 409
  (:class:`~repro.fabric.protocol.UnknownLeaseError`); that is a
  protocol breach, not a race, and the worker exits loudly.
* **Checkpointed queue state** — every mutation rewrites a small JSON
  checkpoint (atomic temp + ``os.replace``).  A killed ``repro serve``
  resumes from it: done keys are re-verified against the cache,
  in-flight leases requeue, and previously issued lease ids are
  remembered so late results from surviving workers stay on the
  idempotent path instead of the loud one.

All public methods are thread-safe (the HTTP server is threaded).
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import tempfile
import threading
import time
import uuid
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.engine.snapshot import SnapshotError, SnapshotState, SnapshotStore
from repro.fabric.protocol import (
    MAX_BODY_BYTES,
    STATUS_UNAUTHORIZED,
    STATUS_UNKNOWN_LEASE,
    TOKEN_HEADER,
    WIRE_VERSION,
    ProtocolError,
    UnknownLeaseError,
    decode,
    encode,
    task_from_wire,
    task_to_wire,
)
from repro.runner.cache import ResultCache, pack_entry, unpack_entry
from repro.runner.executor import _task_cache_key
from repro.runner.plan import RunPlan
from repro.utils.errors import InvalidParameterError

#: Ledger entry states.  ``leased`` checkpoints as ``pending`` — a
#: coordinator restart forgets in-flight work and re-leases it.
_STATES = ("pending", "leased", "done")


class _Entry:
    """One ledger row: a task, its state, and execution provenance."""

    __slots__ = ("key", "wire", "resolved", "state", "worker", "order")

    def __init__(self, key, wire, resolved, state="pending", worker=None, order=0):
        self.key = key
        self.wire = wire
        self.resolved = resolved
        self.state = state
        self.worker = worker
        self.order = order


class Coordinator:
    """Leased task queue + shared result cache + checkpoint.

    Parameters
    ----------
    cache_dir:
        Directory of the shared :class:`ResultCache` — the fabric's
        dedup/memoization store and result transport.
    checkpoint:
        Optional path of the queue-state checkpoint file; ``None``
        disables persistence (in-memory coordinator).
    lease_ttl:
        Seconds a lease stays valid without a heartbeat; positive and
        finite (a NaN would expire every lease at once, an infinite one
        would never free a dead worker's task).
    clock:
        Injectable time source (tests drive expiry deterministically).
    """

    def __init__(
        self,
        cache_dir,
        checkpoint=None,
        lease_ttl: float = 30.0,
        clock=time.time,
    ):
        if not 0 < lease_ttl < math.inf:
            raise InvalidParameterError(
                f"lease_ttl must be positive and finite, got {lease_ttl!r}"
            )
        self.cache = ResultCache(cache_dir)
        # Mid-task progress outlives workers *and* this coordinator: a
        # replacement worker picking up a re-leased task receives the
        # latest intact snapshot and continues the trajectory instead
        # of restarting it.
        self.snapshots = SnapshotStore(pathlib.Path(cache_dir) / "snapshots")
        self.lease_ttl = float(lease_ttl)
        self.clock = clock
        self.checkpoint_path = (
            pathlib.Path(checkpoint) if checkpoint is not None else None
        )
        self._lock = threading.RLock()
        self._entries: dict[str, _Entry] = {}
        self._queue: deque[str] = deque()
        #: lease id -> {"key", "worker", "deadline", "state"}; kept for
        #: the coordinator's lifetime so late submissions are always
        #: classifiable as idempotent-duplicate vs unknown.
        self._leases: dict[str, dict] = {}
        self._executed = 0
        self._shutting_down = False
        if self.checkpoint_path is not None and self.checkpoint_path.exists():
            self._restore()

    # -- submission ----------------------------------------------------

    def submit_plan(self, plan: RunPlan) -> dict:
        """Preload every task of a local :class:`RunPlan` (serve-side)."""
        return self.submit([task_to_wire(task) for task in plan.tasks])

    def submit(self, task_wires: list[dict]) -> dict:
        """Register tasks; returns ``{"keys": [...], "cached": [...]}``.

        ``keys[i]`` is the canonical cache key of ``task_wires[i]`` —
        the handle ``collect`` takes.  ``cached[i]`` records whether
        *this submission* was served without CPU (the key was already
        done, in the ledger or the shared cache): it becomes the
        client's ``source`` provenance field.  Unknown experiments or
        invalid params fail the whole submission loudly before any
        task is queued.
        """
        staged = []
        for wire in task_wires:
            task = task_from_wire(wire)
            try:
                key = _task_cache_key(task)
                from repro.experiments.base import get_spec

                spec = get_spec(task.experiment_id)
                resolved = spec.resolve(task.profile, task.params_dict())
            except InvalidParameterError as error:
                raise ProtocolError(f"rejected task {wire!r}: {error}") from error
            staged.append((key, task_to_wire(task), resolved.canonical()))
        keys, cached = [], []
        with self._lock:
            for key, wire, resolved in staged:
                entry = self._entries.get(key)
                if entry is None:
                    if self.cache.get(key) is not None:
                        entry = _Entry(
                            key,
                            wire,
                            resolved,
                            state="done",
                            order=len(self._entries),
                        )
                        self._entries[key] = entry
                    else:
                        entry = _Entry(
                            key, wire, resolved, order=len(self._entries)
                        )
                        self._entries[key] = entry
                        self._queue.append(key)
                keys.append(key)
                cached.append(entry.state == "done")
            self._checkpoint()
        return {"keys": keys, "cached": cached}

    # -- leasing -------------------------------------------------------

    def lease(self, worker: str) -> dict:
        """Grant the oldest pending task to ``worker`` (or nothing).

        The response always carries ``done`` (every known task is
        complete) and ``shutting_down`` so idle workers can decide
        whether to keep polling.
        """
        with self._lock:
            self._reap()
            while self._queue:
                key = self._queue.popleft()
                entry = self._entries[key]
                if entry.state != "pending":
                    continue
                lease_id = uuid.uuid4().hex
                deadline = self.clock() + self.lease_ttl
                entry.state = "leased"
                self._leases[lease_id] = {
                    "key": key,
                    "worker": str(worker),
                    "deadline": deadline,
                    "state": "active",
                }
                self._checkpoint()
                found = self.snapshots.load(key)
                return {
                    "lease": {
                        "lease_id": lease_id,
                        "key": key,
                        "task": entry.wire,
                        "resolved": entry.resolved,
                        "ttl": self.lease_ttl,
                        # The latest mid-task checkpoint (from this or a
                        # previous worker), or None for a clean start.
                        "snapshot": None if found is None else found.to_wire(),
                    },
                    "done": self._done(),
                    "shutting_down": self._shutting_down,
                }
            return {
                "lease": None,
                "done": self._done(),
                "shutting_down": self._shutting_down,
            }

    def heartbeat(self, lease_id: str) -> dict:
        """Extend an active lease's deadline; report a lost one.

        ``{"ok": False, "state": ...}`` (rather than an error) for a
        lease that expired or completed — the worker learns its fate on
        the idempotent path.  A lease id that was never issued is a 409.
        """
        with self._lock:
            self._reap()
            lease = self._leases.get(lease_id)
            if lease is None:
                raise UnknownLeaseError(
                    f"heartbeat for unknown lease {lease_id!r}"
                )
            if lease["state"] != "active":
                return {"ok": False, "state": lease["state"]}
            lease["deadline"] = self.clock() + self.lease_ttl
            return {"ok": True, "state": "active"}

    def submit_result(
        self, lease_id: str, worker: str, payload: dict, seconds: float
    ) -> dict:
        """Accept one executed result (idempotent, first-write-wins).

        ``payload`` is the report wire form :func:`run_task` produced.
        A result for a known-but-expired lease whose task already
        completed elsewhere is ``{"accepted": True, "stored": False}``;
        only a never-issued lease id is rejected (409).
        """
        if not isinstance(payload, dict) or "experiment_id" not in payload:
            raise ProtocolError(
                "result payload must be a report wire object "
                "(missing 'experiment_id')"
            )
        with self._lock:
            self._reap()
            lease = self._leases.get(lease_id)
            if lease is None:
                raise UnknownLeaseError(
                    f"result for unknown lease {lease_id!r} "
                    f"(worker {worker!r}); was the coordinator restarted "
                    f"without its checkpoint?"
                )
            key = lease["key"]
            entry = self._entries[key]
            if lease["state"] == "active":
                lease["state"] = "completed"
            if entry.state == "done":
                return {"accepted": True, "stored": False, "duplicate": True}
            self.cache.put(key, pack_entry(payload, seconds))
            entry.state = "done"
            entry.worker = str(worker)
            self._executed += 1
            # The task may have been requeued (expiry) while this
            # result was in flight; completion supersedes the queue.
            self._drop_queued(key)
            # Completion retires the mid-task checkpoints.
            self.snapshots.clear(key)
            self._checkpoint()
            return {"accepted": True, "stored": True, "duplicate": False}

    def store_snapshot(self, lease_id: str, worker: str, wire: str) -> dict:
        """Persist a worker's mid-task checkpoint for its leased key.

        Snapshots are accepted only from the *active* holder of the
        lease (an expired/completed lease answers ``{"ok": False}`` on
        the idempotent path — the worker learns its fate at ``/result``
        time); a never-issued lease id is a 409.  ``wire`` is the base64
        of the v2 document, verified before it is stored.  The snapshot
        lands in the coordinator's on-disk :class:`SnapshotStore`, so it
        survives coordinator restarts and is handed to whichever worker
        next leases the key.
        """
        try:
            snapshot = SnapshotState.from_wire(wire)
        except SnapshotError as error:
            raise ProtocolError(f"rejected snapshot: {error}") from error
        with self._lock:
            self._reap()
            lease = self._leases.get(lease_id)
            if lease is None:
                raise UnknownLeaseError(
                    f"snapshot for unknown lease {lease_id!r} "
                    f"(worker {worker!r})"
                )
            if lease["state"] != "active":
                return {"ok": False, "state": lease["state"]}
            entry = self._entries[lease["key"]]
            if entry.state == "done":
                return {"ok": False, "state": "done"}
            self.snapshots.save(lease["key"], snapshot)
            return {"ok": True, "state": "active"}

    def release(self, lease_id: str, error: str | None = None) -> dict:
        """Return a leased task to the queue (worker-side failure)."""
        with self._lock:
            lease = self._leases.get(lease_id)
            if lease is None:
                raise UnknownLeaseError(
                    f"release of unknown lease {lease_id!r}"
                )
            if lease["state"] == "active":
                lease["state"] = "released"
                entry = self._entries[lease["key"]]
                if entry.state == "leased":
                    entry.state = "pending"
                    self._queue.append(entry.key)
                self._checkpoint()
            return {"ok": True, "error": error}

    # -- collection ----------------------------------------------------

    def collect(self, keys: list[str]) -> dict:
        """``{"outcomes": {key: outcome | None}}`` for submitted keys.

        An outcome is ``{"report", "seconds", "worker"}`` once the key
        is done; ``None`` while it is pending or in flight.  Keys never
        submitted are a loud protocol error.  A done key whose cache
        entry vanished (pruned mid-sweep) silently requeues — the
        fabric re-executes instead of failing the client.
        """
        outcomes: dict[str, dict | None] = {}
        with self._lock:
            self._reap()
            for key in keys:
                entry = self._entries.get(key)
                if entry is None:
                    raise ProtocolError(
                        f"collect of unsubmitted key {key!r}"
                    )
                if entry.state != "done":
                    outcomes[key] = None
                    continue
                stored = self.cache.get(key)
                if stored is None:
                    entry.state = "pending"
                    entry.worker = None
                    self._queue.append(key)
                    self._checkpoint()
                    outcomes[key] = None
                    continue
                payload, seconds = unpack_entry(stored)
                outcomes[key] = {
                    "report": payload,
                    "seconds": seconds,
                    "worker": entry.worker,
                }
        return {"outcomes": outcomes}

    def status(self) -> dict:
        """Queue/ledger/cache counters (the dashboard payload)."""
        with self._lock:
            self._reap()
            states = {"pending": 0, "leased": 0, "done": 0}
            for entry in self._entries.values():
                states[entry.state] += 1
            return {
                "wire_version": WIRE_VERSION,
                "tasks": len(self._entries),
                "pending": states["pending"],
                "leased": states["leased"],
                "done": states["done"],
                "executed": self._executed,
                "active_leases": sum(
                    1
                    for lease in self._leases.values()
                    if lease["state"] == "active"
                ),
                "shutting_down": self._shutting_down,
                "cache": self.cache.stats(),
            }

    def request_shutdown(self) -> None:
        """Flag shutdown: idle workers drain on their next lease poll."""
        with self._lock:
            self._shutting_down = True

    # -- internals -----------------------------------------------------

    def _done(self) -> bool:
        return all(
            entry.state == "done" for entry in self._entries.values()
        )

    def _drop_queued(self, key: str) -> None:
        if key in self._queue:
            self._queue = deque(k for k in self._queue if k != key)

    def _reap(self) -> int:
        """Requeue every task whose lease deadline passed; returns count."""
        now = self.clock()
        requeued = 0
        for lease in self._leases.values():
            if lease["state"] != "active" or lease["deadline"] > now:
                continue
            lease["state"] = "expired"
            entry = self._entries[lease["key"]]
            if entry.state == "leased":
                entry.state = "pending"
                self._queue.append(entry.key)
                requeued += 1
        if requeued:
            self._checkpoint()
        return requeued

    def _checkpoint(self) -> None:
        """Atomically persist queue state (no-op without a path)."""
        if self.checkpoint_path is None:
            return
        ordered = sorted(self._entries.values(), key=lambda e: e.order)
        payload = {
            "version": WIRE_VERSION,
            "lease_ttl": self.lease_ttl,
            "executed": self._executed,
            "entries": [
                {
                    "key": entry.key,
                    "task": entry.wire,
                    "resolved": entry.resolved,
                    # In-flight leases do not survive a restart.
                    "state": "done" if entry.state == "done" else "pending",
                    "worker": entry.worker,
                }
                for entry in ordered
            ],
            "queue": [
                key
                for key in self._queue
                if self._entries[key].state == "pending"
            ],
            "leases": {
                lease_id: lease["key"]
                for lease_id, lease in self._leases.items()
            },
        }
        path = self.checkpoint_path
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(
            dir=path.parent, suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, allow_nan=False)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def _restore(self) -> None:
        """Rebuild ledger/queue/lease tombstones from the checkpoint."""
        try:
            payload = json.loads(
                self.checkpoint_path.read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError) as error:
            raise InvalidParameterError(
                f"unreadable fabric checkpoint "
                f"{self.checkpoint_path}: {error}"
            ) from error
        if payload.get("version") != WIRE_VERSION:
            raise InvalidParameterError(
                f"fabric checkpoint {self.checkpoint_path} has wire "
                f"version {payload.get('version')!r}, expected {WIRE_VERSION}"
            )
        self._executed = int(payload.get("executed", 0))
        for order, row in enumerate(payload.get("entries", ())):
            state = row["state"]
            # Done entries must still be backed by the cache; a pruned
            # (or cleared) store demotes them to pending re-execution.
            if state == "done" and self.cache.get(row["key"]) is None:
                state = "pending"
            self._entries[row["key"]] = _Entry(
                row["key"],
                row["task"],
                row["resolved"],
                state=state,
                worker=row.get("worker"),
                order=order,
            )
        seen = set()
        for key in payload.get("queue", ()):
            entry = self._entries.get(key)
            if entry is not None and entry.state == "pending":
                self._queue.append(key)
                seen.add(key)
        for entry in sorted(self._entries.values(), key=lambda e: e.order):
            if entry.state == "pending" and entry.key not in seen:
                self._queue.append(entry.key)
        # Previously issued leases come back as tombstones: a surviving
        # worker's late result stays on the idempotent path.
        for lease_id, key in payload.get("leases", {}).items():
            if key in self._entries:
                self._leases[lease_id] = {
                    "key": key,
                    "worker": None,
                    "deadline": 0.0,
                    "state": "expired",
                }


class _FabricHandler(BaseHTTPRequestHandler):
    """Route table of the coordinator's HTTP JSON protocol."""

    #: Set by :class:`FabricServer`.
    coordinator: Coordinator = None
    server_ref = None
    quiet = True
    #: Shared secret (``repro serve --token``); ``None`` disables auth.
    token: str | None = None

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.quiet:
            super().log_message(format, *args)

    def _send(self, code: int, payload: dict) -> None:
        body = encode(payload)
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _authorized(self) -> bool:
        """Check the shared token; answers the 401 itself when it fails.

        Every endpoint — including ``/status`` — is behind the token:
        an unauthorized caller learns nothing about the queue and
        cannot enqueue, lease, or complete work.
        """
        if self.token is None:
            return True
        if self.headers.get(TOKEN_HEADER) == self.token:
            return True
        self._send(
            STATUS_UNAUTHORIZED,
            {
                "error": "missing or invalid fabric token (the "
                "coordinator was started with --token; pass the same "
                "token to repro worker/sweep)"
            },
        )
        return False

    def do_GET(self):  # noqa: N802 - stdlib naming
        if not self._authorized():
            return
        if self.path == "/status":
            self._send(200, self.coordinator.status())
            return
        self._send(404, {"error": f"unknown path {self.path!r}"})

    def _content_length(self) -> int | None:
        """The request body's length, or ``None`` after refusing it.

        A non-integer or negative ``Content-Length`` is answered with 400
        before any body is read (``rfile.read(-1)`` would block until the
        client hangs up), and one over :data:`MAX_BODY_BYTES` with 413
        (reading it would buffer the whole body).  Either way the
        connection is closed: the unread body is still on it.
        """
        header = (self.headers.get("Content-Length") or "0").strip()
        if not (header.isascii() and header.isdigit()):
            code, error = 400, f"invalid Content-Length {header!r}"
        elif int(header) > MAX_BODY_BYTES:
            code, error = 413, f"body exceeds the {MAX_BODY_BYTES}-byte limit"
        else:
            return int(header)
        self.close_connection = True
        self._send(code, {"error": error})
        return None

    def do_POST(self):  # noqa: N802 - stdlib naming
        if not self._authorized():
            return
        length = self._content_length()
        if length is None:
            return
        try:
            message = decode(self.rfile.read(length)) if length else {}
            self._send(200, self._dispatch(message))
        except UnknownLeaseError as error:
            self._send(STATUS_UNKNOWN_LEASE, {"error": str(error)})
        except (ProtocolError, InvalidParameterError) as error:
            self._send(400, {"error": str(error)})
        except Exception as error:  # pragma: no cover - defensive
            self._send(500, {"error": f"{type(error).__name__}: {error}"})

    def _dispatch(self, message: dict) -> dict:
        coordinator = self.coordinator
        if self.path == "/submit":
            tasks = message.get("tasks")
            if not isinstance(tasks, list):
                raise ProtocolError("/submit needs a 'tasks' list")
            return coordinator.submit(tasks)
        if self.path == "/lease":
            return coordinator.lease(str(message.get("worker", "?")))
        if self.path == "/heartbeat":
            return coordinator.heartbeat(str(message.get("lease_id", "")))
        if self.path == "/result":
            return coordinator.submit_result(
                str(message.get("lease_id", "")),
                str(message.get("worker", "?")),
                message.get("report"),
                float(message.get("seconds") or 0.0),
            )
        if self.path == "/snapshot":
            wire = message.get("snapshot")
            if not isinstance(wire, str):
                raise ProtocolError("/snapshot needs a 'snapshot' string")
            return coordinator.store_snapshot(
                str(message.get("lease_id", "")),
                str(message.get("worker", "?")),
                wire,
            )
        if self.path == "/release":
            return coordinator.release(
                str(message.get("lease_id", "")), message.get("error")
            )
        if self.path == "/collect":
            keys = message.get("keys")
            if not isinstance(keys, list):
                raise ProtocolError("/collect needs a 'keys' list")
            return coordinator.collect([str(key) for key in keys])
        if self.path == "/status":
            return coordinator.status()
        if self.path == "/shutdown":
            coordinator.request_shutdown()
            if self.server_ref is not None:
                self.server_ref.stop_soon()
            return {"ok": True}
        raise ProtocolError(f"unknown path {self.path!r}")


class FabricServer:
    """A threaded HTTP server wrapping one :class:`Coordinator`.

    ``port=0`` binds an ephemeral port; read the resolved one from
    ``server.port`` (or the ``listening on`` line ``repro serve``
    prints).  Use :meth:`serve_forever` for the CLI process or
    :meth:`start` for an in-process background server (tests).
    """

    def __init__(
        self,
        coordinator: Coordinator,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
        token: str | None = None,
    ):
        handler = type(
            "_BoundFabricHandler",
            (_FabricHandler,),
            {
                "coordinator": coordinator,
                "server_ref": self,
                "quiet": quiet,
                "token": None if token is None else str(token),
            },
        )
        self.coordinator = coordinator
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self.host, self.port = self.httpd.server_address[:2]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        """The base URL clients and workers should use."""
        return f"http://{self.host}:{self.port}"

    def stop_soon(self, grace: float = 1.0) -> None:
        """Stop the serve loop from a handler thread (non-blocking).

        ``grace`` keeps the socket up briefly after ``/shutdown`` so
        idle workers' next lease polls see ``shutting_down`` and drain
        cleanly instead of burning their transport retries.
        """

        def _stop():
            time.sleep(grace)
            self.httpd.shutdown()

        threading.Thread(target=_stop, daemon=True).start()

    def serve_forever(self) -> None:
        """Block serving requests until ``/shutdown`` (or ``close``)."""
        try:
            self.httpd.serve_forever(poll_interval=0.1)
        finally:
            self.httpd.server_close()

    def start(self) -> "FabricServer":
        """Serve on a daemon thread; returns self (test convenience)."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop the loop and release the socket."""
        self.httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
