"""The fabric client: a :class:`TaskPool` backed by ``repro serve``.

:class:`RemotePool` is the piece that makes the fabric "just another
pool": :func:`repro.runner.execute` hands it the cache-miss tasks, it
submits them to the coordinator, polls until every canonical key has an
outcome, and returns outcomes **in task order** — so a remote report is
byte-identical to a local one apart from the provenance fields.

``repro sweep --remote URL`` is the CLI spelling; the library form::

    from repro.fabric import RemotePool
    from repro.runner import execute
    report = execute(plan, pool=RemotePool("http://127.0.0.1:8731"))
"""

from __future__ import annotations

import time

from repro.fabric.protocol import (
    FabricUnavailable,
    call_with_retries,
    task_to_wire,
)
from repro.runner.executor import TaskPool, task_outcome


class RemotePool(TaskPool):
    """Execute tasks by leasing them to a fabric coordinator.

    Parameters
    ----------
    url:
        Coordinator base URL (``http://host:port``).
    poll:
        Seconds between ``/collect`` polls while results are pending.
    timeout:
        Overall wall-clock budget for one :meth:`run` call (``None`` =
        wait forever; workers may come and go meanwhile).
    request_timeout, retries, backoff:
        Per-request transport policy
        (:func:`repro.fabric.protocol.call_with_retries`).
    token:
        Shared fabric token when the coordinator requires one
        (``repro serve --token``).
    """

    def __init__(
        self,
        url: str,
        poll: float = 0.25,
        timeout: float | None = None,
        request_timeout: float = 30.0,
        retries: int = 6,
        backoff: float = 0.25,
        sleep=time.sleep,
        token: str | None = None,
    ):
        self.url = str(url).rstrip("/")
        self.poll = float(poll)
        self.timeout = timeout
        self.request_timeout = float(request_timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.sleep = sleep
        self.token = token

    def _call(self, path: str, payload: dict) -> dict:
        return call_with_retries(
            self.url,
            path,
            payload,
            timeout=self.request_timeout,
            retries=self.retries,
            backoff=self.backoff,
            sleep=self.sleep,
            token=self.token,
        )

    def run(self, tasks) -> list[dict]:
        tasks = list(tasks)
        if not tasks:
            return []
        submitted = self._call(
            "/submit", {"tasks": [task_to_wire(task) for task in tasks]}
        )
        keys, cached = submitted["keys"], submitted["cached"]
        by_key: dict[str, dict] = {}
        waiting = set(keys)
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        while waiting:
            collected = self._call("/collect", {"keys": sorted(waiting)})
            for key, outcome in collected["outcomes"].items():
                if outcome is not None:
                    by_key[key] = outcome
                    waiting.discard(key)
            if not waiting:
                break
            if deadline is not None and time.monotonic() > deadline:
                raise FabricUnavailable(
                    f"timed out after {self.timeout:.0f}s with "
                    f"{len(waiting)} task(s) still pending on {self.url} "
                    f"(are any workers connected?)"
                )
            self.sleep(self.poll)
        # A cache-served submission burned no CPU anywhere, so it
        # carries no worker attribution — even if some worker executed
        # the same key for an earlier submission.
        return [
            task_outcome(
                by_key[key]["report"],
                by_key[key]["seconds"],
                source="cache" if was_cached else "executed",
                worker=None if was_cached else by_key[key].get("worker"),
            )
            for key, was_cached in zip(keys, cached)
        ]


def shutdown_coordinator(url: str, **options) -> dict:
    """Ask the coordinator to stop serving (idle workers then drain)."""
    return call_with_retries(url.rstrip("/"), "/shutdown", {}, **options)
