"""Distributed sweep fabric: ``repro serve`` + ``repro worker``.

The fabric fans a :class:`~repro.runner.plan.RunPlan` out across
machines with nothing beyond the standard library: a **coordinator**
(:class:`Coordinator` behind :class:`FabricServer`, the ``repro
serve`` process) leases tasks over an HTTP JSON protocol, **workers**
(:class:`Worker`, ``repro worker --remote URL``) pull leases and run
them through the same :func:`~repro.runner.executor.run_task` the
local pool uses, and **clients** (:class:`RemotePool`,
``repro sweep --remote URL``) submit grids and block for the report.

Three properties make it production-shaped:

* **Determinism** — workers execute the exact local code path, results
  round-trip through the strict-JSON wire form, and the client
  reassembles them in task order: a fabric report is byte-identical to
  a local ``--jobs N`` report (modulo provenance fields).
* **Dedup** — the coordinator fronts the on-disk
  :class:`~repro.runner.cache.ResultCache`; identical resolved
  payloads are served from cache without burning CPU, across
  submissions and restarts.
* **Fault tolerance** — leases expire and requeue when workers die,
  completions are idempotent (first write wins under the canonical
  cache key), and the coordinator checkpoints queue state so a killed
  ``repro serve`` resumes.

See ``docs/ARCHITECTURE.md`` for the wire-protocol sketch and
``docs/TUTORIAL.md`` for a runnable localhost walkthrough.
"""

from repro.fabric.client import (
    RemotePool,
    shutdown_coordinator,
)
from repro.fabric.coordinator import Coordinator, FabricServer
from repro.fabric.protocol import (
    WIRE_VERSION,
    FabricUnavailable,
    ProtocolError,
    UnknownLeaseError,
    task_from_wire,
    task_to_wire,
)
from repro.fabric.worker import Worker, default_worker_id

__all__ = [
    "Coordinator",
    "FabricServer",
    "Worker",
    "RemotePool",
    "shutdown_coordinator",
    "default_worker_id",
    "task_to_wire",
    "task_from_wire",
    "ProtocolError",
    "UnknownLeaseError",
    "FabricUnavailable",
    "WIRE_VERSION",
]
