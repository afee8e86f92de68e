"""Deterministic fault injection for crash-safety testing.

Production code marks the places where a crash is interesting with
:func:`crash_point` — after a snapshot is persisted, between a temp
write and its atomic rename, just before a worker submits a result.
Unarmed (no ``REPRO_FAULTS`` in the environment) those calls cost one
dict lookup and do nothing, so the instrumented paths ship as-is.

Arming is env-driven so injected crashes cross ``fork``/``exec``
process boundaries (pool workers inherit the spec) and so CI scenarios
are *reproducible*: a fault fires at the Nth hit of a named point, not
at a random moment.  Hits are counted per process: a forked
:class:`~repro.runner.executor.LocalPool` worker counts its own from
zero, because the pool's initializer resets the counters it copied
from the parent.

``REPRO_FAULTS`` grammar (comma-separated specs)::

    point:hits[:mode]

* ``point`` — the crash-point name (e.g. ``snapshot.post-save``).
* ``hits`` — fire on the Nth time that point is reached (1-based).
* ``mode`` — what firing does:

  - ``exit`` (default) — ``os._exit(86)``: an abrupt death with no
    cleanup handlers, the honest model of a SIGKILL/OOM/power cut;
  - ``kill`` — ``SIGKILL`` to the current process (exit code −9, for
    scenarios asserting on the signal);
  - ``torn`` — before dying, overwrite the crash point's target file
    with a truncated prefix of the data being written, simulating a
    torn non-atomic write that checksum validation must catch.

Known crash points (grep for ``crash_point(`` to audit):

* ``snapshot.mid-write`` — inside :meth:`repro.engine.snapshot
  .SnapshotStore.save`, after the temp file is written but before the
  atomic renames (``torn`` here leaves a corrupt *latest* generation).
* ``snapshot.post-save`` — immediately after a snapshot generation is
  durably in place (the canonical "crashed between checkpoints" spot).
* ``worker.pre-submit`` — in the fabric worker, after the task computed
  its payload but before ``/result`` is posted (the lease expires and
  the task is re-leased with its latest snapshot).
"""

from __future__ import annotations

import os
import signal

#: Environment variable holding the armed fault specs.
FAULTS_ENV = "REPRO_FAULTS"

#: Exit status of an ``exit``-mode injected crash (distinctive, so test
#: harnesses can tell an injected death from a genuine failure).
CRASH_EXIT_CODE = 86

_VALID_MODES = ("exit", "kill", "torn")

#: Per-process hit counters, keyed by crash-point name.
_hits: dict[str, int] = {}

#: Parsed specs cache, invalidated when the env var changes.
_parsed: tuple[str | None, dict[str, "FaultSpec"]] = (None, {})


class FaultSpec:
    """One armed fault: fire ``mode`` at the ``hits``-th visit of ``point``."""

    __slots__ = ("point", "hits", "mode")

    def __init__(self, point: str, hits: int, mode: str = "exit"):
        if not point:
            raise ValueError("fault spec needs a crash-point name")
        if hits < 1:
            raise ValueError(f"fault hits must be >= 1, got {hits}")
        if mode not in _VALID_MODES:
            raise ValueError(
                f"fault mode must be one of {_VALID_MODES}, got {mode!r}")
        self.point = point
        self.hits = hits
        self.mode = mode

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        parts = text.strip().split(":")
        if len(parts) == 2:
            return cls(parts[0], int(parts[1]))
        if len(parts) == 3:
            return cls(parts[0], int(parts[1]), parts[2])
        raise ValueError(
            f"malformed fault spec {text!r}; expected point:hits[:mode]")


def _specs() -> dict[str, FaultSpec]:
    global _parsed
    raw = os.environ.get(FAULTS_ENV)
    if _parsed[0] == raw:
        return _parsed[1]
    specs: dict[str, FaultSpec] = {}
    if raw:
        for chunk in raw.split(","):
            if chunk.strip():
                spec = FaultSpec.parse(chunk)
                specs[spec.point] = spec
    _parsed = (raw, specs)
    return specs


def reset_faults() -> None:
    """Zero the per-process hit counters (test isolation)."""
    _hits.clear()


def crash_point(point: str, path=None, data: bytes | None = None) -> None:
    """Maybe die here: fires when an armed spec's hit count is reached.

    ``path``/``data`` describe the write in flight at this point (used
    by ``torn`` mode to fabricate a half-written file).  Unarmed points
    return immediately.
    """
    specs = _specs()
    if not specs:
        return
    spec = specs.get(point)
    if spec is None:
        return
    count = _hits.get(point, 0) + 1
    _hits[point] = count
    if count != spec.hits:
        return
    if spec.mode == "torn":
        if path is not None and data:
            # A torn write: the destination holds a strict prefix of
            # the intended bytes.  Deliberately non-atomic.
            with open(path, "wb") as handle:
                handle.write(data[:max(1, len(data) // 2)])
                handle.flush()
                os.fsync(handle.fileno())
        os._exit(CRASH_EXIT_CODE)
    if spec.mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    os._exit(CRASH_EXIT_CODE)
