"""Streaming observation sinks — the engine's pluggable observer layer.

Every backend used to accumulate observations as an in-RAM Python list
of ``(step, counts)`` tuples, which caps observed trajectories by
memory and loses every checkpoint on a crash.  This module makes the
observation path a first-class, pluggable layer:

- :class:`ObserverSink` — the protocol: ``emit(step, counts, states)``,
  ``flush()``, ``position()`` / ``seek()`` for crash-safe resume.
- :class:`MemorySink` — the compatibility default; its ``records`` list
  is byte-identical to the pre-sink ``observations`` output.
- :class:`JsonlSink` — strict-JSON append-only streaming with fsync'd
  batches: constant memory at any trajectory length, and a
  truncate-then-continue ``seek()`` so a resumed run reproduces the
  uninterrupted file byte for byte.
- :class:`Reducer` sinks — online reductions (running mean, extinction
  times, per-class profiles) that retain no series at all.

Emit contract: the ``counts`` (and optional per-agent ``states``)
arguments are only valid *during* the call — backends pass their live
working arrays, and a sink that retains data must copy.  That is what
keeps the hot loop allocation-free for reducing sinks.

``sink_from_spec`` resolves the user-facing spec strings (``memory``,
``jsonl:PATH``, ``mean``, ``extinction``, ``degree-profile``) used by
the facades and the CLI ``--observe`` flag.
"""

from __future__ import annotations

import contextlib
import json
import os
from contextvars import ContextVar

import numpy as np

from repro.utils.errors import InvalidParameterError

__all__ = [
    "ObserverSink",
    "MemorySink",
    "JsonlSink",
    "Reducer",
    "MeanReducer",
    "ExtinctionTimeReducer",
    "DegreeProfileReducer",
    "as_sink",
    "sink_from_spec",
    "series_sink",
    "use_series_scope",
    "series_paths_for",
    "SERIES_DIR_ENV",
]


class ObserverSink:
    """Receives one ``(step, counts[, states])`` record per checkpoint.

    Subclasses override :meth:`emit`; the arrays passed in are the
    backend's live working buffers, valid only for the duration of the
    call — copy to retain.  ``wants_states`` sinks additionally receive
    the per-agent state vector, which only the agent backend tracks.

    ``position()`` returns a small JSON-safe resume token (or ``None``
    when the sink cannot resume); ``seek(token)`` — called before the
    first emit — rewinds the sink to that position so a resumed run
    continues the stream without duplicating rows.
    """

    #: Set by sinks that need the per-agent state vector (agent backend
    #: only); backends refuse loudly when they cannot provide it.
    wants_states = False

    def emit(self, step, counts, states=None) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Make everything emitted so far durable (no-op by default)."""

    def position(self):
        """JSON-safe resume token, or ``None`` if resume is unsupported."""
        return None

    def seek(self, position) -> None:
        """Rewind to ``position`` (from :meth:`position`) before emitting.

        ``None`` means the very start of the stream.  The base sink is
        stateless between runs, so only ``None`` is accepted.
        """
        if position is not None:
            raise InvalidParameterError(
                f"{type(self).__name__} does not support resuming from a "
                "saved position")

    def _check_position(self, position, *keys) -> None:
        """Refuse a resume token unless it holds exactly ``keys``, the
        ones this sink's :meth:`position` writes; checked before
        :meth:`seek` changes any state or file."""
        if isinstance(position, dict) and set(position) == set(keys):
            return
        held = (sorted(map(str, position)) if isinstance(position, dict)
                else type(position).__name__)
        raise InvalidParameterError(
            f"{type(self).__name__} cannot resume from the saved position "
            f"{held}: it resumes only from {sorted(keys)}, so another kind "
            f"of sink wrote it")

    def close(self) -> None:
        self.flush()

    @property
    def records(self) -> list:
        """The in-memory series, if this sink retains one (else ``[]``).

        ``EngineResult.observations`` is populated from this, so
        streaming/reducing sinks yield an empty list there — their
        output lives in the stream file or the reduction summary.
        """
        return []


class MemorySink(ObserverSink):
    """In-RAM series — byte-identical to the historical behaviour.

    Records are ``(step, counts)`` tuples with ``counts`` an owned
    ``int64`` array, exactly what every backend used to append.
    """

    def __init__(self) -> None:
        self._records: list[tuple[int, np.ndarray]] = []

    def emit(self, step, counts, states=None) -> None:
        self._records.append((step, np.array(counts, dtype=np.int64)))

    def position(self):
        return {"records": len(self._records)}

    def seek(self, position) -> None:
        if position is None:
            del self._records[:]
            return
        self._check_position(position, "records")
        keep = int(position["records"])
        if keep > len(self._records):
            raise InvalidParameterError(
                f"cannot seek MemorySink to record {keep}: only "
                f"{len(self._records)} records retained")
        del self._records[keep:]

    @property
    def records(self) -> list:
        return self._records


def encode_record(step, counts) -> bytes:
    """The canonical JSONL line for one checkpoint (strict JSON)."""
    payload = ('{"step":' + str(int(step)) + ',"counts":['
               + ",".join(str(int(value)) for value in counts) + "]}\n")
    return payload.encode("ascii")


def decode_record(line) -> tuple[int, np.ndarray]:
    """Inverse of :func:`encode_record` (accepts ``str`` or ``bytes``)."""
    payload = json.loads(line)
    return (int(payload["step"]),
            np.asarray(payload["counts"], dtype=np.int64))


#: Records a :class:`JsonlSink` buffers before one write + fsync.
_JSONL_BATCH = 256


class JsonlSink(ObserverSink):
    """Append-only JSONL stream: one ``{"step":…,"counts":[…]}`` line
    per checkpoint, written in fsync'd batches of :data:`_JSONL_BATCH`.

    Memory is bounded by the batch size regardless of trajectory
    length.  A fresh sink truncates any leftover file on first write;
    a resumed sink is ``seek()``-ed to a saved ``position()`` token
    first, which truncates the file back to that durable prefix and
    continues — the crash-equals-uninterrupted law for streams.
    """

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        self._buffer: list[bytes] = []
        self._records = 0
        self._bytes = 0
        self._file = None
        self._sought = False

    def _open(self, truncate_to: int | None) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._file = open(self.path, "a+b")
        if truncate_to is not None:
            self._file.truncate(truncate_to)
            self._file.flush()
            os.fsync(self._file.fileno())

    def emit(self, step, counts, states=None) -> None:
        self._buffer.append(encode_record(step, counts))
        if len(self._buffer) >= _JSONL_BATCH:
            self._write()

    def _write(self) -> None:
        if self._file is None:
            # First write of a fresh (un-sought) stream: wipe any
            # leftover file from a previous attempt.
            self._open(truncate_to=0)
        if not self._buffer:
            return
        data = b"".join(self._buffer)
        self._file.write(data)
        self._file.flush()
        os.fsync(self._file.fileno())
        self._bytes += len(data)
        self._records += len(self._buffer)
        del self._buffer[:]

    def flush(self) -> None:
        self._write()

    def position(self):
        """Durable position: flushes, then reports records/bytes."""
        self._write()
        return {"records": self._records, "bytes": self._bytes}

    def seek(self, position) -> None:
        if self._file is not None or self._buffer or self._sought:
            raise InvalidParameterError(
                "JsonlSink.seek() must be called before the first emit")
        if position is not None:
            self._check_position(position, "records", "bytes")
        self._sought = True
        if position is None:
            self._open(truncate_to=0)
            return
        records = int(position["records"])
        nbytes = int(position["bytes"])
        existing = (os.path.getsize(self.path)
                    if os.path.exists(self.path) else 0)
        if existing < nbytes:
            raise InvalidParameterError(
                f"cannot resume stream {self.path!r}: the file holds "
                f"{existing} bytes but the checkpoint expects at least "
                f"{nbytes} — the stream and the snapshot are out of sync")
        self._open(truncate_to=nbytes)
        self._records = records
        self._bytes = nbytes

    def close(self) -> None:
        self._write()
        if self._file is not None:
            self._file.close()
            self._file = None


class Reducer(ObserverSink):
    """Base class for online reductions: no series retained, a small
    JSON-safe :meth:`summary` at the end."""

    def summary(self) -> dict:
        raise NotImplementedError


class MeanReducer(Reducer):
    """Running per-state mean of the observed count vectors."""

    def __init__(self) -> None:
        self._sum: np.ndarray | None = None
        self._count = 0

    def emit(self, step, counts, states=None) -> None:
        values = np.asarray(counts, dtype=np.float64)
        if self._sum is None:
            self._sum = np.zeros_like(values)
        self._sum += values
        self._count += 1

    def position(self):
        return {"count": self._count,
                "sum": None if self._sum is None else self._sum.tolist()}

    def seek(self, position) -> None:
        if position is None:
            self._sum = None
            self._count = 0
            return
        self._check_position(position, "count", "sum")
        self._count = int(position["count"])
        total = position["sum"]
        self._sum = (None if total is None
                     else np.asarray(total, dtype=np.float64))

    def summary(self) -> dict:
        mean = (None if self._sum is None or self._count == 0
                else (self._sum / self._count).tolist())
        return {"kind": "mean", "observations": self._count, "mean": mean}


class ExtinctionTimeReducer(Reducer):
    """First observed step at which each state's count hits zero
    (``None`` for states never observed extinct)."""

    def __init__(self) -> None:
        self._first_zero: list[int | None] | None = None

    def emit(self, step, counts, states=None) -> None:
        values = np.asarray(counts)
        if self._first_zero is None:
            self._first_zero = [None] * values.shape[0]
        for state in np.flatnonzero(values == 0):
            if self._first_zero[state] is None:
                self._first_zero[state] = int(step)

    def position(self):
        return {"first_zero": self._first_zero}

    def seek(self, position) -> None:
        if position is None:
            self._first_zero = None
            return
        self._check_position(position, "first_zero")
        saved = position["first_zero"]
        self._first_zero = None if saved is None else list(saved)

    def summary(self) -> dict:
        return {"kind": "extinction", "first_zero": self._first_zero}


class DegreeProfileReducer(Reducer):
    """Per-class running mean of a per-state value over the agents of
    each class — e.g. mean generosity by vertex degree.

    ``class_of`` labels each agent (any integer labels, e.g. vertex
    degrees); ``state_values`` maps each engine state to the value
    being profiled, with ``NaN`` excluding that state (AC/AD agents in
    a generosity profile).  Requires per-agent states, so only the
    agent backend can drive it.
    """

    wants_states = True

    def __init__(self, class_of, state_values) -> None:
        class_of = np.asarray(class_of, dtype=np.int64)
        if class_of.ndim != 1 or class_of.size == 0:
            raise InvalidParameterError(
                "class_of must be a non-empty 1-d array of per-agent "
                "class labels")
        self.classes = np.unique(class_of)
        self._agent_class = np.searchsorted(self.classes, class_of)
        self.state_values = np.asarray(state_values, dtype=np.float64)
        size = self.classes.shape[0]
        self._value_sums = np.zeros(size, dtype=np.float64)
        self._member_counts = np.zeros(size, dtype=np.float64)
        self._observations = 0

    def emit(self, step, counts, states=None) -> None:
        if states is None:
            raise InvalidParameterError(
                "DegreeProfileReducer needs per-agent states; only the "
                "agent backend tracks them")
        values = self.state_values[np.asarray(states)]
        mask = ~np.isnan(values)
        size = self.classes.shape[0]
        self._value_sums += np.bincount(
            self._agent_class[mask], weights=values[mask], minlength=size)
        self._member_counts += np.bincount(
            self._agent_class[mask], minlength=size)
        self._observations += 1

    def position(self):
        return {"observations": self._observations,
                "value_sums": self._value_sums.tolist(),
                "member_counts": self._member_counts.tolist()}

    def seek(self, position) -> None:
        if position is None:
            self._value_sums[:] = 0.0
            self._member_counts[:] = 0.0
            self._observations = 0
            return
        self._check_position(position, "observations", "value_sums",
                             "member_counts")
        self._observations = int(position["observations"])
        self._value_sums = np.asarray(position["value_sums"],
                                      dtype=np.float64)
        self._member_counts = np.asarray(position["member_counts"],
                                         dtype=np.float64)

    def profile(self) -> tuple[np.ndarray, np.ndarray]:
        """``(classes, per-class mean value)`` over all observations."""
        with np.errstate(invalid="ignore"):
            means = self._value_sums / self._member_counts
        return self.classes.copy(), means

    def summary(self) -> dict:
        classes, means = self.profile()
        return {"kind": "degree-profile",
                "observations": self._observations,
                "classes": classes.tolist(),
                "profile": [None if np.isnan(value) else float(value)
                            for value in means]}


#: The spec strings accepted by ``--observe`` / ``observe=``.
SINK_SPECS = ("memory", "jsonl:PATH", "mean", "extinction",
              "degree-profile")


def sink_from_spec(spec: str) -> ObserverSink:
    """Build a sink from a user-facing spec string.

    ``degree-profile`` is refused: it needs per-agent class labels and
    per-state values that only the caller has, so ``repro simulate``
    builds its :class:`DegreeProfileReducer` itself.
    """
    if spec == "memory":
        return MemorySink()
    if spec.startswith("jsonl:"):
        path = spec[len("jsonl:"):]
        if not path:
            raise InvalidParameterError(
                "observe spec 'jsonl:' needs a path, e.g. "
                "'jsonl:series.jsonl'")
        return JsonlSink(path)
    if spec == "mean":
        return MeanReducer()
    if spec == "extinction":
        return ExtinctionTimeReducer()
    if spec == "degree-profile":
        raise InvalidParameterError(
            "observe spec 'degree-profile' needs per-agent classes "
            "and per-state values — it is only available where a "
            "topology provides them (e.g. repro simulate --topology "
            "... --observe degree-profile)")
    raise InvalidParameterError(
        f"unknown observe spec {spec!r}; expected one of "
        f"{', '.join(SINK_SPECS)}")


def as_sink(observe) -> ObserverSink:
    """Resolve the ``observe=`` argument: ``None`` → MemorySink,
    spec strings via :func:`sink_from_spec`, sinks pass through."""
    if observe is None:
        return MemorySink()
    if isinstance(observe, str):
        return sink_from_spec(observe)
    if isinstance(observe, ObserverSink):
        return observe
    raise InvalidParameterError(
        f"observe must be None, a spec string, or an ObserverSink; "
        f"got {type(observe).__name__}")


# ----------------------------------------------------------------------
# Ambient per-task series streams
# ----------------------------------------------------------------------
#
# ``repro sweep --series DIR`` exports this env var; the executor binds
# a (directory, task-key) scope around each task, and experiments that
# produce long trajectories ask ``series_sink("name")`` for a stream.
# Outside a sweep the answer is ``None`` and the experiment skips
# streaming — no plumbing through every call signature.

SERIES_DIR_ENV = "REPRO_SERIES_DIR"

_SERIES_SCOPE: ContextVar[tuple[str, str] | None] = ContextVar(
    "repro_series_scope", default=None)


@contextlib.contextmanager
def use_series_scope(root, key: str):
    """Bind the ambient series directory + task key for this task."""
    token = _SERIES_SCOPE.set((os.fspath(root), str(key)))
    try:
        yield
    finally:
        _SERIES_SCOPE.reset(token)


def series_path(root, key: str, name: str) -> str:
    """Deterministic stream path for one named series of one task."""
    safe = "".join(ch if (ch.isalnum() or ch in "-_.") else "-"
                   for ch in name)
    return os.path.join(os.fspath(root), f"{key}--{safe}.jsonl")


def series_sink(name: str) -> JsonlSink | None:
    """A JSONL stream for the named series of the ambient task, or
    ``None`` when no series scope is bound (plain local runs)."""
    scope = _SERIES_SCOPE.get()
    if scope is None:
        return None
    root, key = scope
    return JsonlSink(series_path(root, key, name))


def series_paths_for(root, key: str) -> list[str]:
    """Streamed series files the task ``key`` produced under ``root``
    (repo-portable relative order: sorted by filename)."""
    root = os.fspath(root)
    if not os.path.isdir(root):
        return []
    prefix = f"{key}--"
    return sorted(
        os.path.join(root, entry) for entry in os.listdir(root)
        if entry.startswith(prefix) and entry.endswith(".jsonl"))
