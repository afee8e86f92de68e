"""Engine snapshot/restore: exact mid-trajectory state capture.

Long simulations die — machines reboot, workers are preempted, sweeps
are killed mid-task.  This module is the substrate that makes such
deaths recoverable *without* changing a single byte of the trajectory:

* :class:`SnapshotState` — a versioned capture of everything a backend
  mutates between ``run()`` calls: the exact count (and, where
  applicable, per-agent state) arrays as owned ndarray copies, the RNG
  bitstream position (``bit_generator.state``) and the
  interaction-count cursor (the kernel's peel stamps carry no history).
  Its byte form (format v2, below) is what lands on disk and,
  base64-encoded, on the fabric wire.
* :class:`SnapshotStore` — an on-disk store with atomic
  temp-file + ``os.replace`` writes, a per-document SHA-256 checksum,
  and a two-generation fallback ladder (``latest`` → ``previous`` →
  clean start) so a torn or truncated file is *detected*, never
  silently resumed from.
* :class:`SnapshotChannel` / :func:`use_snapshot_channel` — the ambient
  plumbing that lets the runner hand a persistence channel down to deep
  experiment code without threading a parameter through every layer.
* :func:`run_resumable` — the segmented execution law: the simulation
  is driven in deterministic fixed-size segments with a snapshot saved
  at every segment boundary.  Segment boundaries are the *only* clean
  RNG cut points (inside a ``run()`` call pair blocks and birthday
  batches are partially consumed), so segmentation is applied
  **unconditionally** — with or without a channel attached — which is
  what makes an uninterrupted run and a crashed-and-resumed run
  byte-identical at the same seed.

The byte format (v2)
--------------------

``magic | sha256 | header length | header | frames``: an 8-byte magic
prefix, the SHA-256 of everything after it, the header's byte length as
a little-endian ``uint64``, a JSON header (sorted keys, compact
separators) holding the kind, the version and the payload with every
ndarray replaced by a frame reference (its dtype, stored dtype, shape
and offset), then the arrays' raw little-endian frames in the order the
sorted header lists them.  Python ints in the header stay exact
(PCG64's 128-bit words, cursors up to 2**62).

An integer array whose minimum is non-negative is stored in the
smallest of ``uint8``/``uint16``/``uint32`` that holds its maximum
(``uint8`` for every state array of the paper's workloads) and widened
back to its own dtype on load; every other array is stored as it is.
Narrowing depends only on values, so ``to_bytes(from_bytes(b)) == b``
on every host.  Only v2 is read: any other document, version 1's
checksummed JSON included, is refused as not a snapshot, and
:meth:`SnapshotStore.load` then falls back as it does for a torn file.
v2 documents written while engines held ``int64`` states (and peel
stamps) still restore: the states are range-checked, then narrowed.

The bit-for-bit contract
------------------------

``engine.snapshot()`` is valid between ``run()`` calls.  Restoring the
result into a *freshly constructed* engine with identical constructor
arguments, then issuing any sequence of ``run()`` calls, produces
trajectories, observations, and generator states byte-identical to the
original engine continuing through the same calls.  Restore checks
every array it adopts (shapes, state ranges, counts against states)
before writing any of them, so a refused snapshot leaves the engine
untouched.  The property suite
(``tests/property/test_snapshot_equivalence.py``) pins this down for
all three backends, including weighted and graph-topology schedulers
and kernel-proxy paths.
"""

from __future__ import annotations

import base64
import contextlib
import contextvars
import hashlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.engine.model import count_states
from repro.engine.observe import ObserverSink, as_sink
from repro.utils import check_positive_int
from repro.utils.errors import (
    InvalidParameterError,
    InvariantError,
    ReproError,
)

#: The snapshot byte format written by :meth:`SnapshotState.to_bytes`
#: and the only one :meth:`SnapshotState.from_bytes` reads; it refuses
#: every other version loudly instead of misinterpreting bytes.
SNAPSHOT_VERSION = 2

#: Default number of stop-check periods per resumable segment (the
#: snapshot cadence of :func:`run_resumable`).
SEGMENT_CHECKS = 8

#: Leading bytes of a v2 document.
_MAGIC = b"\x89RSNAP2\n"

#: The header length field (little-endian uint64).
_LENGTH = struct.Struct("<Q")

#: Storage dtypes a non-negative integer array narrows to, narrowest first.
_NARROW = tuple(np.dtype(name) for name in ("<u1", "<u2", "<u4"))


class SnapshotError(ReproError, RuntimeError):
    """A snapshot is missing, torn, version-skewed, or incompatible."""


# ----------------------------------------------------------------------
# Array codec: v2 frames
# ----------------------------------------------------------------------
def _stored_dtype(array: np.ndarray) -> np.dtype:
    """The little-endian dtype ``array`` is stored in (see the module doc)."""
    if array.dtype.kind in "iu" and array.size and array.min() >= 0:
        high = int(array.max())
        for stored in _NARROW:
            if high <= np.iinfo(stored).max:
                return stored
    return array.dtype.newbyteorder("<")


def _pack(value, frames: list):
    """``value`` as strict-JSON header data; arrays go to ``frames``.

    Each array becomes a frame reference: its byte offset into the
    frames (``__frame__``), dtype, stored dtype and shape.  Dicts are
    walked in sorted-key order — the order the sorted header lists them
    in — so frame offsets are canonical.  Integers stay exact Python
    ints.
    """
    if isinstance(value, np.ndarray):
        stored = _stored_dtype(value)
        offset = sum(frame.nbytes for frame in frames)
        frames.append(np.ascontiguousarray(value, dtype=stored))
        return {"__frame__": offset, "dtype": str(value.dtype),
                "stored": stored.name,
                "shape": [int(size) for size in value.shape]}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, dict):
        items = sorted((str(key), item) for key, item in value.items())
        return {key: _pack(item, frames) for key, item in items}
    if isinstance(value, (list, tuple)):
        return [_pack(item, frames) for item in value]
    return value


def _frame_array(reference: dict, frames: memoryview) -> np.ndarray:
    """The owned array a :func:`_pack` frame reference points at."""
    stored = np.dtype(reference["stored"]).newbyteorder("<")
    shape = tuple(reference["shape"])
    raw = np.frombuffer(frames, dtype=stored,
                        count=int(np.prod(shape, dtype=np.int64)),
                        offset=reference["__frame__"])
    return raw.reshape(shape).astype(reference["dtype"])


def _decoded(value, decode):
    """``value`` with every frame reference (a dict holding
    ``__frame__``) replaced by ``decode`` of it."""
    if isinstance(value, dict):
        if "__frame__" in value:
            return decode(value)
        return {key: _decoded(item, decode) for key, item in value.items()}
    if isinstance(value, list):
        return [_decoded(item, decode) for item in value]
    return value


def rng_state(rng: np.random.Generator) -> dict:
    """The generator's exact bitstream position (``bit_generator.state``)."""
    return rng.bit_generator.state


def restore_rng(rng: np.random.Generator, state: dict) -> None:
    """Rewind ``rng`` to a captured bitstream position, in place."""
    name = type(rng.bit_generator).__name__
    found = state.get("bit_generator") if isinstance(state, dict) else None
    if found != name:
        raise SnapshotError(
            f"snapshot holds {found!r} generator state, engine uses "
            f"{name!r}")
    try:
        rng.bit_generator.state = state
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotError(
            f"malformed generator state: {error}") from error


def _snapshot_array(block, name: str, like: np.ndarray) -> np.ndarray:
    """``block[name]``, refused unless it matches the engine's ``like``.

    Restore fetches every array it adopts through this (same dtype, same
    shape) and checks them all before writing any in place.
    """
    found = block.get(name) if isinstance(block, dict) else None
    if not isinstance(found, np.ndarray) or found.dtype != like.dtype \
            or found.shape != like.shape:
        described = (f"{found.dtype}{list(found.shape)}"
                     if isinstance(found, np.ndarray)
                     else type(found).__name__)
        raise SnapshotError(
            f"snapshot array {name!r} is {described}, the restoring "
            f"engine's is {like.dtype}{list(like.shape)}")
    return found


def _snapshot_states(block, name: str, like: np.ndarray) -> np.ndarray:
    """Like :func:`_snapshot_array` for per-agent states, but any integer
    dtype passes (older documents hold ``int64``); :func:`_check_population`
    then bounds the values."""
    found = block.get(name) if isinstance(block, dict) else None
    if isinstance(found, np.ndarray) and found.dtype.kind in "iu" \
            and found.shape == like.shape:
        return found
    return _snapshot_array(block, name, like)


def _check_population(chain: np.ndarray, n: int,
                     states: np.ndarray | None = None) -> None:
    """Refuse counts that cannot describe ``n`` agents (in ``states``).

    ``chain`` must be non-negative and sum to ``n``; ``states``, when
    given, must lie in ``[0, len(chain))`` and histogram to ``chain``.
    """
    if chain.min() < 0 or int(chain.sum()) != n:
        raise SnapshotError(
            f"snapshot counts must be non-negative and sum to n={n}")
    if states is None:
        return
    if states.min() < 0 or states.max() >= chain.size:
        raise SnapshotError(
            f"snapshot states must lie in 0..{chain.size - 1}")
    if not np.array_equal(count_states(states, chain.size), chain):
        raise SnapshotError("snapshot counts disagree with its states")


# ----------------------------------------------------------------------
# The snapshot document
# ----------------------------------------------------------------------
@dataclass
class SnapshotState:
    """A versioned, checksummed capture of one engine's mutable state.

    Attributes
    ----------
    kind:
        The producing backend family (``"agent"`` / ``"count"`` /
        ``"weighted"``); restore refuses a mismatched kind loudly.
    payload:
        The captured state: JSON scalars, lists and dicts plus owned
        ndarray copies (the RNG via :func:`rng_state`, as it is).
    version:
        Snapshot format version (:data:`SNAPSHOT_VERSION`).
    """

    kind: str
    payload: dict
    version: int = SNAPSHOT_VERSION

    @property
    def steps_run(self) -> int:
        """The captured interaction-count cursor."""
        return int(self.payload["steps_run"])

    def to_bytes(self) -> bytes:
        """The canonical v2 document (the on-disk format; see module doc)."""
        frames: list = []
        header = json.dumps(
            _pack({"version": self.version, "kind": self.kind,
                   "payload": self.payload}, frames),
            sort_keys=True, separators=(",", ":")).encode("utf-8")
        parts = [_LENGTH.pack(len(header)), header,
                 *(frame.data for frame in frames)]
        digest = hashlib.sha256()
        for part in parts:
            digest.update(part)
        return b"".join([_MAGIC, digest.digest(), *parts])

    @classmethod
    def from_bytes(cls, data: bytes) -> "SnapshotState":
        """Decode and verify a v2 document; torn/corrupt input raises."""
        if data[:len(_MAGIC)] != _MAGIC:
            raise SnapshotError("not a snapshot document (bad magic prefix)")
        view = memoryview(data)
        start = len(_MAGIC) + hashlib.sha256().digest_size
        if hashlib.sha256(view[start:]).digest() != data[len(_MAGIC):start]:
            raise SnapshotError(
                "snapshot checksum mismatch (torn or corrupted write)")
        try:
            (length,) = _LENGTH.unpack_from(view, start)
            start += _LENGTH.size
            document = json.loads(bytes(view[start:start + length]))
            if document.get("version") != SNAPSHOT_VERSION:
                raise SnapshotError(
                    f"snapshot version {document.get('version')!r} is not "
                    f"supported (expected {SNAPSHOT_VERSION})")
            frames = view[start + length:]
            payload = _decoded(document["payload"],
                               lambda ref: _frame_array(ref, frames))
            return cls(kind=document["kind"], payload=payload)
        except (struct.error, UnicodeDecodeError, json.JSONDecodeError,
                AttributeError, KeyError, TypeError, ValueError) as error:
            raise SnapshotError(
                f"malformed snapshot document: {error}") from error

    def to_wire(self) -> str:
        """Base64 of :meth:`to_bytes`: the fabric ``/snapshot`` wire form."""
        return base64.b64encode(self.to_bytes()).decode("ascii")

    @classmethod
    def from_wire(cls, wire: str) -> "SnapshotState":
        """Inverse of :meth:`to_wire`; a malformed wire string raises."""
        if not isinstance(wire, str):
            raise SnapshotError(
                f"wire snapshots are base64 strings, got "
                f"{type(wire).__name__}")
        try:
            data = base64.b64decode(wire, validate=True)
        except ValueError as error:
            raise SnapshotError(f"malformed wire snapshot: {error}") from error
        return cls.from_bytes(data)


def check_snapshot(snapshot: SnapshotState, kind: str, **expected) -> dict:
    """Validate a snapshot against the restoring engine's invariants.

    Checks the backend ``kind`` plus any ``name=value`` structural
    expectations recorded in the payload (``n``, ``n_states``, ...).
    Returns the payload for convenience.  Everything fails loudly — a
    snapshot restored into the wrong engine must never run.
    """
    if not isinstance(snapshot, SnapshotState):
        raise SnapshotError(
            f"expected a SnapshotState, got {type(snapshot).__name__}")
    if snapshot.kind != kind:
        raise SnapshotError(
            f"snapshot was taken by the {snapshot.kind!r} backend and "
            f"cannot restore into the {kind!r} backend")
    payload = snapshot.payload
    for name, value in expected.items():
        found = payload.get(name)
        if found != value:
            raise SnapshotError(
                f"snapshot {name}={found!r} does not match the restoring "
                f"engine's {name}={value!r} (restore requires an engine "
                f"constructed with identical arguments)")
    return payload


# ----------------------------------------------------------------------
# On-disk store: atomic writes, checksums, two-generation fallback
# ----------------------------------------------------------------------
class SnapshotStore:
    """Checksummed snapshot files keyed alongside canonical cache keys.

    Layout: ``<root>/<key>.snap`` is the latest generation and
    ``<root>/<key>.snap.prev`` the one before it.  ``save`` writes a
    temp file in the same directory, rotates latest → previous, then
    ``os.replace``s the temp into place — both renames are atomic, so a
    crash at any instant leaves at least one intact generation.
    ``load`` walks the fallback ladder latest → previous → ``None``
    (clean start), discarding any generation whose checksum fails.
    """

    def __init__(self, root):
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        if not key or any(sep in key for sep in ("/", "\\", "..")):
            raise SnapshotError(f"invalid snapshot key {key!r}")
        return self.root / f"{key}.snap"

    def save(self, key: str, snapshot: SnapshotState) -> Path:
        """Persist ``snapshot`` atomically as the latest generation."""
        from repro.testing import faults

        path = self._path(key)
        self.root.mkdir(parents=True, exist_ok=True)
        data = snapshot.to_bytes()
        descriptor, temp_name = tempfile.mkstemp(
            dir=self.root, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            faults.crash_point("snapshot.mid-write", path=path, data=data)
            if path.exists():
                os.replace(path, self._previous(path))
            os.replace(temp_name, path)
        finally:
            with contextlib.suppress(OSError):
                os.unlink(temp_name)
        faults.crash_point("snapshot.post-save", path=path)
        return path

    @staticmethod
    def _previous(path: Path) -> Path:
        return path.with_suffix(path.suffix + ".prev")

    def load(self, key: str) -> SnapshotState | None:
        """Latest intact snapshot for ``key`` via the fallback ladder."""
        path = self._path(key)
        for candidate in (path, self._previous(path)):
            try:
                data = candidate.read_bytes()
            except OSError:
                continue
            try:
                return SnapshotState.from_bytes(data)
            except SnapshotError:
                continue  # torn generation: fall down the ladder
        return None

    def clear(self, key: str) -> None:
        """Drop every generation for ``key`` (task completed)."""
        path = self._path(key)
        for candidate in (path, self._previous(path)):
            with contextlib.suppress(OSError):
                os.unlink(candidate)


# ----------------------------------------------------------------------
# Persistence channels and the ambient binding
# ----------------------------------------------------------------------
class SnapshotChannel:
    """Where one task's snapshots go and come from.

    The runner binds a concrete channel (file-backed locally, HTTP to
    the fabric coordinator on workers) around task execution;
    :func:`run_resumable` only sees this three-method surface.
    """

    def load(self) -> SnapshotState | None:
        """The latest intact snapshot for this task, or ``None``."""
        raise NotImplementedError

    def save(self, snapshot: SnapshotState) -> None:
        """Persist a new latest generation."""
        raise NotImplementedError

    def clear(self) -> None:
        """Discard the task's snapshots (called on task completion)."""
        raise NotImplementedError

    def __str__(self) -> str:
        """Where the snapshots live, for messages that ask to remove them."""
        return f"the {type(self).__name__}'s snapshots"


class FileSnapshotChannel(SnapshotChannel):
    """A :class:`SnapshotStore` scoped to one task's canonical key."""

    def __init__(self, store: SnapshotStore, key: str):
        self.store = store
        self.key = key

    def __str__(self) -> str:
        return str(self.store.root)

    def load(self) -> SnapshotState | None:
        return self.store.load(self.key)

    def save(self, snapshot: SnapshotState) -> None:
        self.store.save(self.key, snapshot)

    def clear(self) -> None:
        self.store.clear(self.key)


_CHANNEL: contextvars.ContextVar[SnapshotChannel | None] = \
    contextvars.ContextVar("repro_snapshot_channel", default=None)


def current_channel() -> SnapshotChannel | None:
    """The ambient snapshot channel bound by the runner, if any."""
    return _CHANNEL.get()


@contextlib.contextmanager
def use_snapshot_channel(channel: SnapshotChannel | None):
    """Bind ``channel`` as the ambient snapshot channel for a scope."""
    token = _CHANNEL.set(channel)
    try:
        yield channel
    finally:
        _CHANNEL.reset(token)


class ScopedSnapshotChannel(SnapshotChannel):
    """One named sub-run's view of a task-level channel.

    A task (one cache-key's worth of work) may drive *several*
    simulations in sequence — e.g. a relaxation-time experiment
    sweeping population sizes.  Each sub-run wraps the task channel
    with its own scope name: saves tag the payload, and a load only
    answers when the stored tag matches, so sub-run A can never resume
    from sub-run B's checkpoint (the engines would refuse anyway when
    shapes differ, but equal-shape sub-runs must be kept apart too).
    """

    def __init__(self, inner: SnapshotChannel, scope: str):
        self.inner = inner
        self.scope = str(scope)

    def load(self) -> SnapshotState | None:
        found = self.inner.load()
        if found is None or found.payload.get("scope") != self.scope:
            return None
        return found

    def save(self, snapshot: SnapshotState) -> None:
        self.inner.save(SnapshotState(
            kind=snapshot.kind,
            payload={**snapshot.payload, "scope": self.scope},
            version=snapshot.version))

    def clear(self) -> None:
        self.inner.clear()

    def __str__(self) -> str:
        return str(self.inner)


def scoped_channel(scope: str,
                   channel: SnapshotChannel | None = None
                   ) -> SnapshotChannel | None:
    """Scope the given (or ambient) channel to a named sub-run.

    Returns ``None`` when no channel is in scope — callers pass the
    result straight to :func:`run_resumable`.
    """
    if channel is None:
        channel = current_channel()
    if channel is None:
        return None
    return ScopedSnapshotChannel(channel, scope)


# ----------------------------------------------------------------------
# The segmented (resumable) execution law
# ----------------------------------------------------------------------
class _SegmentStreamSink(ObserverSink):
    """Present one continuous observation stream across segments.

    Each ``run_until`` segment re-emits its entry state and counts its
    observation cadence from its own first step; stitched naively that
    would duplicate every segment boundary.  This wrapper keeps only
    the steps on the run-global cadence grid (anchored at the run's
    start step) and drops boundary re-emits, so the inner sink sees
    exactly the rows one unsegmented run would have produced.  Its
    ``position()`` token — the inner sink's position plus the filter
    state — rides inside the segment snapshots, which is what lets a
    resumed run truncate-then-continue a JSONL stream byte-identically.
    """

    def __init__(self, inner: ObserverSink, every: int, start: int):
        self._inner = inner
        self.wants_states = inner.wants_states
        self._every = int(every)
        self._start = int(start)
        self._last: int | None = None

    def emit(self, step, counts, states=None) -> None:
        step = int(step)
        if step == self._last or (step - self._start) % self._every:
            return
        self._last = step
        self._inner.emit(step, counts, states)

    def flush(self) -> None:
        self._inner.flush()

    def position(self):
        return {"inner": self._inner.position(), "last": self._last,
                "start": self._start}

    def seek(self, position) -> None:
        if position is None:
            self._last = None
            self._inner.seek(None)
            return
        self._last = position["last"]
        self._start = int(position["start"])
        self._inner.seek(position["inner"])

    @property
    def records(self) -> list:
        return self._inner.records


def _check_boundary(simulation) -> None:
    """Refuse live counts that cannot describe the simulation's agents."""
    counts = simulation.counts_live
    if counts.min() < 0 or int(counts.sum()) != simulation.n:
        raise InvariantError(
            f"segment boundary at step {int(simulation.steps_run)}: live "
            f"counts {counts.tolist()} are not non-negative counts of "
            f"n={simulation.n} agents")


def run_resumable(simulation, max_steps: int, stop_when, *,
                  check_stop_every: int, segment_steps: int | None = None,
                  channel: SnapshotChannel | None = None,
                  observe_every: int | None = None, observe=None) -> bool:
    """Drive ``simulation.run_until`` in deterministic resumable segments.

    The simulation must expose ``n``, ``counts_live``, ``steps_run``,
    ``run_until(max_steps, stop_when, check_stop_every=...)``,
    ``snapshot()`` and ``restore()`` (the
    :class:`~repro.core.population_igt.IGTSimulation` facade
    qualifies).  Execution is split into segments of ``segment_steps``
    interactions (default :data:`SEGMENT_CHECKS` stop-check periods);
    after every completed segment the current snapshot is saved to
    ``channel`` (or the ambient channel).  On entry, an existing
    channel snapshot is restored and the already-executed segments are
    skipped.

    Segmentation is applied whether or not a channel is bound — the
    segment boundaries are part of the execution law, so an
    uninterrupted run, a snapshotting run, and a crashed-and-resumed
    run all consume the generator identically and produce byte-equal
    trajectories.  Saving a snapshot is read-only with respect to the
    simulation state.

    ``observe_every``/``observe`` stream observations across the whole
    segmented run as if it were one call (the simulation's
    ``run_until`` must accept them): segment-boundary duplicates are
    filtered, the sink's resume token is carried inside every snapshot,
    and a resumed :class:`~repro.engine.observe.JsonlSink` truncates
    back to the last durable snapshot position and continues — so the
    streamed file is byte-identical to an uninterrupted run's.
    Segments are rounded up to a multiple of the observation cadence to
    keep boundaries on the cadence grid.  An empty budget still emits
    the start observation, as a plain ``run`` does.

    A restored checkpoint must sit on this run's segment grid: a whole
    number of segments past the start step and before the end of the
    budget.  One written under another cadence or step budget cannot
    resume byte-identically, so it is refused with
    :class:`~repro.utils.errors.InvalidParameterError` before any
    segment runs or the stream is touched.

    Every segment boundary checks, in O(S), that the simulation's live
    counts (``counts_live``) are non-negative and sum to its ``n``, and
    raises :class:`~repro.utils.errors.InvariantError` naming the step
    otherwise — before a corrupt state can be checkpointed.
    """
    if observe_every is not None:
        observe_every = check_positive_int("observe_every", observe_every)
    if channel is None:
        channel = current_channel()
    if observe is not None and observe_every is None:
        raise InvalidParameterError(
            "observe= needs observe_every — the observation cadence")
    if segment_steps is None:
        segment_steps = SEGMENT_CHECKS * int(check_stop_every)
    segment_steps = max(1, int(segment_steps))
    start = int(simulation.steps_run)
    stream = None
    if observe_every is not None:
        segment_steps = -(-segment_steps // observe_every) * observe_every
        stream = _SegmentStreamSink(as_sink(observe), observe_every, start)
    target = start + int(max_steps)
    if channel is not None:
        found = channel.load()
        if found is not None:
            simulation.restore(found)
            offset = int(simulation.steps_run) - start
            if offset % segment_steps or not 0 <= offset < target - start:
                raise InvalidParameterError(
                    f"cannot resume the checkpoint at step "
                    f"{int(simulation.steps_run)}: it is not a boundary of "
                    f"this run's {segment_steps}-interaction segments from "
                    f"step {start} to step {target}, so it was written "
                    f"with another cadence or step budget and would not "
                    f"reproduce this run; remove {channel} to start over")
            if stream is not None:
                stream.seek(found.payload.get("sink"))
    if stream is not None and simulation.steps_run == target:
        # An empty budget still observes its start state.
        simulation.run_until(0, None, check_stop_every=check_stop_every,
                             observe_every=observe_every, observe=stream)
    converged = False
    while simulation.steps_run < target and not converged:
        budget = min(segment_steps, target - int(simulation.steps_run))
        if stream is None:
            converged = simulation.run_until(
                budget, stop_when, check_stop_every=check_stop_every)
        else:
            converged = simulation.run_until(
                budget, stop_when, check_stop_every=check_stop_every,
                observe_every=observe_every, observe=stream)
        _check_boundary(simulation)
        if (channel is not None and not converged
                and simulation.steps_run < target):
            snap = simulation.snapshot()
            if stream is not None:
                snap = SnapshotState(
                    kind=snap.kind,
                    payload={**snap.payload, "sink": stream.position()},
                    version=snap.version)
            channel.save(snap)
    if stream is not None:
        stream.flush()
    return bool(converged)


@dataclass
class RecordingChannel(SnapshotChannel):
    """An in-memory channel (tests and the property suite)."""

    snapshots: list = field(default_factory=list)
    initial: SnapshotState | None = None
    cleared: int = 0

    def load(self) -> SnapshotState | None:
        return self.initial

    def save(self, snapshot: SnapshotState) -> None:
        self.snapshots.append(snapshot)

    def clear(self) -> None:
        self.cleared += 1
