"""In-memory span recorder, layer wrappers, and the self-time summarizer.

The benchmark traces the program from outside: :func:`install` replaces
the public entry points of each layer (CLI, facade, engine, snapshot,
observe, runner, fabric) with thin wrappers that record one span per
call.  Spans stay in memory as tuples and are written as JSON Lines
once, when the traced process ends (:meth:`Recorder.dump`).

A span is ``(id, parent, name, start, end, attrs)``; ``parent`` is the
id of the span that was open on the same thread when this one started.
A span's *self time* is its duration minus the part of its interval
that its child spans cover (children may nest or overlap, e.g. calls
made from a heartbeat thread); :func:`self_times` computes it.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict


class Recorder:
    """Collects spans for one traced process."""

    def __init__(self, workload: str = "", run_id: str = ""):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.installed: list[str] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def open(self, name: str) -> list:
        """Start a span on this thread; returns the mutable open record."""
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        record = [self._new_id(), parent, name, time.perf_counter(), None, {}]
        stack.append(record)
        return record

    def close(self, record: list) -> None:
        record[4] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        elif record in stack:
            stack.remove(record)
        with self._lock:
            self.spans.append(tuple(record))

    def current(self) -> list | None:
        """The innermost open span of this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, name: str, start: float, end: float, parent=None,
            **attrs) -> int:
        """Record a finished span measured by the caller; returns its id."""
        span_id = self._new_id()
        with self._lock:
            self.spans.append((span_id, parent, name, start, end, attrs))
        return span_id

    def adopt(self, span_id: int, parent, start: float, end: float) -> None:
        """Make the recorded siblings of span ``span_id`` (children of
        ``parent``) that lie within ``[start, end]`` its children, so a
        span recorded off the stack still partitions its interval."""
        with self._lock:
            self.spans = [
                (sid, span_id, name, a, b, attrs)
                if sid != span_id and pid == parent and start <= a
                and b <= end else (sid, pid, name, a, b, attrs)
                for sid, pid, name, a, b, attrs in self.spans]

    def dump(self, path) -> None:
        """Write every span as one JSON line (plus a header line)."""
        pid = os.getpid()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "header": True, "workload": self.workload,
                "run_id": self.run_id, "pid": pid,
                "installed": self.installed, "missing": self.missing,
            }) + "\n")
            for span_id, parent, name, start, end, attrs in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "workload": self.workload,
                    "run_id": self.run_id, "pid": pid, "attrs": attrs,
                }) + "\n")


def load_spans(path) -> tuple[dict, list[dict]]:
    """``(header, spans)`` from a file written by :meth:`Recorder.dump`."""
    header, spans = {}, []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("header"):
                header = record
            else:
                spans.append(record)
    return header, spans


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(start, a), min(end, b)) for a, b in intervals
                     if min(end, b) > max(start, a))
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: list[dict]) -> dict:
    """``span id -> self time`` (duration minus child-covered time).

    Spans are keyed by ``(pid, id)`` so files of several processes can
    be combined.
    """
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[(span.get("pid"), span["parent"])].append(
                (span["start"], span["end"]))
    result = {}
    for span in spans:
        key = (span.get("pid"), span["id"])
        duration = span["end"] - span["start"]
        result[key] = duration - covered(span["start"], span["end"],
                                         children.get(key, ()))
    return result


def top_self_table(spans: list[dict], limit: int = 12) -> list[tuple]:
    """``[(name, calls, self seconds, inclusive seconds)]`` by self time."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    own = defaultdict(float)
    inclusive = defaultdict(float)
    for span in spans:
        name = span["name"]
        calls[name] += 1
        own[name] += selfs[(span.get("pid"), span["id"])]
        inclusive[name] += span["end"] - span["start"]
    rows = sorted(own, key=own.get, reverse=True)[:limit]
    return [(name, calls[name], own[name], inclusive[name]) for name in rows]


def outermost(spans: list[dict], name: str) -> list[dict]:
    """Spans called ``name`` with no ancestor of the same name (so a
    facade call wrapping a backend call of one layer counts once)."""
    by_key = {(span.get("pid"), span["id"]): span for span in spans}
    found = []
    for span in spans:
        if span["name"] != name:
            continue
        parent = span["parent"]
        nested = False
        while parent is not None:
            ancestor = by_key.get((span.get("pid"), parent))
            if ancestor is None:
                break
            if ancestor["name"] == name:
                nested = True
                break
            parent = ancestor["parent"]
        if not nested:
            found.append(span)
    return found


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap_callable(recorder: Recorder, function, name: str, after=None):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        record = recorder.open(name)
        try:
            result = function(*args, **kwargs)
            if after is not None:
                after(record[5], args, result)
            return result
        finally:
            recorder.close(record)

    return traced


def wrap_attr(recorder: Recorder, owner, attr: str, name: str,
              after=None) -> bool:
    """Replace ``owner.attr`` by a span-recording wrapper.

    Only attributes defined on ``owner`` itself are wrapped (so a base
    class method is not wrapped twice through a subclass).  Returns
    whether the target existed.
    """
    label = f"{getattr(owner, '__name__', owner)}.{attr}"
    original = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if original is None:
        recorder.missing.append(label)
        return False
    setattr(owner, attr, _wrap_callable(recorder, original, name, after))
    recorder.installed.append(label)
    return True


def _engine_run(recorder: Recorder, owner) -> None:
    """Wrap ``owner.run``, recording interactions from ``steps_run``."""
    original = owner.__dict__.get("run")
    label = f"{owner.__name__}.run"
    if original is None:
        recorder.missing.append(label)
        return

    @functools.wraps(original)
    def traced(self, *args, **kwargs):
        before = int(getattr(self, "steps_run", 0))
        record = recorder.open("engine.run")
        try:
            return original(self, *args, **kwargs)
        finally:
            record[5]["interactions"] = int(
                getattr(self, "steps_run", before)) - before
            recorder.close(record)

    owner.run = traced
    recorder.installed.append(label)


def _saved_bytes(attrs, args, result):
    try:
        attrs["bytes"] = os.path.getsize(result)
    except (OSError, TypeError):
        pass


def _cache_hit(attrs, args, result):
    attrs["hit"] = result is not None


def _sink_write(attrs, args, result):
    sink = args[0]
    attrs["records"] = int(getattr(sink, "_records", 0))
    attrs["bytes"] = int(getattr(sink, "_bytes", 0))


def install(recorder: Recorder) -> Recorder:
    """Wrap every layer entry point the benchmark reports on."""
    import repro.cli
    import repro.core.population_igt as facade
    import repro.engine.agent as agent
    import repro.engine.count as count
    import repro.engine.observe as observe
    import repro.engine.sampling as sampling
    import repro.engine.snapshot as snapshot
    import repro.engine.vectorized as vectorized
    import repro.engine.weighted as weighted
    import repro.fabric.client as client
    import repro.fabric.protocol as protocol
    import repro.population.scheduler as scheduler
    import repro.runner.cache as cache
    import repro.runner.executor as executor

    wrap_attr(recorder, repro.cli, "main", "cli.main")
    wrap_attr(recorder, facade.IGTSimulation, "__init__", "engine.setup")
    wrap_attr(recorder, facade.IGTSimulation, "snapshot",
              "snapshot.capture")
    for owner in (agent.AgentBackend, count.CountBackend,
                  weighted.WeightedCountBackend):
        _engine_run(recorder, owner)
        wrap_attr(recorder, owner, "snapshot", "snapshot.capture")
    for module in (sampling, scheduler):
        for value in list(vars(module).values()):
            if isinstance(value, type) and "pair_block" in value.__dict__:
                wrap_attr(recorder, value, "pair_block", "engine.pair_draw")
    kernel = vectorized.ConflictFreeKernel
    wrap_attr(recorder, kernel, "apply_chunk", "engine.apply_chunk")
    wrap_attr(recorder, kernel, "begin_run", "engine.begin_run")
    wrap_attr(recorder, kernel, "sync_counts", "engine.sync_counts")
    wrap_attr(recorder, snapshot.SnapshotState, "to_bytes", "snapshot.encode")
    wrap_attr(recorder, snapshot.SnapshotStore, "save", "snapshot.save",
              after=_saved_bytes)
    wrap_attr(recorder, snapshot.SnapshotStore, "load", "snapshot.load")
    wrap_attr(recorder, observe.JsonlSink, "emit", "observe.emit")
    wrap_attr(recorder, observe.JsonlSink, "_write", "observe.flush",
              after=_sink_write)
    wrap_attr(recorder, cache.ResultCache, "get", "runner.cache_get",
              after=_cache_hit)
    wrap_attr(recorder, cache.ResultCache, "put", "runner.cache_put")
    wrap_attr(recorder, executor, "execute", "runner.execute")
    wrap_attr(recorder, client.RemotePool, "run", "fabric.remote_wait")
    _wrap_run_iter(recorder, executor.LocalPool)
    _wrap_encode(recorder, protocol)
    # ``execute`` is imported by name into the package and the CLI
    # resolves it through ``repro.runner``; rebind that name too.
    import repro.runner

    repro.runner.execute = executor.execute
    return recorder


def _wrap_run_iter(recorder: Recorder, pool_class) -> None:
    """``LocalPool.run_iter`` is a generator: record one span from the
    first ``next`` to its last outcome, and the latency of its first
    outcome.  The span is not pushed on the stack (the generator is
    suspended between outcomes); when it closes, the caller's spans
    that ran between outcomes become its children, so their time is
    not also counted as the pool's self time.  The consumer may stop
    iterating without exhausting it, so the span is recorded when it
    closes."""
    original = pool_class.__dict__.get("run_iter")
    if original is None:
        recorder.missing.append("LocalPool.run_iter")
        return

    @functools.wraps(original)
    def traced(self, tasks):
        current = recorder.current()
        parent = current[0] if current is not None else None
        start = last = time.perf_counter()
        attrs = {}
        try:
            for outcome in original(self, tasks):
                last = time.perf_counter()
                if not attrs:
                    attrs["first_result"] = last - start
                    attrs["first_task_seconds"] = float(outcome["seconds"])
                yield outcome
        finally:
            pool = recorder.add("runner.pool", start, last, parent=parent,
                                **attrs)
            recorder.adopt(pool, parent, start, last)

    pool_class.run_iter = traced
    recorder.installed.append("LocalPool.run_iter")


def _wrap_encode(recorder: Recorder, protocol) -> None:
    """Attribute each fabric request body's size to the open span."""
    original = protocol.encode

    @functools.wraps(original)
    def traced(payload):
        data = original(payload)
        record = recorder.current()
        if record is not None:
            record[5]["bytes"] = record[5].get("bytes", 0) + len(data)
        return data

    protocol.encode = traced
    recorder.installed.append("protocol.encode")


def trace_worker_calls(recorder: Recorder, worker) -> None:
    """Wrap one fabric ``Worker``'s requests, named by endpoint."""
    original = worker._call
    names = {"/lease": "fabric.lease", "/snapshot": "fabric.snapshot_upload",
             "/result": "fabric.result_submit"}

    def traced(path, payload):
        record = recorder.open(names.get(path, "fabric.call"))
        try:
            response = original(path, payload)
            if path == "/lease":
                record[5]["leased"] = response.get("lease") is not None
            return response
        finally:
            recorder.close(record)

    worker._call = traced
