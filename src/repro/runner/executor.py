"""Plan execution: a cache front-end over interchangeable task pools.

The executor owns the side-effecting half of the orchestrator: it checks
the on-disk cache, ships cache misses to a :class:`TaskPool`, stores
fresh results back, and reassembles everything **in task order**.  Pools
return plain strict-JSON outcome payloads — the same form the cache
stores — and every report is reconstructed from that payload, which is
what makes ``jobs=1``, ``jobs=N``, cache-hit, and distributed-fabric
results byte-identical records (modulo the provenance fields).

Two pools exist: :class:`LocalPool` (in-process for ``jobs=1``, a
``fork``-context process pool otherwise — each worker is a copy of a
parent that has already imported numpy and the library, and
:func:`_start_worker` drops the per-task state the copy inherits, so
execution never depends on it) and :class:`repro.fabric.RemotePool`
(leases the tasks to a ``repro serve`` coordinator).  :func:`execute`
does not special-case either: the fabric is just another pool.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from repro.engine.observe import (
    SERIES_DIR_ENV,
    series_paths_for,
    use_series_scope,
)
from repro.runner.cache import (
    ResultCache,
    experiment_cache_key,
    pack_entry,
    unpack_entry,
)
from repro.runner.plan import RunPlan, RunReport, RunTask, TaskResult
from repro.testing import crash_point, reset_faults
from repro.utils import check_positive_int
from repro.utils.errors import InvalidParameterError


#: Environment variable carrying the snapshot directory of a resumable
#: sweep.  Environment-based (rather than a parameter) so a forked pool
#: worker reads it in each task, as the in-process path does.
SNAPSHOT_DIR_ENV = "REPRO_SNAPSHOT_DIR"

# The observation-series counterpart, SERIES_DIR_ENV, lives in
# repro.engine.observe (the sinks consume it) and is re-exported above;
# forked workers read it the same way.

#: Seconds between a pool worker's checks that its parent is alive.
PARENT_POLL_S = 0.2


def _snapshot_scope(task: RunTask):
    """The snapshot channel for one task, or ``None``.

    A channel already bound by the caller wins (the fabric worker binds
    its HTTP channel around :func:`run_task`); otherwise a
    :data:`SNAPSHOT_DIR_ENV` directory yields a file channel keyed by
    the task's canonical cache key — the same key the result cache
    uses, so a partial task's checkpoints sit alongside its future
    result.
    """
    from repro.engine.snapshot import (
        FileSnapshotChannel,
        SnapshotStore,
        current_channel,
        use_snapshot_channel,
    )

    channel = current_channel()
    if channel is not None:
        return channel, contextlib.nullcontext()
    root = os.environ.get(SNAPSHOT_DIR_ENV)
    if not root:
        return None, contextlib.nullcontext()
    channel = FileSnapshotChannel(SnapshotStore(root), _task_cache_key(task))
    return channel, use_snapshot_channel(channel)


def _series_scope(task: RunTask):
    """The observation-series scope of one task, or a no-op context.

    When :data:`SERIES_DIR_ENV` names a directory, experiments that
    call :func:`repro.engine.observe.series_sink` during this task
    stream their series to files keyed by the task's canonical cache
    key — the same key the result cache and snapshot store use, so a
    task's streams, checkpoints, and future result all line up.
    """
    root = os.environ.get(SERIES_DIR_ENV)
    if not root:
        return contextlib.nullcontext()
    return use_series_scope(root, _task_cache_key(task))


def run_task(task: RunTask) -> tuple[dict, float]:
    """Execute one task; returns ``(report payload, seconds)``.

    Module-level so the process pool can pickle it by reference; the
    experiment registry is imported lazily to keep the ``repro.runner``
    import graph light.

    When a snapshot channel is in scope (see :func:`_snapshot_scope`),
    resumable experiments checkpoint through it and pick up a prior
    partial execution; completion clears the task's checkpoints.  A
    failed task keeps them — the retry resumes instead of restarting.
    A series scope (see :func:`_series_scope`) additionally routes the
    experiment's observation streams to per-task JSONL files.
    """
    from repro.experiments.base import run_experiment

    channel, scope = _snapshot_scope(task)
    start = time.perf_counter()
    with scope, _series_scope(task):
        report = run_experiment(
            task.experiment_id,
            profile=task.profile,
            params=task.params_dict(),
            seed=task.seed,
            backend=task.backend,
        )
    if channel is not None:
        channel.clear()
    return report.to_dict(), time.perf_counter() - start


def _task_cache_key(task: RunTask) -> str:
    return experiment_cache_key(
        task.experiment_id, task.profile, task.seed, task.backend, task.params_dict()
    )


def task_outcome(
    payload: dict,
    seconds: float,
    source: str = "executed",
    worker: str | None = None,
) -> dict:
    """The strict-JSON outcome form every :class:`TaskPool` returns.

    ``report``/``seconds`` are the cache entry fields
    (:func:`repro.runner.cache.pack_entry`); ``source`` and ``worker``
    are execution provenance carried into :class:`TaskResult`.
    """
    return {
        "report": payload,
        "seconds": seconds,
        "source": source,
        "worker": worker,
    }


class TaskPool:
    """Order-preserving executor of cache-miss tasks.

    A pool takes the tasks the cache could not serve and returns one
    outcome per task, **in task order** (see :func:`task_outcome` for
    the shape).  Implementations decide *where* the work runs — the
    local machine (:class:`LocalPool`) or a fabric coordinator
    (:class:`repro.fabric.RemotePool`) — but never reorder results, so
    :func:`execute` reports are identical across pools.
    """

    def run(self, tasks: list[RunTask]) -> list[dict]:
        """One outcome dict per task, in task order."""
        raise NotImplementedError

    def run_iter(self, tasks: list[RunTask]):
        """Yield the outcomes of :meth:`run` in task order.

        Pools that produce results incrementally override this so
        :func:`execute` can persist each completed cell to the cache
        *as it finishes* — a killed sweep then keeps everything already
        done instead of losing the whole batch.  The default adapts
        batch-only pools.
        """
        yield from self.run(tasks)


def _start_worker(parent: int) -> None:
    """Initializer of a forked pool worker: drop what the fork copied.

    The worker inherits the parent's context variables and fault hit
    counters.  It unbinds the snapshot channel and the series scope, so
    each task binds its own from :data:`SNAPSHOT_DIR_ENV` and
    :data:`SERIES_DIR_ENV`, and counts ``REPRO_FAULTS`` hits from zero.
    It also exits once ``parent`` is gone: a killed parent never closes
    the task queue, so the worker would otherwise wait on it forever.
    """
    from repro.engine import observe, snapshot

    snapshot._CHANNEL.set(None)
    observe._SERIES_SCOPE.set(None)
    reset_faults()
    threading.Thread(target=_exit_with_parent, args=(parent,), daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_S)
    os._exit(1)


class LocalPool(TaskPool):
    """Run tasks in-process (``jobs=1``) or on a ``fork`` process pool.

    Forked workers skip the interpreter start and the numpy and library
    imports a fresh process would pay before its first task;
    :func:`_start_worker` gives each the state a fresh one would have.
    """

    def __init__(self, jobs: int = 1):
        check_positive_int("jobs", jobs)
        self.jobs = jobs

    def run(self, tasks: list[RunTask]) -> list[dict]:
        return list(self.run_iter(tasks))

    def run_iter(self, tasks: list[RunTask]):
        tasks = list(tasks)
        if self.jobs > 1 and len(tasks) > 1:
            workers = min(self.jobs, len(tasks))
            with ProcessPoolExecutor(
                workers,
                mp_context=get_context("fork"),
                initializer=_start_worker,
                initargs=(os.getpid(),),
            ) as pool:
                for payload, seconds in pool.map(run_task, tasks):
                    yield task_outcome(payload, seconds)
        else:
            for task in tasks:
                payload, seconds = run_task(task)
                yield task_outcome(payload, seconds)


@contextlib.contextmanager
def _dir_env(name: str, value):
    """Expose a directory to this process *and* its pool workers."""
    if value is None:
        yield
        return
    previous = os.environ.get(name)
    os.environ[name] = str(value)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous


def _snapshot_dir_env(snapshot_dir):
    """``snapshot_dir`` as :data:`SNAPSHOT_DIR_ENV` for pool workers."""
    return _dir_env(SNAPSHOT_DIR_ENV, snapshot_dir)


def _series_dir_env(series_dir):
    """``series_dir`` as :data:`SERIES_DIR_ENV` for pool workers."""
    return _dir_env(SERIES_DIR_ENV, series_dir)


def execute(
    plan: RunPlan,
    pool: TaskPool | None = None,
    snapshot_dir=None,
    series_dir=None,
    record_stream=None,
) -> RunReport:
    """Execute a :class:`RunPlan` and return its :class:`RunReport`.

    Cache hits are served without touching the pool; misses go to
    ``pool`` (default: a :class:`LocalPool` sized by ``plan.jobs``).
    Results are always reported in task order, so the report is
    identical for every ``jobs`` value and every pool — only the
    provenance fields (timing, source, worker) differ.

    ``snapshot_dir`` makes the sweep *resumable*: tasks periodically
    checkpoint engine snapshots there (keyed by their canonical cache
    keys), a killed sweep's rerun picks the partial tasks up
    mid-trajectory, and the resumed records are byte-identical to an
    uninterrupted run's (``repro sweep --resume`` is the CLI spelling;
    completed cells are already served by the cache and never
    re-execute).

    ``series_dir`` makes the sweep *streaming*: experiments that open
    :func:`repro.engine.observe.series_sink` streams write per-task
    JSONL files there (keyed like the snapshots), the files a task
    produced are attached to its :class:`TaskResult` (and remembered by
    its cache entry), and the records stay constant-memory however long
    each trajectory runs.  Local pools only — a remote worker's disk is
    not ours to glob.

    ``record_stream`` is called with each :class:`TaskResult` the
    moment it is final, **in task order** (cache hits first, then
    executed cells as the contiguous done-prefix grows).  ``repro sweep
    --output`` uses it to append records as they land instead of after
    the whole batch, so a killed sweep's output file already holds
    every completed cell.
    """
    from repro.experiments.base import ExperimentReport

    if pool is None:
        pool = LocalPool(plan.jobs)
    if not isinstance(pool, TaskPool):
        raise InvalidParameterError(
            f"pool must be a TaskPool instance, got {pool!r}"
        )
    tasks = list(plan.tasks)
    results: list = [None] * len(tasks)
    cache = ResultCache(plan.cache_dir) if plan.cache_dir is not None else None
    keys: list = [None] * len(tasks)
    streamed = 0

    def stream_done_prefix():
        # Stream each result exactly once, in task order, as soon as
        # every earlier task is also final (the contiguous done-prefix).
        nonlocal streamed
        if record_stream is None:
            return
        while streamed < len(results) and results[streamed] is not None:
            record_stream(results[streamed])
            streamed += 1

    pending = []
    for index, task in enumerate(tasks):
        if cache is not None or series_dir is not None:
            keys[index] = _task_cache_key(task)
        if cache is not None:
            entry = cache.get(keys[index])
            if entry is not None:
                report_payload, seconds = unpack_entry(entry)
                results[index] = TaskResult(
                    task=task,
                    report=ExperimentReport.from_dict(report_payload),
                    seconds=seconds,
                    source="cache",
                    series=tuple(entry.get("series") or ()),
                )
                continue
        pending.append(index)
    stream_done_prefix()

    if pending:
        produced = 0
        with _snapshot_dir_env(snapshot_dir), _series_dir_env(series_dir):
            outcomes = pool.run_iter([tasks[index] for index in pending])
            # Each outcome is cached the moment it arrives, not after
            # the whole batch: a sweep killed mid-run keeps every cell
            # already completed, and its rerun serves them from cache.
            for index, outcome in zip(pending, outcomes):
                produced += 1
                payload, seconds = unpack_entry(outcome)
                series = ()
                if series_dir is not None:
                    series = series_paths_for(series_dir, keys[index])
                results[index] = TaskResult(
                    task=tasks[index],
                    report=ExperimentReport.from_dict(payload),
                    seconds=seconds,
                    source=outcome.get("source", "executed"),
                    worker=outcome.get("worker"),
                    series=series,
                )
                if cache is not None:
                    cache.put(
                        keys[index], pack_entry(payload, seconds, series)
                    )
                    crash_point("executor.post-cache")
                stream_done_prefix()
        if produced != len(pending):
            raise InvalidParameterError(
                f"pool returned {produced} outcome(s) for "
                f"{len(pending)} task(s)"
            )
    return RunReport(results=results)
