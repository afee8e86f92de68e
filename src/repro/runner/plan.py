"""Run plans and reports: the declarative layer of the orchestrator.

A :class:`RunPlan` is a frozen description of *what* to run — a tuple of
:class:`RunTask` coordinates plus execution knobs (worker count, cache
directory).  Executing a plan (:func:`repro.runner.execute`) yields a
:class:`RunReport`: one :class:`TaskResult` per task, **in task order**,
regardless of which worker finished first or which results came from the
cache.  Identical plans therefore produce identical reports for any
``jobs`` value — the determinism contract the property tests pin down.

Plans for the common shapes are built by :func:`replicate_plan`
(replicates × backends of one experiment, with per-replicate seeds from
:func:`repro.runner.seeds.task_seed`), :func:`experiments_plan` (one
task per registered experiment), and :func:`grid_plan` (one task per
point of a typed parameter grid).
"""

from __future__ import annotations

import itertools

from dataclasses import dataclass, field

from repro.engine import check_backend
from repro.runner.seeds import task_seed
from repro.utils import check_positive_int
from repro.utils.errors import InvalidParameterError


def _canonical_overrides(params) -> tuple:
    """``params`` (mapping or pair-iterable) as a sorted pair tuple.

    The canonical structural form of a task's parameter overrides —
    hashable, deterministic, and independent of insertion order.  Values
    are *not* yet coerced against the experiment's schema here (that
    happens at resolution time, where unknown names and bad values get
    schema-aware errors); canonicalizing the structure is what keeps
    ``RunTask`` frozen and plans comparable.
    """
    if params is None:
        return ()
    items = params.items() if hasattr(params, "items") else params
    try:
        pairs = [(str(name), value) for name, value in items]
    except (TypeError, ValueError) as error:
        raise InvalidParameterError(
            f"task params must be a mapping or (name, value) pairs, "
            f"got {params!r}"
        ) from error
    return tuple(sorted(pairs, key=lambda pair: pair[0]))


@dataclass(frozen=True)
class RunTask:
    """Coordinates of one experiment run.

    Attributes
    ----------
    experiment_id:
        The registered id, e.g. ``"E13"``.
    profile:
        The named parameter profile to resolve (``"fast"``, ``"full"``,
        or any profile the experiment declares).
    params:
        Parameter overrides on top of the profile — accepted as a
        mapping or pair-iterable, canonicalized to a sorted tuple of
        ``(name, value)`` pairs so tasks stay frozen and comparable.
        Validation against the experiment's :class:`ParamSpace` happens
        at resolution time (cache-key construction and execution).
    seed:
        Integer seed forwarded to the experiment runner.
    backend:
        Optional simulation-engine selection (``"agent"`` / ``"count"``).
    label:
        Free-form tag (e.g. ``"r3"`` for replicate 3) carried through to
        the report.
    """

    experiment_id: str
    profile: str = "fast"
    params: tuple = ()
    seed: int = 12345
    backend: str | None = None
    label: str | None = None

    def __post_init__(self):
        if not self.experiment_id:
            raise InvalidParameterError("experiment_id must be non-empty")
        if self.backend is not None:
            check_backend(self.backend, allow_auto=True)
        object.__setattr__(self, "params", _canonical_overrides(self.params))

    def params_dict(self) -> dict:
        """The override pairs as a plain dict."""
        return dict(self.params)

    def params_summary(self) -> str:
        """Compact ``name=value,...`` override rendering (``-`` if none)."""
        if not self.params:
            return "-"
        return ",".join(f"{name}={value}" for name, value in self.params)


@dataclass(frozen=True)
class RunPlan:
    """A deterministic batch of tasks plus execution knobs.

    Attributes
    ----------
    tasks:
        The tasks, in the order their results will be reported.
    jobs:
        Worker processes to fan out across (1 = run in-process).
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables caching.
    """

    tasks: tuple[RunTask, ...]
    jobs: int = 1
    cache_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        for task in self.tasks:
            if not isinstance(task, RunTask):
                raise InvalidParameterError(
                    f"plan tasks must be RunTask instances, got {task!r}"
                )
        check_positive_int("jobs", self.jobs)


#: Record fields that describe *how* a result was obtained rather than
#: *what* it is.  Execution provenance (timing, cache status, which
#: worker computed it) legitimately varies between byte-identical runs,
#: so determinism comparisons strip these keys first
#: (:func:`strip_provenance`).
PROVENANCE_FIELDS = ("seconds", "from_cache", "source", "worker")


def strip_provenance(record: dict) -> dict:
    """``record`` without its :data:`PROVENANCE_FIELDS` keys.

    The byte-identity contract — local ``jobs=1`` vs ``jobs=N`` vs a
    distributed fabric run — holds on the *report* content, not on who
    computed it or how long it took; this is the canonical projection
    both the tests and ``scripts/run_fabric_smoke.py`` compare.
    """
    return {
        name: value
        for name, value in record.items()
        if name not in PROVENANCE_FIELDS
    }


@dataclass(frozen=True)
class TaskResult:
    """One executed (or cache-served) task.

    Attributes
    ----------
    task:
        The coordinates that produced this result.
    report:
        The reconstructed :class:`~repro.experiments.base.ExperimentReport`.
        Reports always round-trip through their JSON form — fresh, pooled,
        and cached results are byte-identical records.
    seconds:
        Wall-clock runtime of the original execution.
    source:
        How the result was obtained: ``"executed"`` (some pool burned
        CPU for this request) or ``"cache"`` (served from a result
        cache — the local one, or a coordinator's shared store).
    worker:
        Identity of the fabric worker that executed the task, when it
        ran on a remote pool (``None`` for local execution and cache
        hits).
    series:
        Paths of the observation-series files the task streamed
        (:func:`repro.engine.observe.series_sink` under
        ``execute(series_dir=...)``); empty when the task streamed
        nothing.  Cache entries remember the paths, so cache-served
        results still point at their original streams.
    """

    task: RunTask
    report: object
    seconds: float
    source: str = "executed"
    worker: str | None = None
    series: tuple = ()

    def __post_init__(self):
        if self.source not in ("executed", "cache"):
            raise InvalidParameterError(
                f"result source must be 'executed' or 'cache', "
                f"got {self.source!r}"
            )
        object.__setattr__(
            self, "series", tuple(str(path) for path in self.series)
        )

    @property
    def from_cache(self) -> bool:
        """Whether the result was served from a result cache."""
        return self.source == "cache"


def task_record(result: TaskResult) -> dict:
    """The strict-JSON record of one :class:`TaskResult`.

    The single serialization path behind :meth:`RunReport.to_records`
    and the streaming ``repro sweep --output`` writer, so a record's
    bytes are identical whether it was emitted the moment the task
    finished or assembled from the completed report.  A ``"series"``
    key appears only when the task streamed observation series, keeping
    series-free records byte-identical to the pre-streaming format.
    """
    from repro.experiments.base import _jsonable

    task = result.task
    record = {
        "experiment": task.experiment_id,
        "label": task.label,
        "profile": task.profile,
        "params": {name: _jsonable(value) for name, value in task.params},
        "seed": task.seed,
        "backend": task.backend,
        "seconds": result.seconds,
        "from_cache": result.from_cache,
        "source": result.source,
        "worker": result.worker,
        "report": result.report.to_dict(),
    }
    if result.series:
        record["series"] = list(result.series)
    return record


@dataclass
class RunReport:
    """Results of an executed plan, in task order."""

    results: list[TaskResult] = field(default_factory=list)

    @property
    def reports(self) -> list:
        """The experiment reports, in task order."""
        return [result.report for result in self.results]

    @property
    def all_checks_pass(self) -> bool:
        """Whether every check of every report passed."""
        return all(result.report.all_checks_pass for result in self.results)

    @property
    def cache_hits(self) -> int:
        """How many results were served from the cache."""
        return sum(1 for result in self.results if result.from_cache)

    def check_pass_rates(self) -> dict:
        """Aggregate ``check name -> (passed, total)`` across all reports.

        The replicate-sweep view: a check that holds in 7 of 8 replicates
        shows up as ``(7, 8)``.
        """
        rates: dict = {}
        for result in self.results:
            for name, passed in result.report.checks.items():
                done, total = rates.get(name, (0, 0))
                rates[name] = (done + int(bool(passed)), total + 1)
        return rates

    def summary_table(self) -> tuple[list, list]:
        """``(headers, rows)`` summarizing each task for tabular display."""
        headers = [
            "experiment",
            "label",
            "profile",
            "params",
            "seed",
            "backend",
            "checks",
            "seconds",
            "source",
        ]
        rows = []
        for result in self.results:
            task = result.task
            checks = result.report.checks
            source = result.source
            if result.worker is not None:
                source = f"{source}@{result.worker}"
            rows.append(
                [
                    task.experiment_id,
                    task.label or "-",
                    task.profile,
                    task.params_summary(),
                    task.seed,
                    task.backend or "-",
                    f"{sum(map(bool, checks.values()))}/{len(checks)}",
                    f"{result.seconds:.1f}",
                    source,
                ]
            )
        return headers, rows

    def to_records(self) -> list[dict]:
        """One strict-JSON record per result, in task order.

        Each record carries the task coordinates, the execution
        provenance (timing, ``source``, ``worker``, legacy
        ``from_cache``), and the full report wire form — the payload
        ``repro sweep --output`` dumps as JSON Lines.  Everything except
        the :data:`PROVENANCE_FIELDS` is byte-deterministic for a given
        plan, wherever and however it executed.
        """
        return [task_record(result) for result in self.results]


def replicate_plan(
    experiment_id: str,
    replicates: int,
    base_seed: int = 12345,
    backends=(None,),
    jobs: int = 1,
    cache_dir: str | None = None,
    profile: str = "fast",
    params=None,
) -> RunPlan:
    """A replicates × backends grid over one experiment.

    Replicate ``i`` gets seed ``task_seed(base_seed, i)`` on *every*
    backend, so backends are compared on identical seed streams; the grid
    is laid out backend-major, replicate-minor.  ``profile`` and
    ``params`` select / override the experiment's declared parameters on
    every task.
    """
    check_positive_int("replicates", replicates)
    overrides = _canonical_overrides(params)
    tasks = []
    for backend in backends:
        for index in range(replicates):
            tasks.append(
                RunTask(
                    experiment_id=experiment_id,
                    profile=profile,
                    params=overrides,
                    seed=task_seed(base_seed, index),
                    backend=backend,
                    label=f"r{index}",
                )
            )
    return RunPlan(tasks=tuple(tasks), jobs=jobs, cache_dir=cache_dir)


def experiments_plan(
    experiment_ids,
    seed: int = 12345,
    backend: str | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
    profile: str = "fast",
    params=None,
) -> RunPlan:
    """One task per experiment id, all with the same seed and backend."""
    overrides = _canonical_overrides(params)
    tasks = tuple(
        RunTask(
            experiment_id=eid,
            profile=profile,
            params=overrides,
            seed=seed,
            backend=backend,
        )
        for eid in experiment_ids
    )
    if not tasks:
        raise InvalidParameterError("at least one experiment id is required")
    return RunPlan(tasks=tasks, jobs=jobs, cache_dir=cache_dir)


def grid_plan(
    experiment_id: str,
    grid: dict,
    base_params=None,
    seed: int = 12345,
    backend: str | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
    profile: str = "fast",
) -> RunPlan:
    """One task per point of the cartesian product of ``grid`` axes.

    ``grid`` maps parameter names to value lists; axes iterate in
    insertion order with the *last* axis fastest.  A ``seed`` axis is
    first-class: its values become each task's *seed coordinate* (never
    a parameter override), so ``--grid seed=0:7:8`` sweeps replicates —
    alone or crossed with parameter axes.  Without one, every point
    runs with the same ``seed``.  ``base_params`` overrides apply
    beneath every point.  Each task is labeled with its point
    (``"n=10000,seed=3"``) so grid records are self-describing.
    """
    base = dict(_canonical_overrides(base_params))
    axes = [(str(name), list(values)) for name, values in dict(grid).items()]
    if not axes:
        raise InvalidParameterError("at least one grid axis is required")
    for name, values in axes:
        if not values:
            raise InvalidParameterError(f"grid axis {name!r} has no values")
        if name == "seed":
            for value in values:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise InvalidParameterError(
                        f"grid axis 'seed' values must be ints, "
                        f"got {value!r}"
                    )
    tasks = []
    for combo in itertools.product(*(values for _, values in axes)):
        point = {name: value for (name, _), value in zip(axes, combo)}
        point_seed = point.pop("seed", seed)
        tasks.append(
            RunTask(
                experiment_id=experiment_id,
                profile=profile,
                params={**base, **point},
                seed=point_seed,
                backend=backend,
                label=",".join(
                    f"{name}={value}"
                    for (name, _), value in zip(axes, combo)
                ),
            )
        )
    return RunPlan(tasks=tuple(tasks), jobs=jobs, cache_dir=cache_dir)
