"""Run orchestration: parallel replicates, sweeps, and result caching.

The runner fans experiment replicates and parameter grids out across
worker processes with two guarantees:

* **determinism** — a plan's report depends only on the plan: per-task
  seeds are spawned from ``(base_seed, task index)``
  (:mod:`repro.runner.seeds`), results are reassembled in task order, and
  every report round-trips through its JSON form, so ``jobs=1`` and
  ``jobs=N`` produce byte-identical records;
* **incrementality** — results are cached on disk keyed by
  ``(experiment, params, seed, backend, code-version)``
  (:mod:`repro.runner.cache`); re-running a plan recomputes only what the
  key says could have changed.

Typical use::

    from repro.runner import execute, replicate_plan

    plan = replicate_plan("E13", replicates=8, base_seed=7,
                          backends=("count",), jobs=4, cache_dir=".cache")
    report = execute(plan)
    print(report.check_pass_rates())

or from the command line: ``repro sweep E13 --replicates 8 --jobs 4`` and
``repro run-all --jobs 4``.
"""

from repro.runner.cache import (
    ResultCache,
    cache_key,
    code_version,
    experiment_cache_key,
)
from repro.runner.executor import (
    LocalPool,
    TaskPool,
    execute,
    run_task,
    task_outcome,
)
from repro.runner.plan import (
    PROVENANCE_FIELDS,
    RunPlan,
    RunReport,
    RunTask,
    TaskResult,
    experiments_plan,
    grid_plan,
    replicate_plan,
    strip_provenance,
    task_record,
)
from repro.runner.seeds import task_seed, task_seeds

__all__ = [
    "RunTask",
    "RunPlan",
    "TaskResult",
    "RunReport",
    "TaskPool",
    "LocalPool",
    "task_outcome",
    "PROVENANCE_FIELDS",
    "strip_provenance",
    "task_record",
    "execute",
    "run_task",
    "replicate_plan",
    "experiments_plan",
    "grid_plan",
    "ResultCache",
    "cache_key",
    "code_version",
    "experiment_cache_key",
    "task_seed",
    "task_seeds",
]
