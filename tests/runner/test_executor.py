"""Plan construction and execution: ordering, caching, round-tripping."""

import pytest

from repro.experiments.base import ExperimentReport
from repro.runner import (
    PROVENANCE_FIELDS,
    LocalPool,
    RunPlan,
    RunTask,
    TaskPool,
    TaskResult,
    execute,
    experiments_plan,
    grid_plan,
    replicate_plan,
    run_task,
    strip_provenance,
    task_outcome,
    task_seed,
)
from repro.utils import InvalidParameterError


class TestPlanConstruction:
    def test_replicate_plan_seeds_and_labels(self):
        plan = replicate_plan(
            "E5", replicates=3, base_seed=42, backends=("count", "agent")
        )
        assert len(plan.tasks) == 6
        for backend_index, backend in enumerate(("count", "agent")):
            for replicate in range(3):
                task = plan.tasks[backend_index * 3 + replicate]
                assert task.backend == backend
                assert task.label == f"r{replicate}"
                # Same replicate seed on every backend.
                assert task.seed == task_seed(42, replicate)

    def test_experiments_plan(self):
        plan = experiments_plan(["E1", "E2"], seed=3, backend="count")
        assert [task.experiment_id for task in plan.tasks] == ["E1", "E2"]
        assert all(task.seed == 3 for task in plan.tasks)

    def test_empty_experiments_plan_rejected(self):
        with pytest.raises(InvalidParameterError, match="at least one"):
            experiments_plan([])

    def test_bad_backend_rejected(self):
        with pytest.raises(InvalidParameterError, match="backend"):
            RunTask(experiment_id="E1", backend="gpu")

    def test_bad_jobs_rejected(self):
        with pytest.raises(InvalidParameterError, match="jobs"):
            RunPlan(tasks=(RunTask(experiment_id="E1"),), jobs=0)

    def test_non_task_rejected(self):
        with pytest.raises(InvalidParameterError, match="RunTask"):
            RunPlan(tasks=("E1",))

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(InvalidParameterError, match="no values"):
            grid_plan("E1", {"k": []})

    def test_grid_without_axes_rejected(self):
        with pytest.raises(InvalidParameterError, match="at least one grid axis"):
            grid_plan("E1", {})

    def test_non_int_seed_axis_rejected(self):
        with pytest.raises(InvalidParameterError, match="must be ints"):
            grid_plan("E1", {"seed": [1.5]})

    def test_malformed_task_params_rejected(self):
        with pytest.raises(InvalidParameterError, match="mapping"):
            RunTask(experiment_id="E1", params=5)

    def test_empty_experiment_id_rejected(self):
        with pytest.raises(InvalidParameterError, match="non-empty"):
            RunTask(experiment_id="")


class TestExecute:
    def test_reports_in_task_order(self):
        plan = experiments_plan(["E2", "E1"])
        report = execute(plan)
        ids = [result.report.experiment_id for result in report.results]
        assert ids == ["E2", "E1"]
        assert report.all_checks_pass

    def test_reports_round_trip_through_json(self):
        report = execute(experiments_plan(["E1"])).results[0].report
        assert isinstance(report, ExperimentReport)
        payload = report.to_dict()
        assert ExperimentReport.from_dict(payload).to_dict() == payload

    def test_cache_hits_on_second_execution(self, tmp_path):
        plan = replicate_plan("E1", replicates=2, base_seed=5, cache_dir=str(tmp_path))
        first = execute(plan)
        second = execute(plan)
        assert first.cache_hits == 0
        assert second.cache_hits == 2
        first_payloads = [r.report.to_dict() for r in first.results]
        second_payloads = [r.report.to_dict() for r in second.results]
        assert first_payloads == second_payloads

    def test_run_experiment_cache_interoperates_with_executor(self, tmp_path):
        # An entry written by run_experiment(cache=...) is served to
        # executor plans with the same coordinates, and vice versa.
        from repro.experiments import run_experiment

        direct = run_experiment("E1", seed=task_seed(5, 0), cache=str(tmp_path))
        plan = replicate_plan("E1", 1, base_seed=5, cache_dir=str(tmp_path))
        planned = execute(plan)
        assert planned.cache_hits == 1
        assert planned.results[0].report.to_dict() == direct.to_dict()
        again = run_experiment("E1", seed=task_seed(5, 0), cache=str(tmp_path))
        assert again.to_dict() == direct.to_dict()

    def test_seed_change_misses_cache(self, tmp_path):
        cache_dir = str(tmp_path)
        execute(replicate_plan("E1", 1, base_seed=5, cache_dir=cache_dir))
        rerun = execute(replicate_plan("E1", 1, base_seed=6, cache_dir=cache_dir))
        assert rerun.cache_hits == 0

    def test_empty_plan(self):
        report = execute(RunPlan(tasks=()))
        assert report.results == []
        assert report.all_checks_pass

    def test_summary_and_pass_rates(self):
        report = execute(replicate_plan("E1", replicates=2, base_seed=1))
        headers, rows = report.summary_table()
        assert "experiment" in headers
        assert len(rows) == 2
        rates = report.check_pass_rates()
        assert rates
        assert all(total == 2 for _, total in rates.values())


class RecordingPool(TaskPool):
    """A pool stub attributing every outcome to a fixed worker."""

    def __init__(self, worker="stub-pool", short_by=0):
        self.worker = worker
        self.short_by = short_by
        self.seen = []

    def run(self, tasks):
        self.seen.extend(tasks)
        outcomes = [
            task_outcome(*run_task(task), worker=self.worker)
            for task in tasks
        ]
        return outcomes[: len(outcomes) - self.short_by]


class TestTaskPools:
    def test_local_pool_provenance(self):
        report = execute(experiments_plan(["E1"]))
        [result] = report.results
        assert result.source == "executed"
        assert result.worker is None
        assert result.from_cache is False

    def test_cache_hit_provenance(self, tmp_path):
        plan = experiments_plan(["E1"], cache_dir=str(tmp_path))
        execute(plan)
        [result] = execute(plan).results
        assert result.source == "cache"
        assert result.from_cache is True
        assert result.worker is None

    def test_custom_pool_is_honored(self):
        pool = RecordingPool(worker="w7")
        plan = experiments_plan(["E1", "E2"])
        report = execute(plan, pool=pool)
        assert pool.seen == list(plan.tasks)
        assert [r.worker for r in report.results] == ["w7", "w7"]
        assert [r.source for r in report.results] == ["executed", "executed"]

    def test_custom_pool_skips_cache_hits(self, tmp_path):
        plan = experiments_plan(["E1"], cache_dir=str(tmp_path))
        execute(plan)
        pool = RecordingPool()
        execute(plan, pool=pool)
        assert pool.seen == []  # everything came from the cache

    def test_wrong_outcome_count_rejected(self):
        plan = experiments_plan(["E1", "E2"])
        with pytest.raises(InvalidParameterError, match="outcome"):
            execute(plan, pool=RecordingPool(short_by=1))

    def test_non_pool_rejected(self):
        with pytest.raises(InvalidParameterError, match="TaskPool"):
            execute(experiments_plan(["E1"]), pool=object())

    def test_bad_local_pool_jobs_rejected(self):
        with pytest.raises(InvalidParameterError, match="jobs"):
            LocalPool(jobs=0)

    def test_task_result_source_validated(self):
        task = RunTask(experiment_id="E1")
        with pytest.raises(InvalidParameterError, match="source"):
            TaskResult(task=task, report=object(), seconds=0.0, source="psychic")


class TestRecordsAndProvenance:
    def test_records_identical_across_jobs_modulo_provenance(self, tmp_path):
        records = {}
        for jobs in (1, 2):
            plan = replicate_plan("E2", replicates=2, base_seed=9, jobs=jobs)
            records[jobs] = [
                strip_provenance(record)
                for record in execute(plan).to_records()
            ]
        assert records[1] == records[2]

    def test_records_carry_provenance_fields(self, tmp_path):
        plan = experiments_plan(["E1"], cache_dir=str(tmp_path))
        execute(plan)
        [record] = execute(plan).to_records()
        for field in PROVENANCE_FIELDS:
            assert field in record
        assert record["source"] == "cache"
        assert record["from_cache"] is True
        assert record["worker"] is None
        stripped = strip_provenance(record)
        assert not set(stripped) & set(PROVENANCE_FIELDS)
        assert stripped["experiment"] == "E1"

    def test_summary_table_shows_source_and_worker(self):
        plan = experiments_plan(["E1"])
        report = execute(plan, pool=RecordingPool(worker="w9"))
        headers, rows = report.summary_table()
        assert headers[-1] == "source"
        assert rows[0][-1] == "executed@w9"
