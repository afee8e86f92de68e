"""Parallel-vs-serial equivalence: identical seeds => identical records.

The orchestration contract: fanning work out across worker processes
must never change the records — ``jobs=1`` and ``jobs=4`` produce
byte-identical results for runner plans (on both engine backends) and
for ``grid_plan`` grids.
"""

import json

from repro.runner import (
    execute,
    grid_plan,
    replicate_plan,
    strip_provenance,
    task_record,
)


def canonical(records) -> str:
    return json.dumps(records, sort_keys=True)


BACKEND_GRID = {"g_max": [0.5, 0.6], "seed": [3, 4]}


def backend_grid_records(jobs: int) -> list:
    records = []
    for backend in ("count", "agent"):
        plan = grid_plan("E6", BACKEND_GRID, backend=backend, jobs=jobs)
        records += [task_record(result) for result in execute(plan).results]
    return [strip_provenance(record) for record in records]


class TestRunnerJobsEquivalence:
    def test_replicates_identical_across_jobs_and_backends(self):
        payloads = {}
        for jobs in (1, 4):
            plan = replicate_plan(
                "E2",
                replicates=2,
                base_seed=11,
                backends=("count", "agent"),
                jobs=jobs,
            )
            report = execute(plan)
            assert len(report.results) == 4
            payloads[jobs] = [r.report.to_dict() for r in report.results]
        assert canonical(payloads[1]) == canonical(payloads[4])


class TestSweepJobsEquivalence:
    def test_grid_identical_across_jobs(self):
        results = {jobs: backend_grid_records(jobs) for jobs in (1, 4)}
        assert len(results[1]) == 8
        assert canonical(results[1]) == canonical(results[4])

    def test_backends_share_the_seed_grid(self):
        # Both backends are swept over identical (g_max, seed) points, so
        # the record layout is comparable point-for-point across backends.
        records = backend_grid_records(jobs=1)
        count_rows = [r for r in records if r["backend"] == "count"]
        agent_rows = [r for r in records if r["backend"] == "agent"]
        count_points = [(r["label"], r["seed"]) for r in count_rows]
        assert count_points == [(r["label"], r["seed"]) for r in agent_rows]
        assert [r["seed"] for r in count_rows] == [3, 4, 3, 4]
        for row in records:
            assert all(row["report"]["checks"].values())


class TestSeedAxisJobsEquivalence:
    """--grid seed=... replicate grids obey the same jobs-determinism
    contract as parameter grids."""

    def test_grid_plan_seed_axis_identical_across_jobs(self):
        from repro.runner import grid_plan

        payloads = {}
        for jobs in (1, 4):
            plan = grid_plan("E1", {"k": [3, 4], "seed": [0, 1, 2]},
                             jobs=jobs)
            assert [task.seed for task in plan.tasks] == [0, 1, 2, 0, 1, 2]
            # The axis is a task coordinate, never a parameter override.
            assert all("seed" not in task.params_dict()
                       for task in plan.tasks)
            assert plan.tasks[0].label == "k=3,seed=0"
            report = execute(plan)
            payloads[jobs] = [r.report.to_dict() for r in report.results]
        assert canonical(payloads[1]) == canonical(payloads[4])
