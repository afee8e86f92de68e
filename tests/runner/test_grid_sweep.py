"""Grid sweeps: typed experiment grids through grid_plan + execute."""

import json

import pytest

from repro.runner import (
    execute,
    experiments_plan,
    grid_plan,
    strip_provenance,
    task_record,
)
from repro.utils import InvalidParameterError


def canonical(records) -> str:
    stripped = [strip_provenance(record) for record in records]
    return json.dumps(stripped, sort_keys=True)


class TestGridSweep:
    def test_records_carry_point_and_report(self):
        report = execute(grid_plan("E1", {"k": [3, 4]}))
        records = [task_record(result) for result in report.results]
        assert [record["params"] for record in records] == [{"k": 3}, {"k": 4}]
        assert [record["label"] for record in records] == ["k=3", "k=4"]
        assert report.all_checks_pass
        for record in records:
            assert record["report"]["experiment_id"] == "E1"
        assert [len(record["report"]["rows"]) for record in records] == [3, 4]

    def test_cartesian_product_last_axis_fastest(self):
        plan = grid_plan("E2", {"a": [0.25, 0.3], "m": [3, 4]})
        points = [(t.params_dict()["a"], t.params_dict()["m"]) for t in plan.tasks]
        assert points == [(0.25, 3), (0.25, 4), (0.3, 3), (0.3, 4)]

    def test_values_coerced_against_schema(self):
        report = execute(grid_plan("E1", {"k": ["3", 4.0]}))
        assert [len(result.report.rows) for result in report.results] == [3, 4]

    def test_records_identical_across_jobs(self):
        results = {}
        for jobs in (1, 4):
            plan = grid_plan("E2", {"a": [0.25, 0.3], "m": [3, 4]}, jobs=jobs)
            report = execute(plan)
            assert len(report.results) == 4
            results[jobs] = [task_record(result) for result in report.results]
        assert canonical(results[1]) == canonical(results[4])

    def test_cache_shared_with_single_runs(self, tmp_path):
        single = experiments_plan(["E1"], params={"k": 3}, cache_dir=str(tmp_path))
        direct = execute(single).results[0].report
        report = execute(grid_plan("E1", {"k": [3]}, cache_dir=str(tmp_path)))
        assert report.cache_hits == 1
        assert report.results[0].report.to_dict() == direct.to_dict()

    def test_base_params_apply_beneath_every_point(self):
        plan = grid_plan("E2", {"a": [0.25, 0.3]}, base_params={"m": 4})
        for result in execute(plan).results:
            # m=4, k=3 -> C(6, 2) = 15 state rows.
            assert len(result.report.rows) == 15

    def test_unknown_axis_rejected(self):
        with pytest.raises(InvalidParameterError, match="valid parameters"):
            execute(grid_plan("E1", {"zz": [1, 2]}))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown experiment"):
            execute(grid_plan("E404", {"k": [2]}))
