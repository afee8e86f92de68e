"""Every registered experiment honours the report contract on its fast
profile: its table is rectangular, its wire form is strict JSON that
round-trips, both renderings list every check, and a fixed seed
reproduces it exactly.  (That its checks pass is
``TestDeterministicExperiments`` in test_experiments_harness.py.)"""

import json

import pytest

from repro.experiments import get_spec, run_experiment
from repro.experiments.base import ExperimentReport

EXPERIMENT_IDS = [f"E{i}" for i in range(1, 17)]

_FAST_REPORTS: dict = {}


def fast_report(experiment_id: str) -> ExperimentReport:
    """The fast-profile report at the default seed, computed once."""
    if experiment_id not in _FAST_REPORTS:
        _FAST_REPORTS[experiment_id] = run_experiment(experiment_id,
                                                      profile="fast")
    return _FAST_REPORTS[experiment_id]


@pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
class TestFastProfileReport:
    def test_rows_match_headers(self, experiment_id):
        report = fast_report(experiment_id)
        assert report.title == get_spec(experiment_id).title
        assert report.headers
        assert all(isinstance(header, str) for header in report.headers)
        assert report.rows
        assert all(len(row) == len(report.headers) for row in report.rows)

    def test_wire_form_round_trips(self, experiment_id):
        payload = fast_report(experiment_id).to_dict()
        encoded = json.dumps(payload, allow_nan=False, sort_keys=True)
        decoded = ExperimentReport.from_dict(json.loads(encoded))
        assert json.dumps(decoded.to_dict(), allow_nan=False,
                          sort_keys=True) == encoded

    def test_renderings_list_every_check(self, experiment_id):
        report = fast_report(experiment_id)
        text = report.render().splitlines()
        assert report.checks
        for name in report.checks:
            assert f"[PASS] {name}" in text

    def test_identical_under_a_fixed_seed(self, experiment_id):
        again = run_experiment(experiment_id, profile="fast")
        assert again.to_dict() == fast_report(experiment_id).to_dict()
