"""Tests for the experiment registry, parameter specs, reports, and CLI."""

import json
import math

import pytest

from repro.cli import main
from repro.experiments import (
    all_experiments,
    get_spec,
    run_experiment,
)
from repro.experiments.base import (
    _REGISTRY,
    ExperimentReport,
    _from_wire,
    _jsonable,
    register,
)
from repro.params import ParamSpace
from repro.utils import InvalidParameterError

EXPECTED_IDS = [f"E{i}" for i in range(1, 17)]


class TestRegistry:
    def test_all_sixteen_registered(self):
        ids = [eid for eid, _ in all_experiments()]
        assert sorted(ids) == sorted(EXPECTED_IDS)

    def test_get_spec_case_insensitive(self):
        assert get_spec("e1") is get_spec("E1")

    def test_unknown_id_raises(self):
        with pytest.raises(InvalidParameterError, match="unknown"):
            get_spec("E99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(InvalidParameterError):
            register("E1", "dup")(lambda fast, seed: None)

    def test_register_normalizes_lowercase_ids(self):
        # register() uppercases ids exactly like get_spec lookups,
        # so a lowercase registration cannot shadow its uppercase twin.
        def runner(params=None, seed=None):
            return None

        register("e77x", "normalized")(runner)
        try:
            assert "E77X" in _REGISTRY
            assert "e77x" not in _REGISTRY
            assert get_spec("e77x").runner is runner
            assert get_spec("E77X").runner is runner
        finally:
            del _REGISTRY["E77X"]

    def test_register_lowercase_duplicate_rejected(self):
        with pytest.raises(InvalidParameterError, match="twice"):
            register("e1", "dup")(lambda params, seed: None)

    def test_register_blank_id_rejected(self):
        with pytest.raises(InvalidParameterError, match="non-empty"):
            register("  ", "blank")(lambda params, seed: None)

    def test_titles_nonempty(self):
        assert all(title for _, title in all_experiments())


class TestParamSpaces:
    """Every experiment declares a typed, resolvable parameter schema."""

    @pytest.mark.parametrize("experiment_id", EXPECTED_IDS)
    def test_declares_a_param_space(self, experiment_id):
        space = get_spec(experiment_id).params
        assert isinstance(space, ParamSpace)
        assert len(space) > 0, f"{experiment_id} declares no knobs"

    @pytest.mark.parametrize("experiment_id", EXPECTED_IDS)
    def test_profiles_resolve(self, experiment_id):
        space = get_spec(experiment_id).params
        fast = space.resolve("fast")
        full = space.resolve("full")
        assert set(fast.values) == set(full.values) == set(space.names)

    @pytest.mark.parametrize("experiment_id", EXPECTED_IDS)
    def test_schema_round_trips_through_json(self, experiment_id):
        payload = get_spec(experiment_id).params.to_dict()
        assert json.loads(json.dumps(payload, allow_nan=False)) == payload

    @pytest.mark.parametrize("experiment_id", EXPECTED_IDS)
    def test_every_param_documented(self, experiment_id):
        for param in get_spec(experiment_id).params:
            assert param.help, \
                f"{experiment_id}.{param.name} lacks a help string"

    def test_spec_resolve_prefixes_errors_with_the_id(self):
        with pytest.raises(InvalidParameterError, match="E4: unknown"):
            get_spec("E4").resolve("fast", {"zz": 1})

    def test_run_experiment_rejects_unknown_params(self):
        with pytest.raises(InvalidParameterError, match="valid parameters"):
            run_experiment("E1", params={"zz": 1})

    def test_run_experiment_accepts_string_spellings(self):
        report = run_experiment("E1", params={"k": "4"})
        assert len(report.rows) == 4
        assert report.all_checks_pass

    def test_profile_changes_resolved_scale(self):
        report = run_experiment("E12", profile="full")
        # full resolves k_max=64 -> 6 k values x 4 betas = 24 rows.
        assert len(report.rows) == 24
        assert report.all_checks_pass


class TestWireFormat:
    """Strict-JSON wire coding of report payloads (incl. nan/inf cells)."""

    def test_non_finite_floats_encode_portably(self):
        assert _jsonable(math.nan) == {"$float": "nan"}
        assert _jsonable(math.inf) == {"$float": "inf"}
        assert _jsonable(-math.inf) == {"$float": "-inf"}

    def test_from_wire_decodes_markers(self):
        assert math.isnan(_from_wire({"$float": "nan"}))
        assert _from_wire({"$float": "inf"}) == math.inf
        assert _from_wire({"$float": "-inf"}) == -math.inf
        assert _from_wire({"$float": "bogus"}) == {"$float": "bogus"}

    def test_report_with_non_finite_cells_round_trips(self):
        import json

        import numpy as np

        report = ExperimentReport(
            experiment_id="EW", title="wire", claim="c",
            headers=["value"],
            rows=[[math.nan], [math.inf], [-math.inf],
                  [np.float64("nan")], [1.5], ["text"], [None]],
        )
        payload = report.to_dict()
        # The payload is strict JSON: no NaN/Infinity literals anywhere.
        encoded = json.dumps(payload, allow_nan=False)
        decoded = ExperimentReport.from_dict(json.loads(encoded))
        assert math.isnan(decoded.rows[0][0])
        assert decoded.rows[1][0] == math.inf
        assert decoded.rows[2][0] == -math.inf
        assert math.isnan(decoded.rows[3][0])
        assert decoded.rows[4:] == [[1.5], ["text"], [None]]
        # A second round-trip is the identity.
        assert decoded.to_dict() == payload


class TestReport:
    def test_render_contains_table_and_checks(self):
        report = ExperimentReport(
            experiment_id="EX", title="t", claim="c",
            headers=["a"], rows=[[1]], checks={"ok": True, "bad": False},
            notes=["hello"])
        text = report.render()
        assert "EX" in text
        assert "[PASS] ok" in text
        assert "[FAIL] bad" in text
        assert "note: hello" in text

    def test_all_checks_pass(self):
        good = ExperimentReport("E", "t", "c", ["h"], checks={"x": True})
        bad = ExperimentReport("E", "t", "c", ["h"], checks={"x": False})
        assert good.all_checks_pass
        assert not bad.all_checks_pass

    def test_empty_checks_pass(self):
        report = ExperimentReport("E", "t", "c", ["h"])
        assert report.all_checks_pass


class TestDeterministicExperiments:
    """Every experiment runs and passes on its fast profile at the default
    seed; tests/experiments/test_experiment_reports.py checks the rest of
    the report contract."""

    @pytest.mark.parametrize("experiment_id", EXPECTED_IDS)
    def test_runs_and_passes(self, experiment_id):
        report = run_experiment(experiment_id, profile="fast")
        assert report.experiment_id == experiment_id
        assert report.rows
        assert report.all_checks_pass, report.render()

    def test_e1_has_six_rows(self):
        assert len(run_experiment("E1").rows) == 6

    def test_e2_has_ten_rows(self):
        assert len(run_experiment("E2").rows) == 10

    def test_reports_render(self):
        for experiment_id in ("E1", "E2"):
            text = run_experiment(experiment_id).render()
            assert "claim:" in text


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for eid in EXPECTED_IDS:
            assert eid in out

    def test_run_single(self, capsys):
        assert main(["run", "E1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out

    def test_run_with_seed(self, capsys):
        assert main(["run", "E2", "--seed", "7"]) == 0

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestBackendDispatchAndProfiles:
    def test_e4_huge_profile_resolves_to_population_scale(self):
        spec = get_spec("E4")
        resolved = spec.resolve("huge")
        assert resolved["n"] == 10_000_000
        # everything else stays at the fast defaults
        assert resolved["m_urn"] == spec.resolve("fast")["m_urn"]

    def test_e16_declares_population_knobs(self):
        spec = get_spec("E16")
        resolved = spec.resolve("fast")
        assert resolved["n_pop"] >= 80
        assert spec.resolve("full")["n_pop"] > resolved["n_pop"]

    def test_run_experiment_accepts_auto_backend(self):
        report = run_experiment("E6", backend="auto",
                                params={"samples": 20, "tol": 0.2})
        assert report.experiment_id == "E6"

    def test_run_experiment_rejects_unknown_backend(self):
        with pytest.raises(InvalidParameterError):
            run_experiment("E6", backend="gpu")

    def test_e6_weighted_variant_runs_both_backends(self):
        for backend in ("agent", "count"):
            report = run_experiment(
                "E6", backend=backend,
                params={"samples": 20, "tol": 0.2,
                        "weights": "twoclass:3"})
            assert report.all_checks_pass
            assert any("twoclass:3" in row for row in report.rows)

    def test_e6_rejects_malformed_weight_spec(self):
        with pytest.raises(InvalidParameterError):
            run_experiment("E6", params={"weights": "zipf"})
