"""The CLI commands: run/sweep orchestration, params, cache, error paths."""

import json
import re

import pytest

from repro.cli import main, parse_age, parse_size
from repro.experiments.base import _REGISTRY, ExperimentReport, register
from repro.testing import reset_faults
from repro.testing.faults import FAULTS_ENV
from repro.utils import InvalidParameterError


@pytest.fixture
def failing_experiment():
    """Temporarily register an experiment whose single check fails."""

    def runner(params=None, seed=None):
        return ExperimentReport(
            experiment_id="E99X",
            title="always fails",
            claim="test fixture",
            headers=["x"],
            rows=[[1]],
            checks={"never true": False},
        )

    register("E99X", "always fails")(runner)
    yield "E99X"
    del _REGISTRY["E99X"]


class TestFabricUnavailable:
    def test_unreachable_coordinator_exits_with_code_3(self, monkeypatch, capsys):
        from repro.fabric import protocol
        from repro.fabric.client import RemotePool
        from repro.utils.errors import FabricUnavailable

        def unreachable(self, path, payload):
            raise FabricUnavailable(f"cannot reach {self.url}{path}")

        monkeypatch.setattr(RemotePool, "_call", unreachable)
        assert protocol.FabricUnavailable is FabricUnavailable
        code = main(["sweep", "E1", "--remote", "http://127.0.0.1:9"])
        assert code == 3
        assert "cannot reach http://127.0.0.1:9/submit" in capsys.readouterr().err


class TestDeadPoolWorker:
    #: Two E4 tasks small enough to checkpoint once each.
    SWEEP = (
        "sweep E4 --replicates 2 --set n=20000 --set m=4 --set k_max=3 "
        "--set m_urn=8 --jobs 2 --resume --cache"
    ).split()

    def test_dead_worker_exits_with_code_3_naming_the_rerun(
        self, monkeypatch, capsys, tmp_path
    ):
        # Each forked worker SIGKILLs itself right after its task's first
        # checkpoint, so the pool breaks mid-task.
        cache = tmp_path / "cache"
        reset_faults()
        monkeypatch.setenv(FAULTS_ENV, "snapshot.post-save:1:kill")
        try:
            code = main([*self.SWEEP, str(cache)])
        finally:
            reset_faults()
        err = capsys.readouterr().err
        assert code == 3
        assert err.splitlines() == [
            "error: a pool worker died mid-task; rerun with --cache DIR to "
            "keep the finished cells (and --resume to continue a sweep's "
            "checkpointed tasks)"
        ]
        # The rerun it names resumes from the checkpoints left behind and
        # caches both cells (its exit code is the checks' verdict).
        assert list((cache / "snapshots").glob("*.snap"))
        monkeypatch.delenv(FAULTS_ENV)
        assert main([*self.SWEEP, str(cache)]) in (0, 1)
        assert len(list(cache.glob("*/*.json"))) == 2
        assert not list((cache / "snapshots").glob("*.snap"))


class TestSweepCommand:
    def test_sweep_passes_and_prints_rates(self, capsys):
        code = main(["sweep", "E1", "--replicates", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 replicate(s)" in out
        assert "[2/2]" in out

    def test_sweep_with_cache_reports_hits(self, capsys, tmp_path):
        arguments = [
            "sweep",
            "E1",
            "--replicates",
            "2",
            "--cache",
            str(tmp_path),
        ]
        assert main(arguments) == 0
        assert "cache hits: 0/2" in capsys.readouterr().out
        assert main(arguments) == 0
        assert "cache hits: 2/2" in capsys.readouterr().out

    def test_sweep_backends_grid(self, capsys):
        code = main(["sweep", "E2", "--replicates", "1", "--backends", "default"])
        assert code == 0
        assert "1 backend(s)" in capsys.readouterr().out

    def test_sweep_failing_experiment_exits_nonzero(
        self, capsys, failing_experiment
    ):
        assert main(["sweep", failing_experiment, "--replicates", "2"]) == 1
        assert "[0/2] never true" in capsys.readouterr().out

    def test_sweep_unknown_experiment_exits_2(self, capsys):
        assert main(["sweep", "E404"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestRunCommand:
    def test_run_with_cache_marks_cached(self, capsys, tmp_path):
        arguments = ["run", "E1", "--cache", str(tmp_path)]
        assert main(arguments) == 0
        assert "(cached)" not in capsys.readouterr().out
        assert main(arguments) == 0
        assert "(cached)" in capsys.readouterr().out

    def test_run_failing_experiment_exits_nonzero(self, failing_experiment):
        assert main(["run", failing_experiment]) == 1

    def test_run_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "E404"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "E1" in err  # the message lists the known ids

    def test_run_with_set_override(self, capsys):
        assert main(["run", "E1", "--set", "k=4"]) == 0
        out = capsys.readouterr().out
        assert "g_4" in out
        assert "g_5" not in out

    def test_run_with_profile_flag(self, capsys):
        assert main(["run", "E1", "--profile", "full"]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_reports_print_alike_for_every_jobs_value(self, capsys):
        # One plan and one render path for every --jobs value: the text
        # differs only in the per-report "(N.Ns)" timing lines.
        from repro import cli

        printed = {}
        for jobs in (1, 2):
            args = cli._build_parser().parse_args(["run", "all", "--jobs", str(jobs)])
            assert cli._run_plan_and_render(["E1", "E2", "E8"], args) == 0
            printed[jobs] = [
                line
                for line in capsys.readouterr().out.splitlines()
                if not re.fullmatch(r"\(\d+\.\ds\)", line)
            ]
        assert printed[1] == printed[2]
        headers = [line for line in printed[1] if line.startswith("== ")]
        assert [line.split(":")[0] for line in headers] == ["== E1", "== E2", "== E8"]


class TestCliErrorPaths:
    """Bad user input exits 2 with a schema-aware message on stderr."""

    def test_bad_set_key_lists_valid_params(self, capsys):
        assert main(["run", "E1", "--set", "zz=3"]) == 2
        err = capsys.readouterr().err
        assert "unknown parameter 'zz'" in err
        assert "valid parameters: k, g_max" in err

    def test_bad_set_value_names_the_constraint(self, capsys):
        assert main(["run", "E1", "--set", "k=one"]) == 2
        assert "expects int" in capsys.readouterr().err

    def test_out_of_range_set_value(self, capsys):
        assert main(["run", "E1", "--set", "k=1"]) == 2
        assert ">= 2" in capsys.readouterr().err

    def test_malformed_set_pair(self, capsys):
        assert main(["run", "E1", "--set", "k"]) == 2
        assert "name=value" in capsys.readouterr().err

    def test_malformed_grid_axis(self, capsys):
        assert main(["sweep", "E1", "--grid", "k=2:4"]) == 2
        assert "start:stop:count" in capsys.readouterr().err

    def test_grid_unknown_param_lists_schema(self, capsys):
        assert main(["sweep", "E2", "--grid", "zz=1,2"]) == 2
        err = capsys.readouterr().err
        assert "unknown parameter 'zz'" in err
        assert "valid parameters: k, a, b, m" in err

    def test_set_with_multiple_experiments_rejected(self, capsys):
        assert main(["run", "all", "--set", "k=4"]) == 2
        assert "single experiment" in capsys.readouterr().err


class TestGridSweepCommand:
    def test_grid_sweep_runs_cartesian_product(self, capsys):
        code = main(["sweep", "E2", "--grid", "a=0.25,0.3", "--grid", "m=3,4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 point(s)" in out
        assert "a=0.25,m=3" in out
        assert "a=0.3,m=4" in out

    def test_grid_sweep_range_axis(self, capsys):
        code = main(["sweep", "E1", "--grid", "k=3:5:3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "k=3" in out and "k=4" in out and "k=5" in out

    def test_grid_sweep_with_cache_hits(self, capsys, tmp_path):
        arguments = ["sweep", "E1", "--grid", "k=3,4", "--cache", str(tmp_path)]
        assert main(arguments) == 0
        assert "cache hits: 0/2" in capsys.readouterr().out
        assert main(arguments) == 0
        assert "cache hits: 2/2" in capsys.readouterr().out

    def test_grid_sweep_equivalent_spellings_hit_cache(self, capsys, tmp_path):
        assert main(["sweep", "E1", "--grid", "k=3,4", "--cache", str(tmp_path)]) == 0
        capsys.readouterr()
        # 3e0 spells 3: resolves to the same canonical point -> cache hit.
        spelled = ["sweep", "E1", "--grid", "k=3e0,4", "--cache", str(tmp_path)]
        assert main(spelled) == 0
        assert "cache hits: 2/2" in capsys.readouterr().out

    def test_grid_sweep_multi_backend_rejected(self, capsys):
        arguments = ["sweep", "E4", "--grid", "n=100,200", "--backends", "count,agent"]
        assert main(arguments) == 2
        assert "single --backends" in capsys.readouterr().err


class TestParamsCommand:
    def test_params_prints_schema_table(self, capsys):
        assert main(["params", "E4"]) == 0
        out = capsys.readouterr().out
        assert "n" in out and "eps" in out
        assert "200000" in out      # fast default
        assert "1000000" in out     # full profile override

    def test_params_lowercase_id(self, capsys):
        assert main(["params", "e4"]) == 0
        assert "eps" in capsys.readouterr().out

    def test_params_json_round_trips(self, capsys):
        from repro.experiments import get_spec

        assert main(["params", "E4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == get_spec("E4").params.to_dict()

    def test_params_unknown_experiment_exits_2(self, capsys):
        assert main(["params", "E404"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_params_all_prints_every_schema(self, capsys):
        from repro.experiments import all_experiments

        assert main(["params", "--all"]) == 0
        out = capsys.readouterr().out
        for experiment_id, title in all_experiments():
            assert f"{experiment_id}: {title}" in out

    def test_params_all_json_keyed_by_id(self, capsys):
        from repro.experiments import all_experiments, get_spec

        assert main(["params", "--all", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == sorted(
            eid for eid, _ in all_experiments())
        for experiment_id, schema in payload.items():
            assert schema == get_spec(experiment_id).params.to_dict()

    def test_params_without_id_or_all_exits_2(self, capsys):
        assert main(["params"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_params_id_and_all_conflict_exits_2(self, capsys):
        assert main(["params", "E4", "--all"]) == 2
        assert "not both" in capsys.readouterr().err


class TestCacheCommand:
    def fill_cache(self, tmp_path) -> str:
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "E1", "--cache", cache_dir]) == 0
        assert main(["run", "E2", "--cache", cache_dir]) == 0
        return cache_dir

    def test_info_reports_entries(self, capsys, tmp_path):
        cache_dir = self.fill_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "info", "--cache", cache_dir]) == 0
        assert "2 entries" in capsys.readouterr().out

    def test_prune_by_size_evicts_everything_at_zero(self, capsys, tmp_path):
        cache_dir = self.fill_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "prune", "--cache", cache_dir, "--max-size", "0"]) == 0
        assert "evicted 2 entries" in capsys.readouterr().out

    def test_prune_by_age_keeps_fresh_entries(self, capsys, tmp_path):
        cache_dir = self.fill_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "prune", "--cache", cache_dir, "--max-age", "7d"]) == 0
        assert "evicted 0 entries, kept 2" in capsys.readouterr().out

    def test_prune_without_policy_exits_2(self, capsys, tmp_path):
        assert main(["cache", "prune", "--cache", str(tmp_path)]) == 2
        assert "--max-age" in capsys.readouterr().err

    def test_prune_malformed_age_exits_2(self, capsys, tmp_path):
        arguments = ["cache", "prune", "--cache", str(tmp_path), "--max-age", "soon"]
        assert main(arguments) == 2
        assert "malformed age" in capsys.readouterr().err

    def test_info_json_is_strict_and_machine_readable(self, capsys, tmp_path):
        cache_dir = self.fill_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "info", "--cache", cache_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["root"] == cache_dir
        assert payload["entries"] == 2
        assert payload["bytes"] > 0

    def test_info_json_on_empty_cache(self, capsys, tmp_path):
        assert main(["cache", "info", "--cache", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 0
        assert payload["bytes"] == 0


class TestHumanUnits:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("3600", 3600.0),
            ("90s", 90.0),
            ("5m", 300.0),
            ("12h", 43200.0),
            ("7d", 604800.0),
            ("1w", 604800.0),
        ],
    )
    def test_parse_age(self, spec, expected):
        assert parse_age(spec) == expected

    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("4096", 4096),
            ("2k", 2048),
            ("100M", 100 * 1024**2),
            ("1G", 1024**3),
        ],
    )
    def test_parse_size(self, spec, expected):
        assert parse_size(spec) == expected

    @pytest.mark.parametrize(
        "parse,bad",
        [
            (parse_age, "soon"),
            (parse_age, "-5"),
            (parse_age, "nan"),
            (parse_age, "inf"),
            (parse_size, "big"),
            (parse_size, "-1"),
            (parse_size, "nan"),
            (parse_size, "inf"),
        ],
    )
    def test_malformed_rejected(self, parse, bad):
        with pytest.raises(InvalidParameterError):
            parse(bad)


class TestSweepOutputRecords:
    def test_replicate_sweep_writes_jsonl(self, capsys, tmp_path):
        path = tmp_path / "records.jsonl"
        arguments = [
            "sweep",
            "E1",
            "--replicates",
            "2",
            "--output",
            str(path),
        ]
        code = main(arguments)
        assert code == 0
        assert f"wrote 2 record(s) to {path}" in capsys.readouterr().out
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert [record["label"] for record in records] == ["r0", "r1"]
        for record in records:
            assert record["experiment"] == "E1"
            assert record["from_cache"] is False
            assert record["report"]["experiment_id"] == "E1"
            assert record["report"]["checks"]

    def test_grid_sweep_records_carry_points(self, capsys, tmp_path):
        path = tmp_path / "grid.jsonl"
        arguments = [
            "sweep",
            "E6",
            "--grid",
            "samples=20,30",
            "--set",
            "tol=0.2",
            "--output",
            str(path),
        ]
        assert main(arguments) == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [record["params"]["samples"] for record in records] == [20, 30]
        assert all(record["params"]["tol"] == 0.2 for record in records)

    def test_records_are_strict_json(self, tmp_path):
        path = tmp_path / "strict.jsonl"
        arguments = ["sweep", "E1", "--replicates", "1", "--output", str(path)]
        assert main(arguments) == 0

        def reject(token):
            raise AssertionError(f"non-strict literal {token}")

        # strict decode: json.loads with a parse_constant hook that
        # rejects the non-portable NaN/Infinity literals
        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=reject)


class TestFabricCli:
    def test_serve_without_cache_exits_2(self, capsys):
        assert main(["serve"]) == 2
        assert "--cache" in capsys.readouterr().err

    def test_serve_grid_without_experiment_exits_2(self, capsys, tmp_path):
        arguments = ["serve", "--cache", str(tmp_path), "--grid", "n=1e4"]
        assert main(arguments) == 2
        assert "experiment" in capsys.readouterr().err

    def test_shutdown_without_remote_exits_2(self, capsys):
        assert main(["sweep", "E1", "--shutdown"]) == 2
        assert "--remote" in capsys.readouterr().err

    def test_worker_against_dead_coordinator_exits_1(self, capsys):
        arguments = ["worker", "--remote", "http://127.0.0.1:1", "--retries", "0"]
        assert main(arguments) == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--poll", "-1"),
            ("--backoff", "-1"),
            ("--retries", "-1"),
            ("--max-tasks", "0"),
        ],
    )
    def test_worker_invalid_option_exits_2(self, capsys, flag, value):
        # Refused before the first request, not at a dead coordinator.
        arguments = ["worker", "--remote", "http://127.0.0.1:1", "--retries", "0"]
        assert main([*arguments, flag, value]) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_serve_worker_sweep_round_trip(self, tmp_path):
        # The whole fabric driven purely through CLI entry points:
        # coordinator and worker on background threads, a remote sweep
        # with --shutdown in the foreground, all via main().
        import socket
        import threading
        import time as time_module

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        url = f"http://127.0.0.1:{port}"
        codes = {}

        def serve():
            codes["serve"] = main(
                ["serve", "--cache", str(tmp_path / "cache"), "--port", str(port)]
            )

        def work():
            codes["worker"] = main(["worker", "--remote", url, "--poll", "0.05"])

        serve_thread = threading.Thread(target=serve, daemon=True)
        serve_thread.start()
        from repro.fabric import FabricUnavailable
        from repro.fabric.protocol import call_with_retries

        for _ in range(100):
            try:
                call_with_retries(url, "/status", {}, retries=0)
                break
            except FabricUnavailable:
                time_module.sleep(0.05)
        worker_thread = threading.Thread(target=work, daemon=True)
        worker_thread.start()

        records_path = tmp_path / "remote.jsonl"
        code = main(
            [
                "sweep",
                "E1",
                "--replicates",
                "2",
                "--remote",
                url,
                "--shutdown",
                "--output",
                str(records_path),
            ]
        )
        assert code == 0
        worker_thread.join(timeout=10.0)
        serve_thread.join(timeout=10.0)
        assert codes == {"serve": 0, "worker": 0}

        records = [
            json.loads(line)
            for line in records_path.read_text().splitlines()
        ]
        assert [record["source"] for record in records] == ["executed"] * 2
        assert all(record["worker"] for record in records)


class TestSweepSeries:
    E13_FAST = ["--set", "n=100", "--set", "m_urn=8", "--set", "m3=3"]

    def test_series_streams_and_reports(self, capsys, tmp_path):
        series_dir = tmp_path / "series"
        arguments = (["sweep", "E13", "--replicates", "2"]
                     + self.E13_FAST + ["--series", str(series_dir)])
        # Tiny-n E13 fails its physics checks (exit 1); streaming is
        # independent of check outcomes.
        assert main(arguments) in (0, 1)
        out = capsys.readouterr().out
        assert f"streamed 2 series file(s) under {series_dir}" in out
        files = sorted(series_dir.glob("*--coalescence.jsonl"))
        assert len(files) == 2
        for path in files:
            assert path.stat().st_size > 0

    def test_series_paths_land_in_output_records(self, capsys, tmp_path):
        series_dir = tmp_path / "series"
        records_path = tmp_path / "records.jsonl"
        arguments = (["sweep", "E13", "--replicates", "1"]
                     + self.E13_FAST
                     + ["--series", str(series_dir),
                        "--output", str(records_path)])
        assert main(arguments) in (0, 1)
        (record,) = [json.loads(line)
                     for line in records_path.read_text().splitlines()]
        assert len(record["series"]) == 1
        assert record["series"][0].endswith("--coalescence.jsonl")

    def test_records_without_series_have_no_key(self, capsys, tmp_path):
        records_path = tmp_path / "records.jsonl"
        arguments = (["sweep", "E13", "--replicates", "1"]
                     + self.E13_FAST + ["--output", str(records_path)])
        assert main(arguments) in (0, 1)
        (record,) = [json.loads(line)
                     for line in records_path.read_text().splitlines()]
        assert "series" not in record

    def test_series_with_remote_exits_2(self, capsys, tmp_path):
        arguments = ["sweep", "E1", "--remote", "http://127.0.0.1:1",
                     "--series", str(tmp_path)]
        assert main(arguments) == 2
        assert "--series" in capsys.readouterr().err

    def test_resume_with_remote_exits_2(self, capsys):
        arguments = ["sweep", "E1", "--remote", "http://127.0.0.1:1", "--resume"]
        assert main(arguments) == 2
        assert "--resume applies to local sweeps" in capsys.readouterr().err

    def test_token_without_remote_exits_2(self, capsys):
        assert main(["sweep", "E1", "--token", "secret"]) == 2
        assert "--token only applies" in capsys.readouterr().err

    def test_resume_without_cache_exits_2(self, capsys):
        assert main(["sweep", "E1", "--resume"]) == 2
        assert "--resume needs --cache" in capsys.readouterr().err

    def test_usage_error_does_not_truncate_output(self, capsys, tmp_path):
        # Validation happens before the record writer opens the file.
        records_path = tmp_path / "records.jsonl"
        records_path.write_text('{"precious": true}\n')
        arguments = ["sweep", "E1", "--remote", "http://127.0.0.1:1",
                     "--series", str(tmp_path / "series"),
                     "--output", str(records_path)]
        assert main(arguments) == 2
        assert records_path.read_text() == '{"precious": true}\n'


class TestSimulateObserve:
    BASE = ["simulate", "--n", "500", "--k", "3", "--steps", "20000",
            "--backend", "count", "--seed", "7"]

    def test_jsonl_stream(self, capsys, tmp_path):
        path = tmp_path / "trajectory.jsonl"
        arguments = self.BASE + ["--observe-every", "5000",
                                 "--observe", f"jsonl:{path}"]
        assert main(arguments) == 0
        out = capsys.readouterr().out
        assert f"streamed 5 observation record(s)" in out
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        first = json.loads(lines[0])
        assert first["step"] == 0
        assert sum(first["counts"]) == 500

    def test_reducer_summary(self, capsys):
        arguments = self.BASE + ["--observe-every", "5000",
                                 "--observe", "mean"]
        assert main(arguments) == 0
        out = capsys.readouterr().out
        assert "observer summary: " in out
        summary = json.loads(out.split("observer summary: ")[1]
                             .splitlines()[0])
        assert summary["kind"] == "mean"
        assert summary["observations"] == 5

    def test_observe_without_cadence_exits_2(self, capsys):
        assert main(self.BASE + ["--observe", "mean"]) == 2
        assert "--observe-every" in capsys.readouterr().err

    @pytest.mark.parametrize("snapshots", [False, True],
                             ids=["plain", "snapshots"])
    def test_cadence_without_observe_exits_2(self, capsys, tmp_path,
                                             snapshots):
        # Refused before the simulation is built (no header line), so a
        # --snapshots run leaves no checkpoint it could not resume.
        arguments = self.BASE + ["--observe-every", "5000"]
        if snapshots:
            arguments += ["--snapshots", str(tmp_path / "snaps")]
        assert main(arguments) == 2
        captured = capsys.readouterr()
        assert "--observe-every needs --observe" in captured.err
        assert "k-IGT" not in captured.out
        assert not (tmp_path / "snaps").exists()

    @pytest.mark.parametrize("snapshots", [False, True],
                             ids=["plain", "snapshots"])
    def test_zero_steps_stream_the_start_record(self, capsys, tmp_path,
                                                snapshots):
        # steps // every + 1 records, also for an empty budget.
        path = tmp_path / "trajectory.jsonl"
        arguments = ["simulate", "--n", "500", "--k", "3", "--steps", "0",
                     "--backend", "count", "--observe-every", "100",
                     "--observe", f"jsonl:{path}"]
        if snapshots:
            arguments += ["--snapshots", str(tmp_path / "snaps")]
        assert main(arguments) == 0
        (line,) = path.read_text().splitlines()
        record = json.loads(line)
        assert record["step"] == 0 and sum(record["counts"]) == 500

    @pytest.mark.parametrize("snapshots", [False, True],
                             ids=["plain", "snapshots"])
    @pytest.mark.parametrize("cadence", ["0", "-3"])
    def test_non_positive_cadence_exits_2(self, capsys, tmp_path, cadence,
                                          snapshots):
        # The segmented (--snapshots) path refuses the cadence with the
        # same message as the plain run, before any segment arithmetic.
        arguments = self.BASE + ["--observe-every", cadence, "--observe",
                                 f"jsonl:{tmp_path / 'trajectory.jsonl'}"]
        if snapshots:
            arguments += ["--snapshots", str(tmp_path / "snaps")]
        assert main(arguments) == 2
        assert f"observe_every must be >= 1, got {cadence}" in \
            capsys.readouterr().err

    def test_degree_profile_needs_topology(self, capsys):
        arguments = self.BASE + ["--observe-every", "5000",
                                 "--observe", "degree-profile"]
        assert main(arguments) == 2
        assert "topology" in capsys.readouterr().err

    def test_degree_profile_on_a_graph(self, capsys):
        arguments = ["simulate", "--n", "200", "--k", "3", "--steps",
                     "20000", "--backend", "agent", "--seed", "7",
                     "--topology", "ring:2", "--observe-every", "5000",
                     "--observe", "degree-profile"]
        assert main(arguments) == 0
        out = capsys.readouterr().out
        summary = json.loads(out.split("observer summary: ")[1]
                             .splitlines()[0])
        assert summary["kind"] == "degree-profile"
        assert summary["classes"] == [4]  # ring:2 is 4-regular

    @pytest.mark.parametrize("noise", ["0", "0.1"])
    @pytest.mark.parametrize("backend", ["agent", "count"])
    def test_same_stream_with_or_without_snapshots(self, capsys, tmp_path,
                                                   backend, noise):
        # Every run is segmented the same way; --snapshots only adds the
        # checkpoints, so a seed gives one trajectory either way — noisy
        # runs too, whose uniforms are drawn per chunk.
        run = ["simulate", "--n", "2000", "--k", "4", "--backend", backend]
        run += ["--steps", "40000", "--seed", "3", "--observe-every", "2000",
                "--noise", noise]
        snapshots = ["--snapshots", str(tmp_path / "snaps")]
        printed = {}
        for name, extra in (("plain", []), ("saved", snapshots)):
            path = tmp_path / f"{name}.jsonl"
            assert main(run + ["--observe", f"jsonl:{path}"] + extra) == 0
            printed[name] = capsys.readouterr().out.replace(str(path), "PATH")
        plain = (tmp_path / "plain.jsonl").read_bytes()
        assert plain == (tmp_path / "saved.jsonl").read_bytes()
        assert len(plain.splitlines()) == 21
        assert printed["plain"] == printed["saved"]

    def test_snapshots_run_completes_and_clears(self, capsys, tmp_path):
        path = tmp_path / "trajectory.jsonl"
        arguments = self.BASE + ["--observe-every", "5000",
                                 "--observe", f"jsonl:{path}",
                                 "--snapshots", str(tmp_path / "snaps")]
        assert main(arguments) == 0
        assert len(path.read_text().splitlines()) == 5
        leftovers = list((tmp_path / "snaps").glob("*"))
        assert leftovers == []
