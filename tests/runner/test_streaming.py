"""Runner-level streaming: per-task series files and record streaming.

The sweep executor binds an ambient series scope per task (keyed like
the result cache), discovers whatever JSONL series the experiment
streamed, carries the paths on :class:`~repro.runner.plan.TaskResult`
and through the cache, and hands finished records to a
``record_stream`` callback in task order the moment each task's
done-prefix completes.  E13 is the streaming experiment of record: its
coalescence probe rows go to a ``coalescence`` series whenever a scope
is bound.
"""

import json
import os

from repro.engine.observe import SERIES_DIR_ENV, decode_record
from repro.runner import RunPlan, RunTask, execute, run_task, task_record
from repro.runner.executor import _task_cache_key

E13_FAST = {"n": 100, "m_urn": 8, "m3": 3}


def e13_task(seed=3):
    return RunTask(experiment_id="E13", seed=seed, params=E13_FAST)


def series_files(root):
    return sorted(str(path) for path in root.glob("*.jsonl"))


class TestSeriesScope:
    def test_no_env_means_no_series(self, tmp_path):
        assert SERIES_DIR_ENV not in os.environ
        run_task(e13_task())
        assert series_files(tmp_path) == []

    def test_env_scope_streams_task_series(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SERIES_DIR_ENV, str(tmp_path))
        task = e13_task()
        run_task(task)
        found = series_files(tmp_path)
        assert len(found) == 1
        name = os.path.basename(found[0])
        assert name.startswith(_task_cache_key(task))
        assert name.endswith("--coalescence.jsonl")
        with open(found[0], "rb") as handle:
            rows = [decode_record(line) for line in handle]
        assert rows  # the probe cadence produced real observations
        steps = [step for step, _ in rows]
        assert steps == sorted(steps)


class TestExecuteSeries:
    def test_results_carry_series_paths(self, tmp_path):
        plan = RunPlan(tasks=(e13_task(3), e13_task(4)))
        report = execute(plan, series_dir=tmp_path / "series")
        assert SERIES_DIR_ENV not in os.environ
        for result in report.results:
            assert len(result.series) == 1
            assert os.path.exists(result.series[0])
            assert "--coalescence.jsonl" in result.series[0]

    def test_series_survive_the_cache(self, tmp_path):
        plan = RunPlan(tasks=(e13_task(),),
                       cache_dir=str(tmp_path / "cache"))
        first = execute(plan, series_dir=tmp_path / "series")
        second = execute(plan, series_dir=tmp_path / "series")
        assert [r.source for r in second.results] == ["cache"]
        assert second.results[0].series == first.results[0].series

    def test_records_without_series_are_unchanged(self, tmp_path):
        # Byte-compat: a series-free run's records must not grow a key.
        plan = RunPlan(tasks=(e13_task(),))
        report = execute(plan)
        record = task_record(report.results[0])
        assert "series" not in record
        streamed = execute(plan, series_dir=tmp_path / "series")
        with_series = task_record(streamed.results[0])
        assert "series" in with_series
        del with_series["series"]
        assert sorted(with_series) == sorted(record)


class TestRecordStream:
    def test_streams_in_task_order(self):
        plan = RunPlan(tasks=(e13_task(3), e13_task(4), e13_task(5)))
        seen = []
        report = execute(plan, record_stream=seen.append)
        assert [r.task.seed for r in seen] == [3, 4, 5]
        assert seen == list(report.results)

    def test_streams_cache_hits_too(self, tmp_path):
        plan = RunPlan(tasks=(e13_task(),),
                       cache_dir=str(tmp_path / "cache"))
        execute(plan)
        seen = []
        execute(plan, record_stream=seen.append)
        assert len(seen) == 1

    def test_streamed_records_serialize_like_the_report(self, tmp_path):
        plan = RunPlan(tasks=(e13_task(),))
        lines = []
        report = execute(
            plan,
            record_stream=lambda r: lines.append(
                json.dumps(task_record(r), sort_keys=True,
                           allow_nan=False)))
        assert [json.loads(line) for line in lines] == [
            task_record(result) for result in report.results
        ]
