"""Self-time arithmetic, span recording, and the metric catalogue."""

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from layers import END_TO_END, PER_LAYER  # noqa: E402
from run import tail  # noqa: E402
from spans import (  # noqa: E402
    Recorder,
    covered,
    load_spans,
    outermost,
    self_times,
    top_self_table,
    wrap_attr,
)


def span(span_id, parent, start, end, name="x", pid=1):
    return {"id": span_id, "parent": parent, "name": name, "start": start,
            "end": end, "pid": pid, "attrs": {}}


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0)]) == 4.0
    assert covered(0.0, 10.0, [(-5.0, 2.0), (8.0, 20.0)]) == 4.0
    assert covered(0.0, 10.0, [(2.0, 4.0), (2.5, 3.0)]) == 2.0
    assert covered(0.0, 10.0, [(11.0, 12.0)]) == 0.0


def test_self_time_nested_children():
    # root [0,10] > a [1,4] > b [2,3]; root > c [5,6]
    spans = [span(1, None, 0, 10), span(2, 1, 1, 4), span(3, 2, 2, 3),
             span(4, 1, 5, 6)]
    selfs = self_times(spans)
    assert selfs[(1, 1)] == pytest.approx(10 - 3 - 1)
    assert selfs[(1, 2)] == pytest.approx(3 - 1)
    assert selfs[(1, 3)] == pytest.approx(1)
    assert selfs[(1, 4)] == pytest.approx(1)
    # Self times partition a single-threaded root exactly.
    assert sum(selfs.values()) == pytest.approx(10)


def test_self_time_overlapping_children_counted_once():
    # Two children on different threads overlap in [3, 4].
    spans = [span(1, None, 0, 10), span(2, 1, 2, 4), span(3, 1, 3, 6)]
    assert self_times(spans)[(1, 1)] == pytest.approx(10 - 4)


def test_self_time_child_outliving_parent_is_clipped():
    spans = [span(1, None, 0, 5), span(2, 1, 4, 9)]
    assert self_times(spans)[(1, 1)] == pytest.approx(4)


def test_self_time_keys_by_process():
    spans = [span(1, None, 0, 10, pid=1), span(1, None, 0, 10, pid=2),
             span(2, 1, 0, 4, pid=2)]
    selfs = self_times(spans)
    assert selfs[(1, 1)] == pytest.approx(10)
    assert selfs[(2, 1)] == pytest.approx(6)


def test_off_stack_span_adopts_siblings_within_it(tmp_path):
    # A pool span recorded after the fact over [1, 6] while its caller
    # ran cache spans at [2, 3] and [4, 5] (inside) and [7, 8] (after).
    recorder = Recorder()
    root = recorder.add("execute", 0.0, 10.0)
    inside = [recorder.add("get", 2.0, 3.0, parent=root),
              recorder.add("put", 4.0, 5.0, parent=root)]
    after = recorder.add("put", 7.0, 8.0, parent=root)
    pool = recorder.add("pool", 1.0, 6.0, parent=root)
    recorder.adopt(pool, root, 1.0, 6.0)
    parents = {span[0]: span[1] for span in recorder.spans}
    assert [parents[i] for i in inside] == [pool, pool]
    assert parents[after] == root and parents[pool] == root
    path = tmp_path / "spans.jsonl"
    recorder.dump(path)
    selfs = self_times(load_spans(path)[1])
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert selfs[(os.getpid(), pool)] == pytest.approx(3.0)


def test_outermost_skips_same_name_nesting():
    spans = [span(1, None, 0, 10, "cap"), span(2, 1, 1, 9, "cap"),
             span(3, None, 11, 12, "cap"), span(4, 3, 11, 12, "enc")]
    assert [s["id"] for s in outermost(spans, "cap")] == [1, 3]
    table = {row[0]: row for row in top_self_table(spans)}
    assert table["cap"][1] == 3


def test_recorder_wraps_and_dumps(tmp_path):
    class Target:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    recorder = Recorder("w", "r")
    assert wrap_attr(recorder, Target, "outer", "layer.outer")
    assert wrap_attr(recorder, Target, "inner", "layer.inner")
    assert not wrap_attr(recorder, Target, "absent", "layer.absent")
    assert Target().outer() == 42
    path = tmp_path / "spans.jsonl"
    recorder.dump(path)
    header, spans = load_spans(path)
    assert header["missing"] == ["Target.absent"]
    by_name = {s["name"]: s for s in spans}
    assert by_name["layer.inner"]["parent"] == by_name["layer.outer"]["id"]
    assert by_name["layer.outer"]["parent"] is None
    assert by_name["layer.outer"]["workload"] == "w"


def test_tail_needs_ten_samples_beyond():
    assert tail(list(range(19))) is None
    assert tail(list(range(20)))[0] == 50.0
    assert tail(list(range(100)))[0] == 90.0
    assert tail(list(range(1000)))[0] == 99.0


def test_catalogue_matches_benchmark_json():
    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["e2ebench"]
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    assert e2e == {name: (unit, better)
                   for name, (unit, better, _) in END_TO_END.items()}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert layer == {name: unit for name, (unit, _) in PER_LAYER.items()}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    from workloads import WORKLOADS

    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
