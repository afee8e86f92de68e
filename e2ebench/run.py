"""End-to-end benchmark of the ``repro`` CLI: four closed-loop workloads.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload simulate-agent-ckpt --seed 1 \\
        --seconds 26 --trace 0

One client runs an operation, waits for it to finish, checks its
outputs, and starts the next, until ``--seconds`` is used up (at least
two operations; four when traced).  ``--trace 0`` prints every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
operations and prints every per-layer metric, measured from spans that
wrappers around each layer's entry points record in the program's
processes (see ``spans.py``).  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Details
(provenance, every sample, span self-time tables) go to
``.e2ebench/out/<workload>-s<seed>-t<trace>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import END_TO_END, PER_LAYER  # noqa: E402
from proc import ProcError, program_env  # noqa: E402
from spans import load_spans, outermost, self_times, top_self_table  # noqa: E402

#: Seconds after which every program process still running is killed
#: and the run fails (a run must end within 180 s).
RUN_LIMIT_S = 165.0

#: Standard percentiles, highest first, for the tail-latency column.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float] | None:
    """``(p, value)`` for the highest standard percentile with at least
    ten samples beyond it, or ``None`` when there are too few samples."""
    values = sorted(values)
    for level in TAIL_LEVELS:
        if round(len(values) * (100.0 - level) / 100.0, 9) >= 10:
            index = min(len(values) - 1,
                        int(round(level / 100.0 * (len(values) - 1))))
            return level, values[index]
    return None


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _git(*args) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    memory = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                memory = int(line.split()[1]) // 1024
    except OSError:
        pass
    status = _git("status", "--porcelain")
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": _git("rev-parse", "HEAD") or "unknown",
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "mem_total_mb": memory,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "host": platform.node(),
    }


def load_average(label: str) -> float:
    load = os.getloadavg()[0]
    if load > (os.cpu_count() or 1):
        print(f"warning: load average {load:.2f} {label} exceeds nproc "
              f"{os.cpu_count()}; figures may be noisy", file=sys.stderr)
    return load


# ----------------------------------------------------------------------
# Per-layer metrics from span files
# ----------------------------------------------------------------------
def import_seconds(env) -> float:
    """Fresh-interpreter import of ``repro.runner.executor`` minus a
    bare interpreter start (medians of three each)."""
    def timed(code):
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env,
                           cwd=ROOT, check=True)
            samples.append(time.perf_counter() - start)
        return median(samples)

    return timed("import repro.runner.executor") - timed("pass")


def layer_metrics(op, spans_by_file: dict) -> tuple:
    """The per-layer values of one traced operation's uninterrupted (or
    cold) processes, and their per-call latency samples."""
    spans = [span for path in op.span_files
             for span in spans_by_file.get(path, [])]

    def total(name, key=None):
        found = outermost(spans, name)
        if key is None:
            return sum(span["end"] - span["start"] for span in found)
        return sum(span["attrs"].get(key, 0) for span in found)

    def count(name, predicate=None):
        return sum(1 for span in outermost(spans, name)
                   if predicate is None or predicate(span))

    selfs = self_times(spans)
    save_self = sum(selfs[(span["pid"], span["id"])]
                    for span in outermost(spans, "snapshot.save"))
    pools = outermost(spans, "runner.pool")
    first = [span["attrs"]["first_result"]
             - span["attrs"]["first_task_seconds"]
             for span in pools if "first_result" in span["attrs"]]
    leases = [span["end"] - span["start"]
              for span in outermost(spans, "fabric.lease")]
    flushes = outermost(spans, "observe.flush")
    sinks = {}
    for span in flushes:  # cumulative per sink: keep each process's last
        sinks[span["pid"]] = span["attrs"]
    wall = op.extra["wall_s"]
    task_s = op.extra.get("task_s", 0.0)
    workers = op.extra.get("workers", 1)
    main = spans_by_file.get(op.main_spans, [])
    main_self = sum(selfs[(span["pid"], span["id"])] for span in main)
    return {
        "engine.setup_s": total("engine.setup"),
        "engine.run_s": total("engine.run"),
        "engine.run_calls": count("engine.run"),
        "engine.interactions": total("engine.run", "interactions"),
        "engine.pair_draw_s": total("engine.pair_draw"),
        "engine.apply_chunk_s": total("engine.apply_chunk"),
        "engine.begin_run_s": total("engine.begin_run"),
        "engine.sync_counts_s": total("engine.sync_counts"),
        "snapshot.capture_s": total("snapshot.capture"),
        "snapshot.encode_s": total("snapshot.encode"),
        "snapshot.save_s": save_self,
        "snapshot.saves": count("snapshot.save"),
        "snapshot.bytes": total("snapshot.save", "bytes"),
        "observe.emit_s": total("observe.emit"),
        "observe.flush_s": total("observe.flush"),
        "observe.records": sum(a.get("records", 0) for a in sinks.values()),
        "observe.bytes": sum(a.get("bytes", 0) for a in sinks.values()),
        "runner.first_result_s": median(first),
        "runner.task_s": task_s,
        "runner.task_share": task_s / (wall * workers),
        "runner.cache_get_s": total("runner.cache_get"),
        "runner.cache_hits": count("runner.cache_get",
                                   lambda s: s["attrs"].get("hit")),
        "runner.cache_put_s": total("runner.cache_put"),
        "runner.cache_puts": count("runner.cache_put"),
        "fabric.lease_rtt_s": median(leases),
        "fabric.leases": count("fabric.lease",
                               lambda s: s["attrs"].get("leased")),
        "fabric.empty_polls": count("fabric.lease",
                                    lambda s: not s["attrs"].get("leased")),
        "fabric.snapshot_upload_s": total("fabric.snapshot_upload"),
        "fabric.snapshot_uploads": count("fabric.snapshot_upload"),
        "fabric.snapshot_upload_bytes": total("fabric.snapshot_upload",
                                              "bytes"),
        "fabric.result_submit_s": total("fabric.result_submit"),
        "fabric.duplicate_executions": op.extra.get("duplicates", 0),
        "trace.self_share": main_self / wall,
    }, {"fabric.lease_rtt_s": leases,
        "snapshot.save_call_s": [s["end"] - s["start"]
                                 for s in outermost(spans, "snapshot.save")],
        "observe.emit_call_s": [s["end"] - s["start"]
                                for s in outermost(spans, "observe.emit")],
        "runner.cache_get_call_s": [
            s["end"] - s["start"] for s in outermost(spans,
                                                     "runner.cache_get")]}


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def closed_loop(workload, seconds: float, trace: bool, log) -> list:
    """Run operations until ``seconds`` would be exceeded; with
    ``trace``, alternate untraced and traced ones."""
    ops = []
    start = time.perf_counter()
    while True:
        traced = trace and len(ops) % 2 == 1
        began = time.perf_counter()
        op = workload.op(traced)
        op.extra["traced"] = traced
        op.extra["op_seconds"] = time.perf_counter() - began
        ops.append(op)
        measured = " ".join(f"{name} {median(values):.4g}"
                            for name, values in op.samples.items())
        log(f"op {len(ops)} traced={int(traced)}: {measured} "
            f"failed {op.failed}/{op.attempted}"
            + (f" {op.problems[:2]}" if op.problems else ""))
        elapsed = time.perf_counter() - start
        estimate = median(o.extra["op_seconds"] for o in ops)
        if len(ops) >= workload.min_ops(trace) \
                and elapsed + estimate > seconds:
            return ops


def summarize(values: list, unit: str) -> dict:
    entry = {"median": median(values), "n": len(values), "unit": unit}
    high = tail(values)
    if high is not None:
        entry[f"p{high[0]:g}"] = high[1]
    return entry


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "tiny"), default="bench",
                        help="operation sizes ('tiny' is for the tests)")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    label = f"{args.workload}-s{args.seed}-t{args.trace}"
    out = ROOT / ".e2ebench" / "out" / label
    work = ROOT / ".e2ebench" / "work" / f"{label}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    work.mkdir(parents=True)
    env = program_env(ROOT)
    sys.path.insert(1, str(ROOT / "src"))

    def log(message):
        print(f"[{args.workload}] {message}", flush=True)

    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "scale": args.scale, "provenance": provenance()}
    # Byte-compile the program and load its modules once, so no timed
    # process compiles it or reads it from a cold page cache.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src" / "repro")], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    subprocess.run([sys.executable, "-m", "repro", "list"], env=env,
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    info["load_before"] = load_average("before the run")
    ctx = SimpleNamespace(root=ROOT, env=env, seed=args.seed, work=work,
                          scale=args.scale, run_id=label,
                          trace=bool(args.trace),
                          deadline=started + RUN_LIMIT_S)
    workload = WORKLOADS[args.workload](ctx)
    try:
        workload.prepare()
        ops = closed_loop(workload, args.seconds, bool(args.trace), log)
        info["load_after"] = load_average("after the run")
        result = report(ops, args.trace, env, info, out)
    except ProcError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def report(ops, trace, env, info, out) -> dict:
    """Print the metric table, write ``result.json``, and return the
    contract's result object."""
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    plain = [op for op in ops if not op.extra["traced"]]
    e2e = {name: [value for op in plain
                  for value in op.samples.get(name, [])]
           for name in END_TO_END}
    info["samples"] = e2e
    info["end_to_end"] = {name: summarize(values, END_TO_END[name][0])
                          for name, values in e2e.items()}
    info["end_to_end"]["failed_frac"] = {
        "median": failed / attempted if attempted else 1.0,
        "n": attempted, "unit": "ratio"}
    info["problems"] = [p for op in ops for p in op.problems]
    if trace:
        metrics = traced_metrics(ops, plain, env, info, out)
    else:
        metrics = {name: {"value": info["end_to_end"][name]["median"],
                          "unit": END_TO_END[name][0]}
                   for name in END_TO_END}
    print_table(info, trace)
    (out / "result.json").write_text(json.dumps(info, indent=1))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def traced_metrics(ops, plain, env, info, out) -> dict:
    traced_ops = [op for op in ops if op.extra["traced"]]
    rows, calls, tables = [], {}, []
    for number, op in enumerate(traced_ops):
        spans_by_file = {}
        for path in op.span_files:
            header, spans = load_spans(path)
            spans_by_file[path] = spans
            if header.get("missing"):
                info.setdefault("missing_wrappers", header["missing"])
            shutil.copy(path, out / f"op{number}-{path.name}")
        if op.span_files:
            values, per_call = layer_metrics(op, spans_by_file)
            rows.append(values)
            for name, samples in per_call.items():
                calls.setdefault(name, []).extend(samples)
            main = spans_by_file.get(op.main_spans, [])
            tables.append([list(row) for row in top_self_table(main)])
        resume_path = op.extra.get("resume_spans")
        if resume_path:
            resume = load_spans(resume_path)[1]
            rows.append({"snapshot.load_s": sum(
                span["end"] - span["start"]
                for span in outermost(resume, "snapshot.load"))})

    def walls(selected):
        return median(value for op in selected
                      for value in op.samples.get("wall_s", []))

    rows.append({"runner.import_s": import_seconds(env),
                 "trace.overhead_s": walls(traced_ops) - walls(plain)})
    # Each traced operation reports the layers it exercised; a metric
    # is the median over the operations that measured it.
    info["per_layer"] = {}
    for name, (unit, _) in PER_LAYER.items():
        values = [row[name] for row in rows if name in row]
        info["per_layer"][name] = {"median": median(values),
                                   "n": len(values), "unit": unit}
    info["per_call"] = {name: summarize(samples, "s")
                        for name, samples in calls.items() if samples}
    info["self_time_top"] = tables
    info["self_within_wall"] = all(row["trace.self_share"] <= 1.0
                                   for row in rows
                                   if "trace.self_share" in row)
    return {name: {"value": entry["median"], "unit": entry["unit"]}
            for name, entry in info["per_layer"].items()}


def print_table(info, trace) -> None:
    print(f"provenance: {json.dumps(info['provenance'], sort_keys=True)}")
    print(f"load average: {info['load_before']:.2f} before, "
          f"{info['load_after']:.2f} after")
    print(f"{'metric':<30} {'median':>14} {'unit':<6} {'n':>4}  tail")
    section = info["per_layer"] if trace else info["end_to_end"]
    for name, entry in section.items():
        extra = " ".join(f"{key}={value:.6g}" for key, value in entry.items()
                         if key.startswith("p"))
        print(f"{name:<30} {entry['median']:>14.6g} {entry['unit']:<6} "
              f"{entry['n']:>4}  {extra}")
    if trace:
        for name, entry in info["per_call"].items():
            extra = " ".join(f"{k}={v:.6g}" for k, v in entry.items()
                             if k.startswith("p"))
            print(f"{name + ' (per call)':<30} {entry['median']:>14.6g} "
                  f"{'s':<6} {entry['n']:>4}  {extra}")
        for table in info["self_time_top"][:1]:
            print("top spans by self time (main process, first traced op):")
            for name, calls, own, inclusive in table:
                print(f"  {name:<26} calls {calls:>6}  self {own:9.4f}s  "
                      f"incl {inclusive:9.4f}s")
        print(f"summed self time within wall: {info['self_within_wall']}")
    for problem in info["problems"][:10]:
        print(f"problem: {problem}")


if __name__ == "__main__":
    sys.exit(main())
