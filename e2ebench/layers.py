"""The benchmark's metric catalogue and the layer -> end-to-end map.

``END_TO_END`` and ``PER_LAYER`` mirror the ``end_to_end`` and
``per_layer`` lists of ``BENCHMARK.json`` (a test keeps them equal).
Every workload reports every metric; the ``meaning`` column says what
each one is on each kind of workload.  ``MOVES`` records, for each
per-layer metric, which end-to-end metric on which workload it should
move, so a change that claims a gain can be checked against it.

Layers, by module: ``cli`` -> ``core`` facade (``IGTSimulation``) ->
``runner`` (``executor``, ``cache``) -> ``fabric`` (``coordinator``,
``worker``, ``protocol``) -> ``engine`` (``agent``, ``count``,
``vectorized``, ``sampling``) -> ``engine.snapshot`` ->
``engine.observe``.
"""

from __future__ import annotations

#: name -> (unit, better, meaning)
END_TO_END = {
    "setup_s": ("s", "lower",
                "simulate: launch until the header line; sweep-short: "
                "launch until the first record lands; sweep-fabric: "
                "coordinator launch until /status answers"),
    "wall_s": ("s", "lower",
               "simulate: one uninterrupted run; sweeps: the cold sweep "
               "(fabric: from coordinator launch)"),
    "interactions_per_s": ("1/s", "higher",
                           "simulate: steps / (wall - set-up) of the "
                           "uninterrupted run; sweeps: interactions the "
                           "plan simulates / wall_s"),
    "tasks_per_s": ("1/s", "higher",
                    "sweeps: tasks / wall_s of the cold sweep; simulate: "
                    "1 / wall_s (one run is one task)"),
    "warm_wall_s": ("s", "lower",
                    "sweeps: the identical sweep re-run, served from the "
                    "cache; simulate: the restart of a run killed after its "
                    "first snapshot, resumed to completion"),
    "peak_rss_mb": ("MB", "lower",
                    "largest VmHWM of the operation's processes (simulate: "
                    "the simulate process)"),
}

#: name -> (unit, what it measures)
PER_LAYER = {
    "engine.setup_s": ("s", "IGTSimulation.__init__"),
    "engine.run_s": ("s", "backend run() calls, inclusive"),
    "engine.run_calls": ("count", "backend run() calls"),
    "engine.interactions": ("count", "interactions executed by run()"),
    "engine.pair_draw_s": ("s", "scheduler pair_block"),
    "engine.apply_chunk_s": ("s", "ConflictFreeKernel.apply_chunk"),
    "engine.begin_run_s": ("s", "ConflictFreeKernel.begin_run"),
    "engine.sync_counts_s": ("s", "ConflictFreeKernel.sync_counts"),
    "snapshot.capture_s": ("s", "backend/facade snapshot()"),
    "snapshot.encode_s": ("s", "SnapshotState.to_bytes"),
    "snapshot.save_s": ("s", "self time of SnapshotStore.save"),
    "snapshot.saves": ("count", "SnapshotStore.save calls"),
    "snapshot.bytes": ("B", "bytes of the saved snapshot files"),
    "snapshot.load_s": ("s", "SnapshotStore.load (resume)"),
    "observe.emit_s": ("s", "JsonlSink.emit, inclusive"),
    "observe.flush_s": ("s", "JsonlSink write+fsync batches"),
    "observe.records": ("count", "records the JSONL sinks wrote"),
    "observe.bytes": ("B", "bytes the JSONL sinks wrote"),
    "runner.import_s": ("s", "fresh-interpreter import of "
                             "repro.runner.executor minus a bare start"),
    "runner.first_result_s": ("s", "LocalPool.run_iter first outcome "
                                   "latency minus that task's seconds"),
    "runner.task_s": ("s", "sum of TaskResult.seconds (cold sweep)"),
    "runner.task_share": ("ratio", "runner.task_s / (wall_s x workers)"),
    "runner.cache_get_s": ("s", "ResultCache.get"),
    "runner.cache_hits": ("count", "ResultCache.get hits"),
    "runner.cache_put_s": ("s", "ResultCache.put"),
    "runner.cache_puts": ("count", "ResultCache.put calls"),
    "fabric.lease_rtt_s": ("s", "median /lease round trip"),
    "fabric.leases": ("count", "leases granted"),
    "fabric.empty_polls": ("count", "/lease polls answered empty"),
    "fabric.snapshot_upload_s": ("s", "/snapshot uploads, total"),
    "fabric.snapshot_uploads": ("count", "/snapshot uploads"),
    "fabric.snapshot_upload_bytes": ("B", "/snapshot request bodies"),
    "fabric.result_submit_s": ("s", "/result submissions, total"),
    "fabric.duplicate_executions": ("count", "executed minus tasks, from "
                                             "/status"),
    "trace.overhead_s": ("s", "traced minus untraced wall_s"),
    "trace.self_share": ("ratio", "summed span self time of the main "
                                  "process / its traced wall_s"),
}

#: per-layer metric prefix -> [(end-to-end metric, workload)] it moves.
MOVES = {
    "engine.setup_s": [("setup_s", "simulate-count-stream"),
                       ("peak_rss_mb", "simulate-count-stream")],
    "engine.run_s, engine.pair_draw_s, engine.apply_chunk_s, "
    "engine.begin_run_s, engine.sync_counts_s": [
        ("interactions_per_s", "simulate-agent-ckpt"),
        ("wall_s", "sweep-fabric")],
    "engine.run_s (count path)": [
        ("interactions_per_s", "simulate-count-stream")],
    "snapshot.*": [("interactions_per_s", "simulate-agent-ckpt"),
                   ("warm_wall_s", "simulate-agent-ckpt")],
    # Fabric workers checkpoint through the /snapshot wire, not
    # SnapshotStore: only capture is shared; the upload is fabric.*.
    "snapshot.capture_s": [("wall_s", "sweep-fabric")],
    "observe.*": [("interactions_per_s", "simulate-count-stream")],
    "runner.import_s, runner.first_result_s": [
        ("tasks_per_s", "sweep-short"), ("setup_s", "sweep-short")],
    "runner.cache_*": [("warm_wall_s", "sweep-short")],
    "fabric.*": [("wall_s", "sweep-fabric"), ("tasks_per_s",
                                              "sweep-fabric")],
}

#: Workloads a per-layer family must NOT move (the no-change prediction).
STILL = {
    "engine.*": ["sweep-short"],
    "snapshot.*": ["simulate-count-stream"],
    "runner.*": ["simulate-agent-ckpt", "simulate-count-stream"],
    "fabric.*": ["simulate-agent-ckpt", "simulate-count-stream",
                 "sweep-short"],
}
