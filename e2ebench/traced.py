"""Traced entry point: run one program process with layer wrappers on.

Usage (``src`` of the checkout must be importable)::

    python e2ebench/traced.py --spans FILE [--workload W --run-id R] \\
        cli -- simulate --n 1000 ...
    python e2ebench/traced.py --spans FILE worker --remote URL --poll 0.05

``cli`` installs the wrappers and calls ``repro.cli.main(argv)``;
``worker`` constructs ``repro.fabric.Worker`` with a wrapped
``run_task`` and runs its loop.  Either way the spans recorded in this
process are written to ``--spans`` when it ends, and the exit code is
the program's own.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--workload", default="")
    parser.add_argument("--run-id", default="")
    parser.add_argument("mode", choices=["cli", "worker"])
    parser.add_argument("--remote", default=None)
    parser.add_argument("--poll", type=float, default=0.5)
    parser.add_argument("--worker-id", default=None)
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    from spans import Recorder, install, trace_worker_calls

    recorder = install(Recorder(args.workload, args.run_id))
    try:
        if args.mode == "cli":
            import repro.cli

            rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest
            return repro.cli.main(rest)
        import repro.runner.executor as executor
        from repro.fabric import Worker

        run_task = executor.run_task

        def traced_run_task(task):
            record = recorder.open("runner.task")
            try:
                return run_task(task)
            finally:
                recorder.close(record)

        worker = Worker(args.remote, worker_id=args.worker_id,
                        poll=args.poll, run=traced_run_task,
                        log=lambda message: print(message, flush=True))
        trace_worker_calls(recorder, worker)
        return worker.run_forever()
    finally:
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
