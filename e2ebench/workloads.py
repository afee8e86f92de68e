"""The four workloads: each operation is one closed-loop client cycle.

A workload object is built once per benchmark run.  ``prepare()`` runs
once (reference passes that give the correctness baseline and the
interaction count of a sweep plan); ``op(traced)`` runs one operation
and returns an :class:`Op` with its end-to-end measurements, the
correctness verdicts, and — when traced — the span files its processes
wrote.  Every input is derived from the benchmark seed, every backend
is pinned, and every operation gets fresh cache, snapshot and stream
directories.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from proc import Proc, ProcError, repro_argv, traced_argv

#: Exit code of a ``REPRO_FAULTS`` injected crash (repro.testing.faults).
CRASH_EXIT_CODE = 86

#: Operation sizes.  ``bench`` is what the benchmark measures; ``tiny``
#: exercises every path in a few seconds (the benchmark's own tests).
SCALES = {
    "bench": {
        "agent": {"n": 5_000_000, "steps": 3_200_000, "every": 100_000},
        "count": {"n": 100_000_000, "steps": 20_000_000, "every": 20_000},
        "sweep_short": {"tasks": 8, "jobs": 2},
        "fabric": {"n": 1_000_000, "tasks": 2},
    },
    "tiny": {
        "agent": {"n": 20_000, "steps": 40_000, "every": 1_000},
        "count": {"n": 4_000_000, "steps": 40_000, "every": 1_000},
        "sweep_short": {"tasks": 2, "jobs": 2},
        "fabric": {"n": 2_000, "tasks": 2},
    },
}

@dataclass
class Op:
    """One operation's measurements and verdicts.

    ``samples`` maps each end-to-end metric the operation measured to
    its values; a run reports the median over all its operations'
    samples of a metric.
    """

    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    span_files: list = field(default_factory=list)
    main_spans: Path | None = None
    extra: dict = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def check(self, ok: bool, message: str) -> bool:
        """Count one attempted operation, failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)
        return ok


class Workload:
    """Shared plumbing: directories, launching, span-file naming."""

    name = ""

    def __init__(self, ctx):
        self.ctx = ctx
        self.sizes = SCALES[ctx.scale]
        self.ops_done = 0

    def op_dir(self) -> Path:
        self.ops_done += 1
        path = self.ctx.work / f"op{self.ops_done:03d}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def launch(self, directory: Path, tag: str, args, traced: bool,
               mode: str = "cli", extra_env=None, mode_args=()) -> Proc:
        """Start ``repro <args>`` (or its traced twin) in ``directory``."""
        if traced:
            spans = directory / f"{tag}.spans.jsonl"
            argv = traced_argv(spans, self.name, self.ctx.run_id,
                               *mode_args, mode, "--", *args)
        else:
            argv = repro_argv(*args)
        return Proc(argv, self.ctx.env, self.ctx.root, directory / tag,
                    self.ctx.deadline, extra_env=extra_env)

    @staticmethod
    def spans_of(proc: Proc) -> Path | None:
        if "--spans" in proc.argv:
            return Path(proc.argv[proc.argv.index("--spans") + 1])
        return None

    def prepare(self) -> None:
        pass

    def min_ops(self, trace: bool) -> int:
        """Operations a run makes at least, whatever its length."""
        return 2

    def finish(self, op: Op, directory: Path) -> Op:
        for path in directory.iterdir():
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
        return op


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# simulate-*
# ----------------------------------------------------------------------
class Simulate(Workload):
    """``repro simulate --snapshots DIR --observe jsonl:F``.

    Operations alternate between an uninterrupted run (``wall_s``,
    ``setup_s``, ``interactions_per_s``, ``peak_rss_mb``) and a pair of
    processes: the same run killed by fault injection just after its
    first snapshot is saved, and the restart that resumes it from that
    snapshot to completion (``warm_wall_s``).  Every stream of a run,
    resumed or not, must be byte-identical.
    """

    backend = ""
    size_key = ""

    def __init__(self, ctx):
        super().__init__(ctx)
        size = self.sizes[self.size_key]
        self.n, self.steps, self.every = size["n"], size["steps"], \
            size["every"]
        self.reference_digest = None

    def min_ops(self, trace: bool) -> int:
        # Traced runs need an untraced and a traced operation of each kind.
        return 4 if trace else 2

    def args(self, directory: Path, tag: str) -> list:
        return ["simulate", "--n", self.n, "--k", 8, "--backend",
                self.backend, "--steps", self.steps, "--seed",
                self.ctx.seed, "--snapshots", directory / f"{tag}.snap",
                "--observe", f"jsonl:{directory / f'{tag}.jsonl'}",
                "--observe-every", self.every]

    def check_stream(self, op: Op, path: Path) -> bool:
        expected = self.steps // self.every + 1
        try:
            lines = path.read_bytes().splitlines()
            records = [json.loads(line) for line in lines]
        except (OSError, ValueError) as error:
            return op.check(False, f"unreadable stream {path}: {error}")
        ok = op.check(len(records) == expected,
                      f"{path.name}: {len(records)} records, "
                      f"expected {expected}")
        bad = [r["step"] for r in records if sum(r["counts"]) != self.n]
        return op.check(not bad, f"{path.name}: counts do not sum to n "
                                 f"at steps {bad[:3]}") and ok

    def run(self, directory: Path, tag: str, stem: str, traced: bool,
            extra_env=None) -> tuple[Proc, float]:
        """Run one simulate process to exit; returns it and the seconds
        from launch to its header line."""
        proc = self.launch(directory, tag, self.args(directory, stem),
                           traced, extra_env=extra_env)
        header = proc.wait_for(lambda: proc.stdout_has("k-IGT:"))
        proc.wait()
        return proc, header if header is not None else proc.wall

    def op(self, traced: bool) -> Op:
        """Operations alternate (in pairs when traced, so both kinds are
        traced) between an uninterrupted run and a kill-and-resume."""
        pair = 2 if self.ctx.trace else 1
        kind = (self.ops_done // pair) % 2
        directory = self.op_dir()
        op = Op()
        if kind == 0:
            self.uninterrupted(op, directory, traced)
        else:
            self.kill_and_resume(op, directory, traced)
        return self.finish(op, directory)

    def uninterrupted(self, op: Op, directory: Path, traced: bool) -> None:
        proc, header = self.run(directory, "cold", "cold", traced)
        op.add("setup_s", header)
        op.add("wall_s", proc.wall)
        op.add("interactions_per_s", self.steps / (proc.wall - header))
        op.add("tasks_per_s", 1.0 / proc.wall)
        op.add("peak_rss_mb", proc.rss_mb)
        op.extra["wall_s"] = proc.wall
        op.main_spans = self.spans_of(proc)
        op.span_files = [op.main_spans] if traced else []
        stream = directory / "cold.jsonl"
        if op.check(proc.returncode == 0,
                    f"simulate exited {proc.returncode}: "
                    f"{proc.stderr_tail()}") \
                and self.check_stream(op, stream):
            digest = _digest(stream)
            if self.reference_digest is None:
                self.reference_digest = digest
            op.check(digest == self.reference_digest,
                     "same-seed streams differ between operations")

    def kill_and_resume(self, op: Op, directory: Path, traced: bool) -> None:
        killed, header = self.run(
            directory, "killed", "resumed", traced,
            extra_env={"REPRO_FAULTS": "snapshot.post-save:1"})
        op.add("setup_s", header)
        op.check(killed.returncode == CRASH_EXIT_CODE
                 and (directory / "resumed.snap").is_dir(),
                 f"fault-injected run exited {killed.returncode}, "
                 f"expected {CRASH_EXIT_CODE} with a snapshot left")
        resumed, header = self.run(directory, "resumed", "resumed", traced)
        op.add("setup_s", header)
        op.add("warm_wall_s", resumed.wall)
        if traced:
            op.extra["resume_spans"] = self.spans_of(resumed)
        stream = directory / "resumed.jsonl"
        if op.check(resumed.returncode == 0,
                    f"resumed simulate exited {resumed.returncode}: "
                    f"{resumed.stderr_tail()}") \
                and self.check_stream(op, stream):
            op.check(_digest(stream) == self.reference_digest,
                     "resumed stream differs from the uninterrupted one")


class SimulateAgentCkpt(Simulate):
    name = "simulate-agent-ckpt"
    backend = "agent"
    size_key = "agent"


class SimulateCountStream(Simulate):
    name = "simulate-count-stream"
    backend = "count"
    size_key = "count"


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def read_records(path: Path) -> list[dict]:
    try:
        return [json.loads(line) for line in
                path.read_text().splitlines() if line.strip()]
    except (OSError, ValueError):
        return []


def span_interactions(path: Path) -> int:
    from spans import load_spans, outermost

    _, spans = load_spans(path)
    return sum(span["attrs"].get("interactions", 0)
               for span in outermost(spans, "engine.run"))


class Sweep(Workload):
    """Shared sweep plumbing: the plan arguments and the reference pass.

    ``prepare`` runs the plan once, traced, in a single ``--jobs 1``
    process: its records are the correctness reference and its
    ``engine.run`` spans give the interactions the plan simulates.
    """

    experiment = ""
    backend = "agent"

    def plan_args(self) -> list:
        raise NotImplementedError

    def prepare(self) -> None:
        directory = self.ctx.work / "reference"
        directory.mkdir(parents=True, exist_ok=True)
        output = directory / "records.jsonl"
        proc = self.launch(directory, "reference",
                           ["sweep", *self.plan_args(), "--jobs", 1,
                            "--output", output], traced=True)
        proc.wait()
        self.reference = [self.strip(record)
                          for record in read_records(output)]
        # Exit code 1 only says a statistical check of some report
        # failed; the records are still complete and comparable.  The
        # plan is deterministic, so every later sweep of it must exit
        # with the same code.
        if proc.returncode not in (0, 1) or len(self.reference) != self.tasks:
            raise ProcError(f"reference sweep failed ({proc.returncode}): "
                            f"{proc.stderr_tail()}")
        self.reference_exit = proc.returncode
        self.interactions = span_interactions(self.spans_of(proc))

    def check_exit(self, op: Op, proc: Proc, label: str,
                   expected: int | None = None) -> None:
        """One attempted operation per process: it exits with
        ``expected`` (by default, the reference sweep's code)."""
        if expected is None:
            expected = self.reference_exit
        op.check(proc.returncode == expected,
                 f"{label} exited {proc.returncode}, expected {expected}: "
                 f"{proc.stderr_tail()}")

    @property
    def tasks(self) -> int:
        return self.sizes[self.size_key]["tasks"]

    def seeds(self) -> str:
        start = 100 * self.ctx.seed
        return f"seed={start}:{start + self.tasks - 1}:{self.tasks}"

    def cold(self, op: Op, setup: float, wall: float, records: list,
             workers: int) -> None:
        """The end-to-end samples of a cold sweep."""
        op.add("setup_s", setup)
        op.add("wall_s", wall)
        op.add("interactions_per_s", self.interactions / wall)
        op.add("tasks_per_s", self.tasks / wall)
        op.extra.update(wall_s=wall, workers=workers, task_s=sum(
            record.get("seconds", 0.0) for record in records))

    @staticmethod
    def strip(record: dict) -> dict:
        from repro.runner.plan import strip_provenance

        return strip_provenance(record)

    def check_records(self, op: Op, records: list, label: str,
                      source: str | None = None) -> None:
        """One attempted operation per task: present, equal to the
        reference after ``strip_provenance``, from ``source``."""
        for index in range(self.tasks):
            record = records[index] if index < len(records) else None
            ok = (record is not None
                  and self.strip(record) == self.reference[index]
                  and (source is None or record.get("source") == source))
            op.check(ok, f"{label} record {index} missing or differs "
                         f"from the reference")


class SweepShort(Sweep):
    """``repro sweep E6 --jobs 2 --cache DIR`` cold, then the identical
    command again, served from the cache."""

    name = "sweep-short"
    experiment = "E6"
    size_key = "sweep_short"

    def plan_args(self) -> list:
        # E6's cases have n = 200, below the strategy crossover, so
        # ``auto`` resolves to the agent backend; pin it.
        return [self.experiment, "--backends", self.backend,
                "--grid", self.seeds()]

    def op(self, traced: bool) -> Op:
        directory = self.op_dir()
        jobs = self.sizes[self.size_key]["jobs"]
        op = Op()
        rss = []
        for tag in ("cold", "warm"):
            output = directory / f"{tag}.jsonl"
            proc = self.launch(directory, tag,
                               ["sweep", *self.plan_args(), "--jobs", jobs,
                                "--cache", directory / "cache",
                                "--output", output], traced)
            first = proc.wait_for(lambda: _has_line(output))
            proc.wait()
            self.check_exit(op, proc, f"{tag} sweep")
            records = read_records(output)
            if tag == "cold":
                self.cold(op, first if first is not None else proc.wall,
                          proc.wall, records, jobs)
                op.main_spans = self.spans_of(proc)
                self.check_records(op, records, "cold", source="executed")
            else:
                op.add("warm_wall_s", proc.wall)
                self.check_records(op, records, "warm", source="cache")
            rss.append(proc.rss_mb)
            if traced:
                op.span_files.append(self.spans_of(proc))
        op.add("peak_rss_mb", max(rss))
        return self.finish(op, directory)


def _has_line(path: Path) -> bool:
    try:
        with open(path, "rb") as handle:
            return b"\n" in handle.read(65536)
    except OSError:
        return False


def fabric_status(url: str) -> dict | None:
    request = urllib.request.Request(
        url + "/status", data=b"{}", method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=2.0) as response:
            return json.loads(response.read())
    except (OSError, ValueError):
        return None


class SweepFabric(Sweep):
    """``repro serve`` + two ``repro worker`` + ``repro sweep --remote``,
    then the identical sweep again, served from the coordinator's cache,
    ``warm_runs`` times (the last with ``--shutdown``)."""

    name = "sweep-fabric"
    experiment = "E4"
    size_key = "fabric"
    workers = 2
    warm_runs = 2

    def plan_args(self) -> list:
        return [self.experiment, "--backends", self.backend, "--set",
                f"n={self.sizes[self.size_key]['n']}", "--grid",
                self.seeds()]

    def op(self, traced: bool) -> Op:
        directory = self.op_dir()
        op = Op()
        procs = []
        serve = self.launch(directory, "serve",
                            ["serve", "--cache", directory / "cache",
                             "--port", 0], traced=False)
        procs.append(serve)
        try:
            url_line = serve.wait_for(
                lambda: serve.stdout_has("listening on"))
            if url_line is None:
                raise ProcError(f"coordinator exited {serve.returncode}: "
                                f"{serve.stderr_tail()}")
            url = serve.stdout().split("listening on", 1)[1].split()[0]
            ready = serve.wait_for(lambda: fabric_status(url) is not None)
            setup = ready if ready is not None else serve.wall
            for index in range(self.workers):
                tag = f"worker{index}"
                if traced:
                    worker = self.launch(
                        directory, tag, [], True, mode="worker",
                        mode_args=("--remote", url, "--poll", 0.05,
                                   "--worker-id", tag))
                else:
                    worker = self.launch(directory, tag,
                                         ["worker", "--remote", url,
                                          "--poll", 0.05, "--id", tag],
                                         False)
                procs.append(worker)
            tags = ["cold"] + [f"warm{i}" for i in range(self.warm_runs)]
            for tag in tags:
                output = directory / f"{tag}.jsonl"
                args = ["sweep", *self.plan_args(), "--remote", url,
                        "--output", output]
                if tag == tags[-1]:
                    args.append("--shutdown")
                sweep = self.launch(directory, tag, args, traced)
                procs.append(sweep)
                sweep.wait()
                self.check_exit(op, sweep, f"{tag} sweep")
                records = read_records(output)
                if tag == "cold":
                    self.cold(op, setup, sweep.end - serve.start, records,
                              self.workers)
                    op.main_spans = self.spans_of(sweep)
                    status = fabric_status(url) or {}
                    op.extra["duplicates"] = (status.get("executed", 0)
                                              - status.get("tasks", 0))
                    self.check_records(op, records, "cold",
                                       source="executed")
                else:
                    op.add("warm_wall_s", sweep.wall)
                    self.check_records(op, records, tag, source="cache")
            for proc in procs:
                proc.wait()
            # The coordinator stops cleanly on --shutdown and the
            # workers drain (EXIT_DRAINED).
            for proc in procs[:self.workers + 1]:
                self.check_exit(op, proc, proc.stdout_path.stem, expected=0)
        finally:
            for proc in procs:
                proc.kill()
        op.add("peak_rss_mb", max(proc.rss_mb for proc in procs[1:]))
        op.span_files = [path for path in map(self.spans_of, procs)
                         if path is not None]
        return self.finish(op, directory)


WORKLOADS = {cls.name: cls for cls in (SimulateAgentCkpt,
                                       SimulateCountStream, SweepShort,
                                       SweepFabric)}
