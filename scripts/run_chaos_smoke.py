"""Multi-process chaos smoke: kill things mid-sweep, resume, byte-compare.

The crash-safety contract, exercised end to end with real SIGKILLs:

1. **Baseline** — ``repro sweep`` over a small E4 grid, records to
   JSONL.  E4's relaxation runs several snapshot segments at this
   size, so every task genuinely checkpoints.
2. **Local crash, twice** — the same sweep with ``--cache``/
   ``--resume`` and injected faults
   (:mod:`repro.testing.faults`): first
   ``snapshot.post-save:3:kill`` SIGKILLs the executor mid-task right
   after a checkpoint lands (nothing cached, checkpoints on disk),
   then the rerun resumes that task from its snapshot and dies again
   via ``executor.post-cache:2:kill`` — after exactly two cells were
   persisted to the cache.
3. **Local resume** — the third run must finish, serve both pre-crash
   cells from the cache (zero re-execution), execute the rest, clear
   the snapshot directory, and produce records **byte-identical** to
   the baseline once provenance (``seconds``/``from_cache``/
   ``source``/``worker``) is stripped.

   Stages 2–3 run twice: in process (``--jobs 1``), then on a forked
   pool (``--jobs 2``), where the mid-task fault fires inside a worker
   (the sweep must exit 3, the code of an environment failure) and the
   post-cache kill orphans a live pool.  Each killed sweep runs
   in its own session, which must be empty within seconds of its death:
   no pool worker outlives the sweep that started it.  Every
   checkpoint the mid-task kill leaves is a count checkpoint under
   4 KB.
4. **Streamed trajectory kill** — a ``repro simulate`` run streaming
   its trajectory to a JSONL observer sink with ``--snapshots`` is
   SIGKILLed right after a checkpoint lands, leaving a partial stream
   file on disk.  Rerunning the same command resumes from the
   snapshot, truncates the stream back to the checkpointed position,
   and finishes — the resulting JSONL must be **byte-identical** to an
   uninterrupted run's, and the snapshot directory cleared.
5. **Fabric crash** — a coordinator plus two workers; the victim
   worker carries the same injected fault, posts checkpoints to
   ``/snapshot``, and SIGKILLs itself mid-task.  The replacement
   worker receives the latest checkpoint with the re-leased task and
   continues the trajectory.
6. **Fabric verdicts** — the remote sweep finishes despite the murder
   and its stripped records equal the baseline; the coordinator's
   snapshot store is empty once results land; the survivor and the
   coordinator drain with exit code 0.

Usage::

    python scripts/run_chaos_smoke.py [--keep DIR]

Exits non-zero (with a diagnostic) on the first violated contract.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: 4 tasks, each relaxing for several snapshot segments (n = 2e5 runs
#: the count engine's array proxy, n <= PROXY_MAX_N, well past one
#: 8-check segment) — long enough that a mid-task kill leaves a
#: meaningful checkpoint, short enough for CI.
GRID_ARGUMENTS = ["E4", "--grid", "n=2e5", "--grid", "seed=0:3:4"]

#: Record fields that legitimately differ between runs.
PROVENANCE_FIELDS = ("seconds", "from_cache", "source", "worker")

#: Fault specs injected into the processes that must die: SIGKILL self
#: right after the Nth snapshot save (mid-task) or the Nth cache write
#: (between tasks).
MID_TASK_FAULT = "snapshot.post-save:3:kill"
POST_CACHE_FAULT = "executor.post-cache:2:kill"
WORKER_FAULT = "snapshot.post-save:2:kill"
STREAM_FAULT = "snapshot.post-save:2:kill"

#: Seconds a killed sweep's session may take to empty: its pool workers
#: exit within a poll of its death, then the host reaps them.
SESSION_DEADLINE_S = 10.0

#: A count engine's checkpoint holds counts, not agents: a few hundred
#: bytes at any n (a per-agent block at n = 2e5 would be ~200 KB).
MAX_COUNT_CHECKPOINT_BYTES = 4096

#: Exit code of a sweep whose pool worker died mid-task.
DEAD_WORKER_EXIT = 3

#: The streamed-trajectory scenario: big enough that the run spans
#: several snapshot segments (so the kill lands mid-stream with rows
#: both before and after the last checkpoint), small enough for CI.
def stream_arguments(stream_path: pathlib.Path,
                     snapshots_dir: pathlib.Path) -> list[str]:
    return ["simulate", "--n", "20000", "--k", "3", "--steps", "240000",
            "--backend", "count", "--seed", "11",
            "--observe-every", "5000",
            "--observe", f"jsonl:{stream_path}",
            "--snapshots", str(snapshots_dir)]


def repro(*arguments: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *arguments]


def child_environment(faults: str | None = None) -> dict:
    environment = dict(os.environ)
    source = str(REPO_ROOT / "src")
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = (
        f"{source}{os.pathsep}{existing}" if existing else source
    )
    environment.pop("REPRO_FAULTS", None)
    if faults is not None:
        environment["REPRO_FAULTS"] = faults
    return environment


def read_until(stream, needle: str, deadline: float) -> str:
    """Echo ``stream`` lines until one contains ``needle``; return it."""
    while time.monotonic() < deadline:
        line = stream.readline()
        if not line:
            raise SystemExit(
                f"process stream closed before {needle!r} appeared"
            )
        print(f"    | {line.rstrip()}", flush=True)
        if needle in line:
            return line
    raise SystemExit(f"timed out waiting for {needle!r}")


def load_records(path: pathlib.Path) -> list[dict]:
    return [
        json.loads(line) for line in path.read_text().splitlines() if line
    ]


def stripped(records: list[dict]) -> list[dict]:
    return [
        {
            name: value
            for name, value in record.items()
            if name not in PROVENANCE_FIELDS
        }
        for record in records
    ]


def snapshot_files(root: pathlib.Path) -> list[str]:
    if not root.exists():
        return []
    return sorted(p.name for p in root.iterdir() if p.suffix != ".tmp")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"CHAOS SMOKE FAILED: {message}")


def run_killed(arguments: list[str], faults: str) -> int:
    """Run a sweep that ``faults`` kills, in its own session; return its
    exit code once nothing of the session is left alive."""
    process = subprocess.Popen(
        repro(*arguments),
        cwd=REPO_ROOT,
        env=child_environment(faults),
        start_new_session=True,
    )
    code = process.wait()
    deadline = time.monotonic() + SESSION_DEADLINE_S
    while True:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return code
        if time.monotonic() > deadline:
            os.killpg(process.pid, signal.SIGKILL)
            check(
                False,
                f"processes of the killed sweep ({faults}) were still "
                f"alive {SESSION_DEADLINE_S:.0f} s after it died",
            )
        time.sleep(0.05)


def crash_and_resume(work: pathlib.Path, baseline: list[dict], jobs: int) -> None:
    """Stages 2-3 at ``--jobs jobs``: two killed sweeps, then a resume
    that must match the baseline."""
    print(f"[2/6] --jobs {jobs}: resumable sweep dies mid-task "
          f"({MID_TASK_FAULT}), its rerun dies between tasks "
          f"({POST_CACHE_FAULT})", flush=True)
    cache_dir = work / f"cache-jobs{jobs}"
    snapshots_dir = cache_dir / "snapshots"
    resumable = ["sweep", *GRID_ARGUMENTS, "--cache", str(cache_dir),
                 "--resume", "--jobs", str(jobs)]

    def cached_cells() -> int:
        return len(list(cache_dir.glob("*/*.json")))

    crashed = run_killed(resumable, MID_TASK_FAULT)
    check(crashed != 0,
          "fault-injected sweep exited 0 — the kill never fired")
    if jobs > 1:
        check(
            crashed == DEAD_WORKER_EXIT,
            f"a sweep whose pool worker died exited {crashed}, not "
            f"{DEAD_WORKER_EXIT}",
        )
    leftovers = snapshot_files(snapshots_dir)
    check(len(leftovers) > 0,
          "the killed sweep left no snapshot behind")
    sizes = {name: (snapshots_dir / name).stat().st_size for name in leftovers}
    check(
        max(sizes.values()) < MAX_COUNT_CHECKPOINT_BYTES,
        f"count checkpoints must hold counts, not agents: {sizes}",
    )
    check(cached_cells() == 0,
          "the mid-task kill fired after a cell completed")
    print(
        f"    died mid-task (exit {crashed}) leaving "
        f"checkpoints of {sizes} bytes",
        flush=True,
    )

    crashed_again = run_killed(resumable, POST_CACHE_FAULT)
    check(crashed_again != 0,
          "second fault-injected sweep exited 0 — the kill never "
          "fired")
    check(cached_cells() == 2,
          f"expected exactly 2 cached cells after the post-cache "
          f"kill, found {cached_cells()} — completed cells must be "
          f"persisted the moment they finish")
    print("    resumed the interrupted task, cached 2 cells, died "
          "again; nothing of either killed sweep outlived it", flush=True)

    print(f"[3/6] --jobs {jobs}: third run must finish: cached cells stay "
          f"cached, records match the baseline", flush=True)
    resumed_path = work / f"resumed-jobs{jobs}.jsonl"
    resumed = subprocess.run(
        repro(*resumable, "--output", str(resumed_path)),
        cwd=REPO_ROOT,
        env=child_environment(),
    )
    check(resumed.returncode == 0, "resumed sweep failed")
    records = load_records(resumed_path)
    check(stripped(records) == stripped(baseline),
          "resumed records differ from the baseline "
          "(beyond provenance)")
    from_cache = [r for r in records if r["source"] == "cache"]
    check(len(from_cache) == 2,
          f"2 cell(s) were cached before the kill but "
          f"{len(from_cache)} came from cache on resume — completed "
          f"cells must never re-execute")
    check(snapshot_files(snapshots_dir) == [],
          f"completed tasks left snapshots: "
          f"{snapshot_files(snapshots_dir)}")
    print(f"    byte-identical; {len(from_cache)} cached / "
          f"{len(records) - len(from_cache)} executed, snapshots "
          f"cleared", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--keep",
        metavar="DIR",
        default=None,
        help="work under DIR and keep it (default: a temp dir, removed)",
    )
    args = parser.parse_args(argv)

    if args.keep is not None:
        work = pathlib.Path(args.keep)
        work.mkdir(parents=True, exist_ok=True)
    else:
        work = pathlib.Path(tempfile.mkdtemp(prefix="chaos-smoke-"))
    children: list[subprocess.Popen] = []

    def spawn(
        *arguments: str, faults: str | None = None, pipe: bool = False
    ) -> subprocess.Popen:
        process = subprocess.Popen(
            repro(*arguments),
            cwd=REPO_ROOT,
            env=child_environment(faults),
            stdout=subprocess.PIPE if pipe else None,
            stderr=subprocess.STDOUT if pipe else None,
            text=pipe or None,
        )
        children.append(process)
        return process

    try:
        print("[1/6] baseline sweep", flush=True)
        baseline_path = work / "baseline.jsonl"
        subprocess.run(
            repro("sweep", *GRID_ARGUMENTS, "--output", str(baseline_path)),
            cwd=REPO_ROOT,
            env=child_environment(),
            check=True,
        )
        baseline = load_records(baseline_path)
        check(len(baseline) == 4, f"expected 4 baseline records, "
                                  f"got {len(baseline)}")

        for jobs in (1, 2):
            crash_and_resume(work, baseline, jobs)

        print(f"[4/6] streamed simulate killed mid-trajectory "
              f"({STREAM_FAULT}); rerun resumes byte-identically",
              flush=True)
        reference_stream = work / "stream-reference.jsonl"
        subprocess.run(
            repro(*stream_arguments(reference_stream,
                                    work / "stream-snaps-ref")),
            cwd=REPO_ROOT,
            env=child_environment(),
            check=True,
        )
        victim_stream = work / "stream-victim.jsonl"
        victim_snaps = work / "stream-snaps"
        stream_args = stream_arguments(victim_stream, victim_snaps)
        killed = subprocess.run(
            repro(*stream_args),
            cwd=REPO_ROOT,
            env=child_environment(STREAM_FAULT),
        )
        check(killed.returncode != 0,
              "fault-injected simulate exited 0 — the kill never fired")
        check(victim_stream.exists() and victim_stream.stat().st_size > 0,
              "the killed run streamed nothing before dying")
        check(victim_stream.read_bytes()
              != reference_stream.read_bytes(),
              "the killed run's stream is already complete — the kill "
              "fired too late to test resumption")
        check(len(snapshot_files(victim_snaps)) > 0,
              "the killed streaming run left no snapshot behind")
        partial = victim_stream.stat().st_size
        print(f"    died mid-trajectory with {partial} bytes streamed",
              flush=True)
        resumed_stream = subprocess.run(
            repro(*stream_args),
            cwd=REPO_ROOT,
            env=child_environment(),
        )
        check(resumed_stream.returncode == 0,
              "resumed streaming simulate failed")
        check(victim_stream.read_bytes()
              == reference_stream.read_bytes(),
              "resumed stream differs from the uninterrupted run — "
              "crash-equals-uninterrupted violated for JSONL streams")
        check(snapshot_files(victim_snaps) == [],
              f"completed streaming run left snapshots: "
              f"{snapshot_files(victim_snaps)}")
        print(f"    resumed: stream byte-identical "
              f"({victim_stream.stat().st_size} bytes), snapshots "
              f"cleared", flush=True)

        print("[5/6] fabric: victim worker dies mid-task "
              f"({WORKER_FAULT}); replacement continues", flush=True)
        coordinator = spawn(
            "serve",
            "--cache", str(work / "shared-cache"),
            "--checkpoint", str(work / "fabric-checkpoint.json"),
            "--port", "0",
            "--lease-ttl", "2",
            pipe=True,
        )
        listening = read_until(
            coordinator.stdout,
            "fabric coordinator listening on ",
            time.monotonic() + 30,
        )
        url = listening.rsplit(" ", 1)[-1].strip()
        print(f"    coordinator at {url}", flush=True)

        victim = spawn(
            "worker", "--remote", url, "--id", "victim", "--poll", "0.1",
            faults=WORKER_FAULT,
        )
        remote_path = work / "remote.jsonl"
        sweep = spawn(
            "sweep", *GRID_ARGUMENTS, "--remote", url,
            "--output", str(remote_path),
        )
        check(victim.wait(timeout=120) != 0,
              "victim worker exited cleanly — the kill never fired")
        print("    victim worker died mid-task after posting a "
              "checkpoint", flush=True)
        fabric_snapshots = snapshot_files(work / "shared-cache" /
                                          "snapshots")
        check(len(fabric_snapshots) > 0,
              "no checkpoint reached the coordinator before the kill")
        survivor = spawn(
            "worker", "--remote", url, "--id", "survivor", "--poll", "0.1",
            "--max-idle", "5",
        )

        print("[6/6] remote sweep must finish and match the baseline",
              flush=True)
        check(sweep.wait(timeout=300) == 0,
              "remote sweep did not complete after the worker kill")
        remote_records = load_records(remote_path)
        check(stripped(remote_records) == stripped(baseline),
              "fabric records differ from the baseline "
              "(beyond provenance)")
        check(snapshot_files(work / "shared-cache" / "snapshots") == [],
              "the coordinator kept snapshots for completed tasks")
        subprocess.run(
            repro("sweep", *GRID_ARGUMENTS, "--remote", url, "--shutdown"),
            cwd=REPO_ROOT,
            env=child_environment(),
            check=True,
        )
        check(survivor.wait(timeout=30) == 0,
              f"surviving worker exited {survivor.returncode}")
        coordinator_exit = coordinator.wait(timeout=30)
        for line in coordinator.stdout:
            print(f"    | {line.rstrip()}", flush=True)
        check(coordinator_exit == 0,
              f"coordinator exited {coordinator_exit}")

        print("chaos smoke passed: local kill+resume byte-identity, "
              "zero re-execution, streamed-trajectory byte-identity, "
              "fabric mid-task continuation, clean drain")
        return 0
    finally:
        for process in children:
            if process.poll() is None:
                process.kill()
        if args.keep is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
