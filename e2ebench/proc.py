"""Launch program processes and measure them from outside.

Every process writes its stdout/stderr to files; :class:`Proc` polls
for a readiness marker (a line on stdout, a file appearing, ...) and
reaps the process with ``os.wait4`` so its peak RSS (``ru_maxrss``,
the kernel's VmHWM) is read per process.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

#: Poll interval while waiting on a process or a readiness marker.
POLL_S = 0.005


class ProcError(RuntimeError):
    """A process failed to start, timed out, or exited unexpectedly."""


class Proc:
    """One child process with its start time, output files and rusage.

    ``deadline`` (a ``time.perf_counter`` value) bounds every wait: the
    process is killed when it is passed.
    """

    def __init__(self, argv, env, cwd, log_stem: Path, deadline: float,
                 extra_env=None):
        self.argv = list(argv)
        self.deadline = deadline
        self.stdout_path = Path(f"{log_stem}.out")
        self.stderr_path = Path(f"{log_stem}.err")
        child_env = dict(env)
        child_env.update(extra_env or {})
        self._out = open(self.stdout_path, "wb")
        self._err = open(self.stderr_path, "wb")
        self.start = time.perf_counter()
        self.popen = subprocess.Popen(self.argv, stdout=self._out,
                                      stderr=self._err, env=child_env,
                                      cwd=cwd, stdin=subprocess.DEVNULL)
        self.end: float | None = None
        self.returncode: int | None = None
        self.rss_mb = 0.0

    def _reap(self, flags: int) -> bool:
        if self.returncode is not None:
            return True
        pid, status, usage = os.wait4(self.popen.pid, flags)
        if pid == 0:
            return False
        self.end = time.perf_counter()
        self.returncode = os.waitstatus_to_exitcode(status)
        self.popen.returncode = self.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0
        self._out.close()
        self._err.close()
        return True

    def poll(self) -> bool:
        """Whether the process has exited (reaping it if so)."""
        return self._reap(os.WNOHANG)

    def wait_for(self, ready) -> float | None:
        """Seconds from launch until ``ready()`` holds (``None`` if the
        process exited first); kills it and raises past the deadline."""
        while True:
            if ready():
                return time.perf_counter() - self.start
            if self.poll():
                return time.perf_counter() - self.start if ready() else None
            if time.perf_counter() > self.deadline:
                self.kill()
                raise ProcError(f"timed out waiting for {self.argv[:6]}")
            time.sleep(POLL_S)

    def wait(self) -> int:
        """Reap the process, killing it past the deadline."""
        while not self.poll():
            if time.perf_counter() > self.deadline:
                self.kill()
                raise ProcError(f"timed out: {self.argv[:6]}")
            time.sleep(POLL_S)
        return self.returncode

    @property
    def wall(self) -> float:
        return (self.end if self.end is not None
                else time.perf_counter()) - self.start

    def stdout(self) -> str:
        return self.stdout_path.read_text(errors="replace")

    def stderr_tail(self, limit: int = 400) -> str:
        return self.stderr_path.read_text(errors="replace")[-limit:]

    def stdout_has(self, text: str) -> bool:
        try:
            return text in self.stdout_path.read_text(errors="replace")
        except OSError:
            return False

    def kill(self) -> None:
        """SIGKILL and reap (no-op once exited)."""
        if self.returncode is None:
            try:
                self.popen.send_signal(signal.SIGKILL)
            except ProcessLookupError:
                pass
            self._reap(0)


def program_env(root: Path) -> dict:
    """The environment every program process runs with.

    ``src`` of the checkout comes first on the path; the program's own
    switches (fault injection, snapshot/series directories, invariant
    checks) are removed so no inherited setting moves a workload onto
    another code path.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def repro_argv(*args) -> list[str]:
    return [sys.executable, "-m", "repro", *map(str, args)]


def traced_argv(spans_path, workload, run_id, *args) -> list[str]:
    script = Path(__file__).resolve().parent / "traced.py"
    return [sys.executable, str(script), "--spans", str(spans_path),
            "--workload", workload, "--run-id", run_id, *map(str, args)]
