"""Child processes for the benchmark: spawn, time, reap with ``wait4``.

Every workload runs the program as a separate process, the way a user
starts it.  Peak RSS is read per child from ``os.wait4``: the
``RUSAGE_CHILDREN`` aggregate reports the maximum over every child this
process has ever reaped, so it cannot attribute memory to one command.

Timestamps are ``time.perf_counter()``, which is ``CLOCK_MONOTONIC`` on
Linux and therefore comparable between this process and its children
(the traced child starts its root span at the parent's spawn time).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: Hard ceiling on one child, well inside the run's own 180 s limit.
CHILD_TIMEOUT_S = 120.0


class BenchError(Exception):
    """The benchmark cannot run or its output check failed."""


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    #: User + system CPU time of the child, from wait4.
    cpu_s: float
    peak_rss_mb: float
    stderr: str


#: One BLAS/OpenMP thread per child: a command then uses one CPU, and no
#: idle pool thread spins beside it on a small shared host.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def repo_env(root: Path) -> dict:
    """The environment a user sets up from the README, ``PYTHONPATH=src``,
    with :data:`ONE_THREAD`."""
    env = {**os.environ, **ONE_THREAD}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Child:
    """A spawned child with its output in ``logdir`` files, reaped once by
    ``wait4`` so its own rusage is kept.

    Output goes to files rather than pipes, so nothing has to read while
    the child runs, and ``wait4`` can reap it (``communicate`` would reap
    it itself and lose the rusage).  A timer kills it after ``timeout``.
    """

    def __init__(self, argv: list, *, root: Path, logdir: Path, tag: str,
                 timeout: float = CHILD_TIMEOUT_S) -> None:
        self.err_path = logdir / f"{tag}.stderr"
        with open(logdir / f"{tag}.stdout", "wb") as out, open(self.err_path, "wb") as err:
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=root,
                                         env=repo_env(root))
        self._killer = threading.Timer(timeout, os.kill, (self.proc.pid, signal.SIGKILL))
        self._killer.start()
        self._status = None
        self._usage = None

    def exited(self) -> bool:
        """Non-blocking: has the child ended (reaping it if so)?"""
        if self._status is None:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self._status, self._usage = status, usage
        return self._status is not None

    def kill(self) -> None:
        """SIGKILL the child unless it has already been reaped.

        Not ``Popen.kill``: that polls, and a poll that reaps the child
        would leave ``wait`` without its rusage.
        """
        if not self.exited():
            os.kill(self.proc.pid, signal.SIGKILL)

    def wait(self) -> ChildResult:
        if self._status is None:
            _, self._status, self._usage = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.started
        self._killer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(self._status)
        return ChildResult(
            returncode=self.proc.returncode,
            wall_s=wall,
            cpu_s=self._usage.ru_utime + self._usage.ru_stime,
            peak_rss_mb=self._usage.ru_maxrss / 1024.0,
            stderr=self.err_path.read_text(errors="replace"),
        )


def run_child(argv: list, *, root: Path, logdir: Path, tag: str) -> ChildResult:
    """Run ``argv`` to completion; measure wall clock and its own peak RSS."""
    return Child(argv, root=root, logdir=logdir, tag=tag).wait()


def cli_argv(args: list) -> list:
    """``repro-ft ARGS`` as run from a source checkout (``python -m repro.cli``)."""
    return [sys.executable, "-m", "repro.cli", *args]
