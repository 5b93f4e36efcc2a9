"""Shared plumbing: run context, outcome record, child processes."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Seconds any one child process may take before it is killed.
CHILD_TIMEOUT = 150.0


@dataclass
class Context:
    """What one benchmark run was asked to do, and where it may write."""

    root: Path  # repository checkout
    work: Path  # this run's scratch directory inside the checkout
    seed: int
    seconds: float
    trace: bool
    #: Simulation size. The benchmark's own tests shrink it; the
    #: benchmark always runs at the workload's defined scale.
    scale: float | None = None

    def env(self) -> dict[str, str]:
        """Environment for children: this checkout's ``src`` and root
        importable, the default result cache inside the run directory."""
        env = dict(os.environ)
        paths = [str(self.root / "src"), str(self.root)]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["REPRO_CACHE_DIR"] = str(self.work / "default-cache")
        return env


@dataclass
class Outcome:
    """Operations attempted, failed and measured by one workload run."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Traced run only: the merged span summary (see ``spans.Tracer.summary``)
    #: plus ``overhead_s``/``overhead_frac``, and the simulated counters.
    trace: dict | None = None
    counters: dict | None = None

    def check(self, ok: bool, what: str, ops: int = 0) -> bool:
        """Record a correctness check; a failure marks ``ops`` operations
        failed (all of them when ``ops`` is 0)."""
        if not ok:
            self.mismatches.append(what)
            self.failed = min(self.attempted, self.failed + (ops or self.attempted))
        return ok


@dataclass
class ChildRun:
    """One finished child process."""

    code: int
    seconds: float  # spawn to exit
    rss_mb: float  # the child's own peak resident set
    started_at: float  # wall clock at spawn


def spawn(argv: list[str], ctx: Context, log: Path) -> subprocess.Popen:
    """Start ``argv`` from the checkout root, output to ``log``."""
    with open(log, "wb") as out:
        return subprocess.Popen(
            argv, cwd=ctx.root, env=ctx.env(), stdout=out, stderr=subprocess.STDOUT
        )


def reap(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT) -> tuple[int, float]:
    """Wait for ``proc``; returns (exit code, its own peak RSS in MB).

    The child is reaped with ``os.wait4`` so its own resource usage is
    read, not the running maximum over every child this process had. A
    child still running after ``timeout`` seconds is killed.
    """
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def run_child(argv: list[str], ctx: Context, log: Path) -> ChildRun:
    """Run ``argv`` to completion; see :func:`reap`."""
    started_at = time.time()
    start = time.perf_counter()
    code, rss_mb = reap(spawn(argv, ctx, log))
    return ChildRun(code, time.perf_counter() - start, rss_mb, started_at)


def python(*args: str) -> list[str]:
    return [sys.executable, *args]
