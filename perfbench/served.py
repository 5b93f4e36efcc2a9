"""The served-sweep workload.

The sweep daemon runs in this process (``start_in_thread``) with one
``repro queue worker`` subprocess draining its queue. One client, in a
closed loop, submits small grids: one workload by the five prefetching
mechanisms at scale 0.05, cycling through the eight workloads with a
fresh seed per cycle so every first submission is cold. Sweeps alternate
between two tenants, and each is submitted once more under its own
tenant, which the tenant's cache must answer without queueing anything.
Before each first submission the client waits a seeded random think
time of up to one server poll period. Without it the client would submit
in step with the daemon's poll loop and every latency would snap to a
whole number of poll periods, so the median would flip between them.

The queue/poll protocol, the server and the tenant cache dominate; the
simulation per sweep is small. In the traced run the worker runs
``run_queue_worker`` on a thread of this process instead, so that its
calls are traced too; its figures are therefore not those of a separate
worker process.
"""

from __future__ import annotations

import random
import resource
import shutil
import threading
import time

from perfbench import simresults
from perfbench.common import Context, Outcome, python, reap, spawn
from perfbench.samples import median, tail
from perfbench.spans import NullTracer, Tracer

SCALE = 0.05
ENGINE = "batched"
MECHANISMS = ("inorder", "stream", "imp", "dvr", "nvr")
TENANTS = ("alpha", "beta")
#: Start-ups of daemon plus worker timed for the set-up; the last one runs
#: the loop.
SETUPS = 5
#: Seconds a single sweep may take before the run fails.
SWEEP_TIMEOUT = 60.0
#: Cycle offsets: the untraced loop, the traced loop, the priming sweep.
PLAIN, TRACED, PRIME = 0, 500, 999


def _scale(ctx: Context) -> float:
    return SCALE if ctx.scale is None else ctx.scale


def cycle_seed(seed: int, cycle: int) -> int:
    """The simulation seed of one cycle: distinct per cycle and per run
    seed, so no cycle's first submission finds anything cached."""
    return seed * 1000 + cycle


class Stack:
    """Daemon thread plus one queue worker, on fresh directories."""

    def __init__(self, ctx: Context, name: str, worker_thread: bool) -> None:
        from repro.runner.queue import WorkQueue
        from repro.runner.worker import run_queue_worker
        from repro.server import SweepEngine, start_in_thread

        self.dir = ctx.work / name
        self.work_dir = self.dir / "work"
        self.queue = WorkQueue(self.work_dir)
        self.engine = SweepEngine(
            self.work_dir, cache_dir=self.dir / "cache", engine=ENGINE
        )
        self.handle = start_in_thread(self.engine)
        self.proc = self.thread = None
        self.units = 0
        self.rss_mb = 0.0
        if worker_thread:

            def work() -> None:
                self.units = run_queue_worker(self.work_dir)

            self.thread = threading.Thread(target=work, name="queue-worker")
            self.thread.start()
        else:
            argv = python("-m", "repro", "queue", "worker", "--work-dir")
            self.proc = spawn([*argv, str(self.work_dir)], ctx, self.dir / "worker.log")

    @property
    def url(self) -> str:
        return self.handle.base_url

    def stop(self) -> None:
        """Stop the worker through the queue's stop sentinel, then the daemon."""
        self.queue.stop_path.touch()
        if self.thread is not None:
            self.thread.join(SWEEP_TIMEOUT)
            if self.thread.is_alive():
                raise RuntimeError("queue worker thread did not stop")
        if self.proc is not None:
            code, self.rss_mb = reap(self.proc, timeout=SWEEP_TIMEOUT)
            if code != 0:
                raise RuntimeError(f"queue worker exited {code}")
            stats = self.queue.worker_stats()
            self.units = sum(int(s.get("units", 0)) for s in stats)
        self.handle.stop()


def _sweep(client, grid, tracer) -> tuple[dict, str]:
    """Submit ``grid``, wait for its terminal event, fetch its results."""
    with tracer.span("client.submit"):
        accepted = client.submit(grid)
    if accepted["state"] not in ("done", "cached"):
        with tracer.span("client.events"):
            last = None
            for last in client.events(accepted["id"], timeout=SWEEP_TIMEOUT):
                pass
        if last is None or last["event"] != "done":
            raise RuntimeError(f"sweep {accepted['id']} ended with {last}")
    with tracer.span("client.results"):
        text = client.results(accepted["id"])
    return accepted, text


def _start(ctx: Context, name: str, worker_thread: bool) -> tuple[Stack, float]:
    """Bring up a stack; returns it with its set-up time.

    Set-up ends when the worker claims its first unit, a priming sweep
    of one point submitted as soon as the daemon is up: from then on the
    whole stack is live. The priming sweep is then finished, untimed, so
    the loop starts on an idle stack.
    """
    from repro.client import SweepClient
    from repro.runner.queue import unit_id
    from repro.session import Grid

    start = time.perf_counter()
    stack = Stack(ctx, name, worker_thread)
    try:
        prime = Grid(
            workload="ds",
            mechanism="inorder",
            scale=_scale(ctx),
            seed=cycle_seed(ctx.seed, PRIME),
        )
        client = SweepClient(stack.url)
        client.submit(prime)
        _wait_claimed(stack.queue, unit_id(prime.specs()[0].with_engine(ENGINE)))
        seconds = time.perf_counter() - start
        _sweep(client, prime, NullTracer())
    except BaseException:
        stack.stop()
        raise
    return stack, seconds


def _wait_claimed(queue, uid: str) -> None:
    """Wait until unit ``uid`` has been enqueued and then claimed."""
    deadline = time.monotonic() + SWEEP_TIMEOUT
    queued = False
    while time.monotonic() < deadline:
        if queue.queued_path(uid).exists():
            queued = True
        elif (
            queued
            or queue.claimed_path(uid).exists()
            or queue.result_path(uid).exists()
        ):
            return
        time.sleep(0.002)
    raise RuntimeError(f"no worker claimed unit {uid} within {SWEEP_TIMEOUT:g}s")


def _loop(ctx: Context, stack: Stack, tracer, seconds: float, out, offset=PLAIN):
    """The closed loop; returns the cycles it ran.

    Cycle ``i`` sweeps workload ``i mod 8`` at seed
    ``cycle_seed(seed, offset + i)``.
    """
    from repro.client import SweepClient
    from repro.session import Grid
    from repro.workloads import WORKLOAD_ORDER

    cycles = []
    think = random.Random(ctx.seed)
    deadline = time.monotonic() + seconds
    while not cycles or time.monotonic() < deadline:
        i = len(cycles)
        tracer.request = i
        client = SweepClient(stack.url, tenant=TENANTS[i % len(TENANTS)])
        grid = Grid(
            workload=WORKLOAD_ORDER[i % len(WORKLOAD_ORDER)],
            mechanism=list(MECHANISMS),
            scale=_scale(ctx),
            seed=cycle_seed(ctx.seed, offset + i),
        )
        time.sleep(think.uniform(0.0, stack.engine.poll_interval))
        start = time.perf_counter()
        accepted, text = _sweep(client, grid, tracer)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        again, repeat = _sweep(client, grid, tracer)
        hit_s = time.perf_counter() - start
        out.attempted += 2
        cached = accepted["points"]["cached_at_submit"]
        out.check(cached == 0, f"cycle {i}: {cached} points cached at first", ops=1)
        out.check(
            again["state"] == "cached"
            and again["id"] == accepted["id"]
            and again["points"]["cached_at_submit"] == again["points"]["unique"],
            f"cycle {i}: resubmission answered {again['state']!r}, not 'cached'",
            ops=1,
        )
        out.check(repeat == text, f"cycle {i}: resubmission results differ", ops=1)
        cycles.append({"grid": grid, "text": text, "cold_s": cold_s, "hit_s": hit_s})
    tracer.request = None
    return cycles


def _verify(ctx: Context, cycles, stack: Stack, out: Outcome) -> list[dict]:
    """Served results must equal a local Session's, byte for byte, and the
    worker must have run exactly the cold points plus the priming one:
    resubmissions add no queue units. Returns the cold sweeps' payloads."""
    from repro.runner.cache import ResultCache
    from repro.session import Session

    reference = ctx.work / "reference-cache"
    payloads = []
    with Session(cache_dir=reference, progress=False, engine=ENGINE) as session:
        for n, cycle in enumerate(cycles):
            local = session.sweep(cycle["grid"]).render("json")
            out.check(
                local == cycle["text"],
                f"cycle {n}: served results differ from a local Session sweep",
                ops=2,
            )
    cache = ResultCache(reference)
    for cycle in cycles:
        specs = [s.with_engine(ENGINE) for s in cycle["grid"].specs()]
        payloads += simresults.cached_payloads(cache, specs)
    cold_points = sum(len(c["grid"]) for c in cycles) + 1
    out.check(
        stack.units == cold_points,
        f"the worker ran {stack.units} units for {cold_points} cold points",
    )
    return payloads


def run_served(ctx: Context, out: Outcome) -> None:
    if ctx.trace:
        # The same workloads and think times twice, both with the worker on a
        # thread, untraced and then traced: the difference is the tracing
        # overhead. The traced loop uses other seeds, so that the workload
        # builds the untraced loop memoised in this process are not reused.
        half = ctx.seconds / 2
        plain_stack, _ = _start(ctx, "stack-plain", worker_thread=True)
        try:
            plain = _loop(ctx, plain_stack, NullTracer(), half, out)
        finally:
            plain_stack.stop()
        tracer = Tracer()
        tracer.install()
        try:
            stack, _ = _start(ctx, "stack-traced", worker_thread=True)
            try:
                cycles = _loop(ctx, stack, tracer, half, out, offset=TRACED)
            finally:
                stack.stop()
        finally:
            tracer.uninstall()
        tracer.write(ctx.work / "spans.csv")
        _verify(ctx, plain, plain_stack, out)
        payloads = _verify(ctx, cycles, stack, out)
        plain_s = median(c["cold_s"] for c in plain)
        traced_s = median(c["cold_s"] for c in cycles)
        out.trace = tracer.summary()
        out.trace["resubmit_s"] = [c["hit_s"] for c in cycles]
        out.trace["overhead_s"] = traced_s - plain_s
        out.trace["overhead_frac"] = (traced_s - plain_s) / plain_s
        out.counters = simresults.counters(payloads)
        return

    from repro.session import Session

    setups = []
    for k in range(SETUPS):
        stack, seconds = _start(ctx, f"stack-{k}", worker_thread=False)
        setups.append(seconds)
        if k < SETUPS - 1:
            stack.stop()
            shutil.rmtree(stack.dir, ignore_errors=True)
    try:
        cycles = _loop(ctx, stack, NullTracer(), ctx.seconds, out)
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        stack.stop()
    payloads = _verify(ctx, cycles, stack, out)
    cold = [c["cold_s"] for c in cycles]
    value, pct, n = tail(cold)
    out.metrics.update(
        setup_s=median(setups),
        latency_p50_s=median(cold),
        latency_tail_s=value,
        sim_mcycles_per_s=simresults.simulated_cycles(payloads) / 1e6 / sum(cold),
        peak_rss_mb=self_rss + stack.rss_mb,
    )
    out.notes.append(f"latency_tail_s is p{pct} of n={n} cold sweeps")
    reference = ctx.work / "reference-cache"
    with Session(cache_dir=reference, progress=False, engine=ENGINE) as session:
        out.metrics.update(simresults.headlines(session, _scale(ctx), ctx.seed))
