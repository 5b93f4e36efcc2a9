"""Span tracing of repro's layers from outside the package.

The traced run wraps public functions of each ``repro`` layer in place,
records one span per call and keeps every span in memory until the run
ends. Nothing under ``src/`` knows about it.

Two rules decide where a wrapper goes:

* A function is wrapped where its caller looks it up. ``runner.pool``
  calls ``build_workload`` through its own module global, so the wrapper
  goes on ``repro.runner.pool.build_workload``, not on the registry.
  Methods are wrapped on the class that defines them; the simulator binds
  them per instance when a run starts, after the wrapper is in place.
* A base-class method whose identity the simulator compares is never
  wrapped. ``sim/npu/executor.py`` elides prefetcher hooks that are still
  ``Prefetcher``'s own, so wrapping one of those would change what is
  simulated. :meth:`Tracer.wrap` refuses any attribute that the named
  class only inherits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

#: (module, class or None, attribute, span name). The span name is the
#: layer's module path under ``repro`` plus the function's qualified name.
LAYER_TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.session", "Session", "sweep", "session.Session.sweep"),
    ("repro.runner.plan", "RunSpec", "key", "runner.plan.RunSpec.key"),
    (
        "repro.runner.pool",
        "SweepRunner",
        "run_plan",
        "runner.pool.SweepRunner.run_plan",
    ),
    ("repro.runner.pool", None, "execute_spec", "runner.pool.execute_spec"),
    ("repro.runner.cache", "ResultCache", "get", "runner.cache.ResultCache.get"),
    ("repro.runner.cache", "ResultCache", "put", "runner.cache.ResultCache.put"),
    (
        "repro.runner.queue",
        "WorkQueue",
        "enqueue_batch",
        "runner.queue.WorkQueue.enqueue_batch",
    ),
    (
        "repro.runner.queue",
        "WorkQueue",
        "claim_next",
        "runner.queue.WorkQueue.claim_next",
    ),
    ("repro.runner.queue", "WorkQueue", "complete", "runner.queue.WorkQueue.complete"),
    ("repro.runner.queue", "WorkQueue", "forget", "runner.queue.WorkQueue.forget"),
    ("repro.server.engine", "SweepEngine", "submit", "server.SweepEngine.submit"),
    ("repro.server.engine", "SweepEngine", "poll", "server.SweepEngine.poll"),
    ("repro.spec.system", "SystemSpec", "build", "spec.SystemSpec.build"),
    ("repro.sim.soc", "System", "run", "sim.System.run"),
    (
        "repro.sim.memory.hierarchy",
        "MemorySystem",
        "demand_lines",
        "sim.memory.MemorySystem.demand_lines",
    ),
    (
        "repro.sim.memory.hierarchy",
        "MemorySystem",
        "prefetch_lines",
        "sim.memory.MemorySystem.prefetch_lines",
    ),
    (
        "repro.prefetch.base",
        "PrefetchPort",
        "prefetch_many",
        "prefetch.PrefetchPort.prefetch_many",
    ),
    (
        "repro.core.controller",
        "RunaheadController",
        "on_dispatch",
        "core.RunaheadController.on_dispatch",
    ),
    # Every module that calls build_workload through its own global.
    ("repro.runner.pool", None, "build_workload", "workloads.build_workload"),
    ("repro.llm.inference", None, "build_workload", "workloads.build_workload"),
    ("repro.api", None, "build_workload", "workloads.build_workload"),
    ("repro.__main__", None, "generate_report", "analysis.paperfigs.generate_report"),
)

#: Span names the benchmark opens itself around client calls.
CLIENT_ROUTES = ("submit", "events", "results")


class NullTracer:
    """The untraced run: the same interface, recording nothing."""

    request = None

    def span(self, name: str):
        return contextlib.nullcontext()

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


class Tracer:
    """Records spans in memory; see the module docstring for placement.

    ``request`` is the id of the request in flight. The benchmark's loops
    are closed with one client, so at most one request is in flight and
    every thread's spans take the id current when they start.
    """

    def __init__(self) -> None:
        #: (id, parent id or 0, name, start ns, end ns, request id)
        self.spans: list[tuple] = []
        self.request: int | None = None
        self.timestamps: dict[str, dict[str, int]] = defaultdict(dict)
        self.outcomes: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._outcome_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as one span."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        request = self.request
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, request))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                raise ValueError(
                    f"{owner.__name__}.{attr} is inherited; wrap it on the "
                    "class that defines it"
                )
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        observe = self._observer(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            request = tracer.request
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end, request))
            if observe is not None:
                observe(args, result, end)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def _observer(self, name: str):
        """Counters kept beside the spans of a few queue and cache calls."""
        stamps = self.timestamps
        outcomes = self.outcomes
        lock = self._outcome_lock

        def first_stamp(key: str, uid: str, at: int) -> None:
            stamps[key].setdefault(uid, at)

        if name.endswith("WorkQueue.enqueue_batch"):
            return lambda args, uid, at: first_stamp("enqueued", uid, at)
        if name.endswith("WorkQueue.claim_next"):

            def claimed(args, unit, at):
                with lock:
                    outcomes["claim_empty"][unit is None] += 1
                if unit is not None:
                    first_stamp("claimed", unit.id, at)

            return claimed
        if name.endswith("WorkQueue.complete"):
            return lambda args, _, at: first_stamp("completed", args[1].id, at)
        if name.endswith("WorkQueue.forget"):
            return lambda args, _, at: first_stamp("consumed", args[1], at)
        if name.endswith("ResultCache.get"):

            def looked_up(args, payload, at):
                with lock:
                    outcomes["cache_hit"][payload is not None] += 1

            return looked_up
        return None

    def install(self) -> None:
        for module_name, cls, attr, name in LAYER_TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls) if cls else module
            self.wrap(owner, attr, name)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-layer totals and queue/cache counters, JSON-ready."""
        stamps = self.timestamps
        return {
            "layers": self_times(self.spans),
            "outcomes": {k: list(v) for k, v in self.outcomes.items()},
            "queue_wait_s": _gaps(stamps["enqueued"], stamps["claimed"]),
            "result_wait_s": _gaps(stamps["completed"], stamps["consumed"]),
            "client_s": {
                route: [
                    (end - start) / 1e9
                    for _, _, name, start, end, _ in self.spans
                    if name == f"client.{route}"
                ]
                for route in CLIENT_ROUTES
            },
        }

    def write(self, path) -> None:
        """Write every span as one CSV line (ids, name, ns times, request)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,name,start_ns,end_ns,request\n")
            for sid, parent, name, start, end, request in self.spans:
                req = "" if request is None else request
                handle.write(f"{sid},{parent},{name},{start},{end},{req}\n")


def _gaps(since: dict[str, int], until: dict[str, int]) -> list[float]:
    """Seconds from each unit's first ``since`` stamp to its ``until`` stamp."""
    return [(until[uid] - at) / 1e9 for uid, at in since.items() if uid in until]


def self_times(spans) -> dict[str, list]:
    """``name -> [calls, self seconds]``.

    A span's self time is its duration minus the durations of its direct
    children. Children run on the parent's thread, inside its interval and
    one after another, so their durations add up to the covered part.
    """
    covered: dict[int, int] = defaultdict(int)
    for _, parent, _, start, end, _ in spans:
        if parent:
            covered[parent] += end - start
    totals: dict[str, list] = {}
    for sid, _, name, start, end, _ in spans:
        entry = totals.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += end - start - covered.get(sid, 0)
    return {name: [calls, ns / 1e9] for name, (calls, ns) in totals.items()}


def merge_summaries(summaries) -> dict:
    """Combine the summaries of several traced processes."""
    merged: dict = {
        "layers": {},
        "outcomes": {},
        "queue_wait_s": [],
        "result_wait_s": [],
        "client_s": {route: [] for route in CLIENT_ROUTES},
    }
    for summary in summaries:
        for name, (calls, seconds) in summary["layers"].items():
            entry = merged["layers"].setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += seconds
        for name, (no, yes) in summary["outcomes"].items():
            entry = merged["outcomes"].setdefault(name, [0, 0])
            entry[0] += no
            entry[1] += yes
        merged["queue_wait_s"] += summary["queue_wait_s"]
        merged["result_wait_s"] += summary["result_wait_s"]
        for route, values in summary["client_s"].items():
            merged["client_s"][route] += values
    return merged
