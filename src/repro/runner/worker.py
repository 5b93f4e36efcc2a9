"""Shard and queue-unit execution, result files, and merging.

A worker is any process that can import ``repro`` and see the work: a
*shard* worker (``python -m repro worker run``) executes a pre-dealt
wire-format plan file, a *queue* worker (``python -m repro queue
worker``, :func:`run_queue_worker` here) pulls claimable unit files from
a shared :class:`~repro.runner.queue.WorkQueue` directory until told to
stop. Both owe the submitter nothing but result files::

    shard.json      a wire-format Plan (usually one Plan.shard() output)
    results.json    {"format": 1, "results": [{"key", "spec", "payload"}]}

Every record is content-addressed: ``key`` is the executed
``RunSpec.key()`` and ``payload`` the pure-JSON result — exactly the
bytes :func:`~repro.runner.pool.execute_spec` would produce anywhere,
so merged results are bit-identical to local execution.

:func:`merge_results` folds result files back into a
:class:`~repro.runner.cache.ResultCache`, after which figure runners
and sweeps consume them as ordinary warm cache hits. The merge runs
under the cache's inter-process lock so a concurrent ``repro cache gc``
cannot collect entries out from under it.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigError, ReproError
from ..spec import parse_json
from .cache import ResultCache, atomic_write_json, default_salt
from .plan import PLAN_FORMAT, Plan, RunSpec
from .progress import NullProgress
from .queue import (
    DEFAULT_HEARTBEAT,
    DEFAULT_POLL,
    ClaimedUnit,
    WorkQueue,
)


def run_shard(plan: Plan, jobs: int = 1, progress=None) -> list[dict]:
    """Execute a shard and return its content-addressed result records.

    Points are deduplicated and executed in key order (one record per
    unique spec), inline by default or across a local process pool with
    ``jobs > 1``. Workers are cache-less on purpose: their results are
    merged into the *submitter's* cache, so a worker machine needs no
    state beyond the shard file.
    """
    from .backend import LocalPoolBackend  # circular at import time only

    progress = progress if progress is not None else NullProgress()
    pending = [(spec.key(), spec) for spec in plan.unique_specs()]
    progress.plan_started(len(plan.specs), len(pending), 0)
    backend = LocalPoolBackend(jobs=jobs)
    payloads: dict[str, tuple[RunSpec, dict]] = {}
    try:
        done = 0
        for key, spec, payload in backend.run(pending):
            payloads[key] = (spec, payload)
            done += 1
            progress.point_done(spec.label(), "run", done, len(pending))
    finally:
        backend.close()
    progress.plan_finished(len(pending), 0, 0.0)
    return [
        {"key": key, "spec": spec.to_dict(), "payload": payload}
        for key, (spec, payload) in sorted(payloads.items())
    ]


def _default_worker_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


def _silent(text: str) -> None:
    pass


def _process_unit(
    queue: WorkQueue, unit: ClaimedUnit, worker_id: str, heartbeat: float
) -> str | None:
    """Execute one claimed unit: heartbeat, run, report, clean up.

    The lease is touched from a daemon thread for the whole execution,
    so a healthy-but-slow unit is never recovered out from under us.
    Returns ``None`` on success. Any :class:`Exception` out of the spec
    itself — a :class:`~repro.errors.ReproError`, or a plain bug like a
    ``TypeError`` in the simulator — is *reported* (``failed/`` file,
    returned as text) rather than raised: such errors are deterministic,
    so releasing the unit would just poison the next claimant, and the
    orchestrator surfaces them to the submitter like a local backend
    would. Only interrupts (``KeyboardInterrupt``/``SystemExit``)
    release the unit back into the queue and remove the lease, so an
    interrupted worker leaves nothing orphaned.
    """
    from .pool import execute_spec  # circular at import time only

    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat):
            queue.heartbeat(unit)

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        records = []
        for spec in unit.specs:
            payload = execute_spec(spec)
            records.append(
                {
                    "key": spec.key(),
                    "spec": spec.to_dict(),
                    "payload": payload,
                    # Stamped so a reused work dir can never serve a
                    # result computed by a different simulator version
                    # (the orchestrator discards salt mismatches and
                    # re-runs).
                    "salt": default_salt(),
                }
            )
        write_results(queue.result_path(unit.id), records)
    except Exception as exc:
        stop.set()
        thread.join()
        error = (
            str(exc)
            if isinstance(exc, ReproError)
            else f"{type(exc).__name__}: {exc}"
        )
        if len(unit.specs) > 1:
            error = f"{spec.label()}: {error}"
        queue.report_failure(unit.id, worker_id, error)
        queue.complete(unit)
        return error
    except BaseException:
        stop.set()
        thread.join()
        queue.release(unit)
        raise
    stop.set()
    thread.join()
    queue.complete(unit)
    return None


def run_queue_worker(
    work_dir: str | os.PathLike,
    worker_id: str | None = None,
    idle_timeout: float | None = None,
    max_units: int | None = None,
    poll: float = DEFAULT_POLL,
    heartbeat: float = DEFAULT_HEARTBEAT,
    log=None,
) -> int:
    """Pull and execute queue units until stopped; returns units processed.

    The claim/run/report loop behind ``repro queue worker``: claim a
    unit by atomic rename, execute its spec(s) (heartbeating the lease),
    write its result file (one record per spec) — or its failure
    report, when a spec itself raises — and repeat. The loop ends when

    * a ``stop`` sentinel appears in the work directory
      (:meth:`~repro.runner.queue.WorkQueue.request_stop`),
    * ``max_units`` units have been executed, or
    * the queue has been empty for ``idle_timeout`` seconds
      (``None`` = wait for work forever).

    An idle worker waits on the queue's ``queued`` doorbell, so a unit
    enqueued on this host is claimed at once; ``poll`` bounds the wait
    for everything a doorbell cannot carry (enqueues from other hosts).

    ``log`` is an optional ``callable(str)`` for per-unit progress lines
    (the CLI passes a stderr printer; library callers default silent).
    """
    queue = WorkQueue(work_dir).ensure()
    worker_id = worker_id if worker_id is not None else _default_worker_id()
    emit = log if log is not None else _silent
    done = 0
    idle_since = time.monotonic()
    # Registered before the first scan, so a unit enqueued between an
    # empty scan and the wait after it still wakes this worker.
    with queue.doorbell("queued") as bell:
        while True:
            if queue.stop_requested():
                emit(f"worker {worker_id}: stop requested, exiting ({done} done)")
                break
            if max_units is not None and done >= max_units:
                break
            unit = queue.claim_next(worker_id)
            if unit is None:
                if (
                    idle_timeout is not None
                    and time.monotonic() - idle_since >= idle_timeout
                ):
                    emit(f"worker {worker_id}: idle for {idle_timeout:g}s, exiting")
                    break
                bell.wait(poll)
                continue
            label = unit.specs[0].label()
            if len(unit.specs) > 1:
                label += f" +{len(unit.specs) - 1} more"
            emit(f"worker {worker_id}: claimed {unit.id[:12]} ({label})")
            error = _process_unit(queue, unit, worker_id, heartbeat)
            done += 1
            queue.record_completion(
                worker_id, points=len(unit.specs), failed=error is not None
            )
            if error is not None:
                emit(f"worker {worker_id}: unit {unit.id[:12]} failed: {error}")
            else:
                emit(f"worker {worker_id}: done {unit.id[:12]} ({done} total)")
            idle_since = time.monotonic()
    return done


def write_results(path: str | os.PathLike, records: list[dict]) -> Path:
    """Atomically write a worker result file (temp file + rename)."""
    return atomic_write_json(path, {"format": PLAN_FORMAT, "results": records})


def load_results(path: str | os.PathLike) -> list[dict]:
    """Read and validate one worker result file.

    Any malformation — unreadable file, bad JSON, wrong format version,
    a record whose ``key`` does not match its ``spec`` — raises
    :class:`~repro.errors.ConfigError`: merging a corrupt record would
    poison the cache under a wrong content address.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read result file {path}: {exc}") from None
    document = parse_json(text, f"result file {path}")
    version = document.get("format")
    if version != PLAN_FORMAT:
        raise ConfigError(
            f"{path}: unsupported result format {version!r} "
            f"(this reader understands format {PLAN_FORMAT})"
        )
    records = document.get("results")
    if not isinstance(records, list):
        raise ConfigError(f"{path}: 'results' must be a list")
    for i, record in enumerate(records):
        if not isinstance(record, dict) or not {
            "key", "spec", "payload"
        } <= set(record):
            raise ConfigError(
                f"{path}: result #{i} must be an object with "
                "'key', 'spec' and 'payload'"
            )
        try:
            spec = RunSpec.from_dict(record["spec"])
        except (ConfigError, TypeError) as exc:
            raise ConfigError(f"{path}: result #{i} spec: {exc}") from None
        if spec.key() != record["key"]:
            raise ConfigError(
                f"{path}: result #{i} key does not match its spec — "
                "corrupt or mismatched result file"
            )
        if not isinstance(record["payload"], dict):
            raise ConfigError(f"{path}: result #{i} payload must be an object")
    return records


@dataclass
class MergeReport:
    """What one :func:`merge_results` call folded into the cache."""

    files: int = 0
    records: int = 0
    merged: int = 0
    refreshed: int = 0  # records whose entry already existed
    paths: list[str] = field(default_factory=list)


def merge_results(paths: list[str | os.PathLike], cache: ResultCache) -> MergeReport:
    """Fold worker result files into ``cache`` as ordinary entries.

    Validates every file before writing anything (a corrupt shard result
    aborts the whole merge rather than half-applying), then holds the
    cache lock across the writes so a concurrent ``cache gc`` pass can
    never interleave its scan-and-delete with fresh entries landing.
    """
    loaded = [(Path(p), load_results(p)) for p in paths]
    report = MergeReport(files=len(loaded))
    with cache.lock():
        for path, records in loaded:
            report.paths.append(str(path))
            for record in records:
                # Cheap re-parse: load_results already validated the
                # dict (and its key) — records stay pure wire data.
                spec = RunSpec.from_dict(record["spec"])
                report.records += 1
                if cache.path_for(spec).exists():
                    report.refreshed += 1
                else:
                    report.merged += 1
                cache.put(spec, record["payload"])
    return report
