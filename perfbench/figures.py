"""The figures-cold workload.

figures-cold: the paper figures plan (``figures_plan``, 279 points at
scale 0.1, seed 0: the plan ``benchmarks/BENCH_trajectory.json`` tracks),
swept serially on the ``batched`` engine into an empty result cache, one
sweep per fresh interpreter. Simulation is about 90% of its time. The
benchmark seed shuffles the order in which the points are submitted; it
does not change the simulated data, whose volume varies by about 25%
between data seeds and would swamp the host-time figures. Closed loop,
one client: the next sweep starts when the previous one has ended.

The traced run also drives the figures CLI: after its two sweeps it
calls ``python -m repro figures`` on the traced sweep's cache, once
untimed (which caches the report's few points outside the plan), then
``WARM_CALLS`` times untraced and once traced. Those warm calls give the
per-layer figures of the CLI and of report rendering; they are not part
of the timed loop.
"""

from __future__ import annotations

import json
import shutil
import time

from perfbench import simresults
from perfbench.common import Context, Outcome, python, run_child
from perfbench.samples import median, tail
from perfbench.spans import merge_summaries

SCALE = 0.1
ENGINE = "batched"
#: Data seed of the figures plan (the ``repro figures`` default). The
#: figures-cold payload digest at this seed is pinned in
#: ``perfbench/expected.json``.
PLAN_SEED = 0
#: Points re-run on the reference engine, at these fixed plan positions.
REFERENCE_SAMPLE = 8
#: Fresh interpreters timed for the set-up alone, besides the sweeps' own.
COLD_SETUPS = 6
#: Untraced warm ``repro figures`` calls in the traced run.
WARM_CALLS = 3


def _scale(ctx: Context) -> float:
    return SCALE if ctx.scale is None else ctx.scale


def _plan_specs(ctx: Context):
    """The unique points of the figures plan, as the batched session keys them."""
    from repro.analysis.paperfigs import figures_plan

    plan = figures_plan(scale=_scale(ctx), seed=PLAN_SEED)
    return [spec.with_engine(ENGINE) for spec in plan.unique_specs()]


def _cache_payloads(cache_dir, specs) -> list[dict]:
    from repro.runner.cache import ResultCache

    return simresults.cached_payloads(ResultCache(cache_dir), specs)


def _headlines(ctx: Context, cache_dir, out: Outcome) -> None:
    """The sim.* metrics, computed against an already-filled cache."""
    from repro.session import Session

    with Session(cache_dir=cache_dir, progress=False, engine=ENGINE) as session:
        out.metrics.update(simresults.headlines(session, _scale(ctx), PLAN_SEED))
        out.check(
            session.submitted == 0,
            f"headline figures simulated {session.submitted} points the "
            "figures plan should have cached",
        )


def _child(ctx: Context, mode: str, cache_dir, name: str, *extra: str):
    """Run ``perfbench.child`` once; returns (its record, the run)."""
    record_path = ctx.work / f"{name}.json"
    argv = python("-m", "perfbench.child", "--mode", mode, "--out", str(record_path))
    argv += ["--cache-dir", str(cache_dir), "--scale", str(_scale(ctx)), *extra]
    run = run_child(argv, ctx, ctx.work / f"{name}.log")
    if run.code != 0:
        raise RuntimeError(f"{name} exited {run.code}; see {name}.log")
    return json.loads(record_path.read_text(encoding="utf-8")), run


def _cold_sweep(ctx: Context, index: int, traced: bool) -> dict:
    cache_dir = ctx.work / f"cache-{index}"
    extra = ["--order-seed", str(ctx.seed)]
    if traced:
        extra += ["--spans", str(ctx.work / f"spans-{index}.csv")]
    name = f"cold-{index}"
    record, run = _child(ctx, "cold", cache_dir, name, *extra)
    record["setup_s"] = record["ready_at"] - run.started_at
    record["rss_mb"] = run.rss_mb
    record["cache_dir"] = cache_dir
    return record


def _reference_check(specs, payloads, out: Outcome) -> None:
    """Re-run a fixed subsample on the reference engine; bytes must match."""
    from repro.runner.pool import execute_spec

    sims = [i for i, spec in enumerate(specs) if spec.kind == "sim"]
    picks = {sims[k * len(sims) // REFERENCE_SAMPLE] for k in range(REFERENCE_SAMPLE)}
    for i in sorted(picks):
        reference = execute_spec(specs[i].with_engine("reference"))
        out.check(
            simresults.canonical(reference) == simresults.canonical(payloads[i]),
            f"{specs[i].label()}: batched payload differs from the reference engine",
        )


def _cold_setup(ctx: Context, index: int) -> float:
    """Interpreter start to ready-to-sweep of one fresh interpreter."""
    record, run = _child(ctx, "setup", ctx.work / "setup-cache", f"setup-{index}")
    return record["ready_at"] - run.started_at


def _report_body(text: str) -> str:
    """The report without its header line (wall time and sweep counts)."""
    lines = text.splitlines()
    return "\n".join(line for line in lines if not line.startswith("Run parameters:"))


def _warm_calls(ctx: Context, cache_dir, out: Outcome) -> dict:
    """Warm ``repro figures`` calls on a filled cache; their traced summary.

    The first call is untimed and caches the points the report needs
    beyond the plan. Every later call must render the same report body.
    """
    figures = ["figures", "--scale", str(_scale(ctx)), "--engine", ENGINE]
    figures += ["--cache-dir", str(cache_dir)]
    bodies, seconds = [], []
    summary_path = ctx.work / "warm.trace.json"
    for i in range(WARM_CALLS + 2):
        traced = i == WARM_CALLS + 1
        report = ctx.work / f"warm-{i}.md"
        if traced:
            argv = python("-m", "perfbench.cli_traced", "--out", str(summary_path))
            argv += ["--spans", str(ctx.work / "warm.spans.csv"), "--"]
        else:
            argv = python("-m", "repro")
        argv += [*figures, "-o", str(report)]
        run = run_child(argv, ctx, ctx.work / f"warm-{i}.log")
        if run.code != 0:
            raise RuntimeError(f"warm figures call {i} exited {run.code}")
        bodies.append(_report_body(report.read_text(encoding="utf-8")))
        if 0 < i <= WARM_CALLS:
            seconds.append(run.seconds)
    out.check(
        all(body == bodies[0] for body in bodies),
        "warm figures calls rendered different reports",
    )
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    summary["call_s"] = median(seconds)
    return summary


def run_cold(ctx: Context, out: Outcome) -> None:
    specs = _plan_specs(ctx)
    if ctx.trace:
        records = [_cold_sweep(ctx, 0, False), _cold_sweep(ctx, 1, True)]
    else:
        setups = [_cold_setup(ctx, i) for i in range(COLD_SETUPS)]
        records = []
        deadline = time.monotonic() + ctx.seconds
        while not records or time.monotonic() < deadline:
            records.append(_cold_sweep(ctx, len(records), False))
    out.attempted = len(records)

    digests = []
    for record in records:
        out.check(
            record["simulated"] == len(specs),
            f"cold sweep simulated {record['simulated']} of {len(specs)} points",
            ops=1,
        )
        payloads = _cache_payloads(record["cache_dir"], specs)
        digests.append(simresults.digest(payloads))
    # In the traced run this compares the traced sweep with the untraced one.
    out.check(len(set(digests)) == 1, f"sweeps disagree on the digest: {digests}")
    out.notes.append(f"figures-cold payload digest sha256:{digests[0]}")
    if _scale(ctx) == SCALE:
        expected = json.loads((ctx.root / "perfbench" / "expected.json").read_text())
        out.check(
            digests[0] == expected["figures-cold-digest"],
            "figures-cold digest differs from perfbench/expected.json",
        )
    _reference_check(specs, payloads, out)

    if ctx.trace:
        untraced, traced = records
        warm = _warm_calls(ctx, traced["cache_dir"], out)
        out.trace = merge_summaries([traced["trace"], warm])
        out.trace["cli_import_s"] = [warm["cli_import_s"]]
        out.trace["cli_figures"] = {"call_s": warm["call_s"], "layers": warm["layers"]}
        out.trace["overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        out.trace["overhead_frac"] = out.trace["overhead_s"] / untraced["wall_s"]
        out.counters = simresults.counters(payloads)
    else:
        walls = [r["wall_s"] for r in records]
        value, pct, n = tail(walls)
        cycles = simresults.simulated_cycles(payloads)
        out.metrics.update(
            setup_s=median(setups + [r["setup_s"] for r in records]),
            latency_p50_s=median(walls),
            latency_tail_s=value,
            sim_mcycles_per_s=cycles / 1e6 / median(walls),
            peak_rss_mb=max(r["rss_mb"] for r in records),
        )
        out.notes.append(f"latency_tail_s is p{pct} of n={n} cold sweeps")
        _headlines(ctx, records[-1]["cache_dir"], out)
    for record in records:
        shutil.rmtree(record["cache_dir"], ignore_errors=True)
