"""Simulated outputs of a run: payload digests, headline figures, counters.

Everything here is simulated (model) data, not host time, and repeats
exactly for a given code version, workload and seed. The model is not
validated against hardware: the headline figures are shown beside the
paper's reported values, never as an error against them.
"""

from __future__ import annotations

import hashlib
import json

#: The paper's reported values, printed beside the simulated figures.
PAPER_VALUES = {
    "sim.nvr_speedup_x": "~4x (Fig. 5, geomean vs InO)",
    "sim.nvr_stall_reduction": "0.992 (Fig. 5, FP16)",
    "sim.nvr_coverage": ">0.90 (Fig. 6)",
    "sim.nsb_vs_l2_benefit_x": "~5x (Fig. 9)",
}


def canonical(payload: dict) -> bytes:
    """The byte form two payloads are compared and hashed in."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def cached_payloads(cache, specs) -> list[dict]:
    """Each spec's payload from ``cache``; a missing point is an error."""
    payloads = []
    for spec in specs:
        payload = cache.get(spec)
        if payload is None:
            raise LookupError(f"no cached result for {spec.label()}")
        payloads.append(payload)
    return payloads


def digest(payloads) -> str:
    """sha256 over the canonical payloads, in the order given."""
    h = hashlib.sha256()
    for payload in payloads:
        h.update(canonical(payload))
        h.update(b"\n")
    return h.hexdigest()


def simulated_cycles(payloads) -> int:
    """Every simulated cycle behind ``payloads``: real runs plus their
    perfect-memory base runs."""
    total = 0
    for payload in payloads:
        if payload.get("kind") == "sim":
            result = payload["result"]
            total += result["total_cycles"] + (result.get("base_cycles") or 0)
    return total


def counters(payloads) -> dict[str, float]:
    """Simulated counters, pooled over the sim payloads.

    Rates are pooled (summed numerators over summed denominators), not
    averaged per point. ``dram_fills`` counts lines brought from DRAM:
    L2 demand misses plus prefetched lines that went off chip.
    """
    sums: dict[str, int] = dict.fromkeys(
        (
            "total",
            "stall",
            "l2_acc",
            "l2_miss",
            "nsb_acc",
            "nsb_hit",
            "pf_off",
            "issued",
            "useful",
            "late",
            "invocations",
            "denied",
        ),
        0,
    )
    for payload in payloads:
        if payload.get("kind") != "sim":
            continue
        stats = payload["stats"]
        sums["total"] += payload["result"]["total_cycles"]
        sums["stall"] += stats["stall_cycles"]
        sums["l2_acc"] += stats["l2"]["demand_accesses"]
        sums["l2_miss"] += stats["l2"]["demand_misses"]
        sums["nsb_acc"] += stats["nsb"]["demand_accesses"]
        sums["nsb_hit"] += stats["nsb"]["demand_hits"]
        sums["pf_off"] += stats["prefetch"]["issued_lines_off_chip"]
        sums["issued"] += stats["prefetch"]["issued"]
        sums["useful"] += stats["prefetch"]["useful"]
        sums["late"] += stats["prefetch"]["late"]
        sums["invocations"] += stats["runahead_invocations"]
        sums["denied"] += stats["runahead_denied_busy"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    covered = sums["useful"] + sums["late"] + sums["l2_miss"]
    return {
        "sim.total_cycles": sums["total"],
        "sim.stall_cycles": sums["stall"],
        "sim.memory.l2.demand_miss_rate": ratio(sums["l2_miss"], sums["l2_acc"]),
        "sim.memory.nsb.demand_hit_rate": ratio(sums["nsb_hit"], sums["nsb_acc"]),
        "sim.memory.dram_fills": sums["l2_miss"] + sums["pf_off"],
        "prefetch.accuracy": min(
            1.0, ratio(sums["useful"] + sums["late"], sums["issued"])
        ),
        "prefetch.coverage": ratio(sums["useful"], covered),
        "prefetch.late": sums["late"],
        "core.runahead_invocations": sums["invocations"],
        "core.runahead_denied_busy": sums["denied"],
    }


def headlines(session, scale: float, seed: int) -> dict[str, float]:
    """The paper's four headline figures at ``scale``/``seed``.

    Computed with the ``repro.analysis.experiments`` functions the report
    uses, through ``session``; with a warm cache this simulates nothing.
    """
    from repro.analysis.experiments import (
        fig5_latency_breakdown,
        fig6_accuracy_coverage,
        fig9_nsb_sensitivity,
    )
    from repro.analysis.paperfigs import FIG9_SCALE_CAP
    from repro.utils import geometric_mean
    from repro.workloads import WORKLOAD_ORDER

    fig5 = fig5_latency_breakdown(
        panels=("fp16",), scale=scale, seed=seed, session=session
    )
    panel = fig5.panels["fp16"]
    speedups = [1.0 / max(panel[w]["nvr"].total, 1e-9) for w in WORKLOAD_ORDER]
    fig6 = fig6_accuracy_coverage(scale=scale, seed=seed, session=session)
    fig9 = fig9_nsb_sensitivity(
        scale=min(scale, FIG9_SCALE_CAP), seed=seed, session=session
    )
    return {
        "sim.nvr_speedup_x": geometric_mean(speedups),
        "sim.nvr_stall_reduction": fig5.stall_reduction("fp16", "nvr"),
        "sim.nvr_coverage": fig6.mean_coverage("nvr"),
        "sim.nsb_vs_l2_benefit_x": fig9.nsb_vs_l2_benefit(),
    }
