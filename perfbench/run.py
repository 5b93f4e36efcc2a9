"""The repository benchmark: one command, two workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figures-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` is the separate traced run that reports the per-layer
metrics and the tracing overhead. Both check the outputs. The metric
names and units are those in ``BENCHMARK.json``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every check
passed. ``perfbench/README.md`` maps each metric to its layer and
workload.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import traceback
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Workload name -> (module, function) that runs it.
WORKLOADS = {
    "figures-cold": ("perfbench.figures", "run_cold"),
    "served-sweep": ("perfbench.served", "run_served"),
}


def _layer_value(trace: dict, counters: dict, name: str, known: set[str]) -> float:
    """One per-layer metric out of a traced run's summary."""
    from perfbench.samples import median

    def med(values) -> float:
        return median(values) if values else 0.0

    def share(pair) -> float:
        return pair[1] / (pair[0] + pair[1]) if pair[0] + pair[1] else 0.0

    outcomes = trace["outcomes"]
    derived = {
        "cli.import_s": lambda: med(trace.get("cli_import_s", [])),
        "runner.cache.hit_ratio": lambda: share(outcomes.get("cache_hit", [0, 0])),
        "runner.queue.empty_claim_ratio": lambda: share(
            outcomes.get("claim_empty", [0, 0])
        ),
        "runner.queue.wait_s": lambda: med(trace["queue_wait_s"]),
        "runner.queue.result_wait_s": lambda: med(trace["result_wait_s"]),
        "server.resubmit_s": lambda: med(trace.get("resubmit_s", [])),
        "trace.overhead_s": lambda: trace["overhead_s"],
        "trace.overhead_frac": lambda: trace["overhead_frac"],
    }
    if name in derived:
        return derived[name]()
    if name in counters:
        return counters[name]
    if name.startswith("cli.figures."):  # the traced figures-cold run only
        figures = trace.get("cli_figures", {"call_s": 0.0, "layers": {}})
        if name == "cli.figures.call_s":
            return figures["call_s"]
        function = name.removeprefix("cli.figures.").removesuffix(".calls")
        return figures["layers"].get(function, [0, 0.0])[0]
    if name.startswith("client.request_s."):
        return med(trace["client_s"][name.rpartition(".")[2]])
    function, _, field = name.rpartition(".")
    if function in known and field in ("calls", "self_s"):
        calls, seconds = trace["layers"].get(function, [0, 0.0])
        return calls if field == "calls" else seconds
    raise KeyError(f"per-layer metric {name!r} has no source")


def _metrics(spec: dict, ctx, outcome) -> dict:
    """The declared metrics of this run: end-to-end, or per-layer if traced."""
    from perfbench.spans import LAYER_TARGETS

    if ctx.trace:
        known = {target[3] for target in LAYER_TARGETS}
        declared = spec["per_layer"]
        values = {
            m["name"]: _layer_value(outcome.trace, outcome.counters, m["name"], known)
            for m in declared
        }
    else:
        declared = spec["end_to_end"]
        values = {m["name"]: outcome.metrics[m["name"]] for m in declared}
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.common import Context, Outcome
    from perfbench.simresults import PAPER_VALUES

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(ROOT, work, args.seed, args.seconds, trace=bool(args.trace))
    module, function = WORKLOADS[args.workload]
    outcome = Outcome()
    metrics = {}
    try:
        getattr(import_module(module), function)(ctx, outcome)
        metrics = _metrics(spec, ctx, outcome)
    except Exception as error:  # a failed run is reported, counted and exits 1
        traceback.print_exc()
        outcome.attempted = max(outcome.attempted, 1)
        outcome.failed = outcome.attempted
        outcome.mismatches.append(f"{args.workload} failed: {error!r}")

    for note in outcome.notes:
        print(note)
    for mismatch in outcome.mismatches:
        print(f"MISMATCH: {mismatch}")
    for name, metric in metrics.items():
        paper = PAPER_VALUES.get(name)
        beside = f" (simulated; paper: {paper})" if paper else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{beside}")
    correct = not outcome.mismatches
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
