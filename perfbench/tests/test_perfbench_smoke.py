"""A tiny-size run of every workload, untraced, plus the traced path."""

import json
from pathlib import Path

import pytest

from perfbench.common import Context, Outcome
from perfbench.figures import run_cold
from perfbench.run import _layer_value
from perfbench.served import run_served
from perfbench.spans import LAYER_TARGETS

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 0.02


def _context(tmp_path, trace=False) -> Context:
    return Context(root=ROOT, work=tmp_path, seed=3, seconds=1, trace=trace, scale=TINY)


@pytest.mark.parametrize("run", [run_cold, run_served])
def test_workload_reports_every_end_to_end_metric(tmp_path, run):
    outcome = Outcome()
    run(_context(tmp_path), outcome)
    assert outcome.mismatches == []
    assert outcome.attempted >= 1 and outcome.failed == 0
    for metric in DECLARED["end_to_end"]:
        value = outcome.metrics[metric["name"]]
        assert value > 0, metric["name"]


def _traced(tmp_path, run) -> dict:
    outcome = Outcome()
    run(_context(tmp_path, trace=True), outcome)
    assert outcome.mismatches == []
    known = {target[3] for target in LAYER_TARGETS}
    return {
        m["name"]: _layer_value(outcome.trace, outcome.counters, m["name"], known)
        for m in DECLARED["per_layer"]
    }


def test_traced_cold_run_covers_the_figures_cli(tmp_path):
    values = _traced(tmp_path, run_cold)
    assert values["sim.System.run.calls"] >= 1
    assert values["cli.import_s"] > 0
    assert values["cli.figures.call_s"] > 0
    assert values["analysis.paperfigs.generate_report.calls"] == 1
    assert 0 < values["runner.cache.hit_ratio"] < 1
    assert values["sim.total_cycles"] > 0


def test_traced_served_run_reports_every_per_layer_metric(tmp_path):
    values = _traced(tmp_path, run_served)
    assert values["cli.figures.call_s"] == 0
    assert values["server.SweepEngine.submit.calls"] >= 2
    assert values["runner.queue.WorkQueue.claim_next.calls"] >= 1
    assert values["sim.System.run.calls"] >= 1
    assert values["sim.total_cycles"] > 0
    assert (tmp_path / "spans.csv").stat().st_size > 0


def test_a_failing_run_is_reported_and_exits_1(monkeypatch, capsys):
    import perfbench.figures
    from perfbench.run import main

    def broken(ctx, out):
        out.attempted = 2
        raise RuntimeError("cold sweep exited 1")

    monkeypatch.setattr(perfbench.figures, "run_cold", broken)
    assert main(["--workload", "figures-cold", "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result == {"correct": False, "attempted": 2, "failed": 2, "metrics": {}}
