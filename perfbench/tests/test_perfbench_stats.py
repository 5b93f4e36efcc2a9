"""The benchmark's arithmetic: the tail-percentile rule and span self times."""

import pytest

from perfbench.samples import median, tail
from perfbench.spans import Tracer, merge_summaries, self_times


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    value, pct, n = tail(values)
    assert (pct, n) == (90, 100)
    assert value == 90
    assert sum(v > value for v in values) == 10


@pytest.mark.parametrize("n", [20, 21, 29, 30, 57, 1000])
def test_tail_is_the_highest_such_percentile(n):
    values = [float(i) for i in range(n)]
    value, pct, _ = tail(values)
    assert sum(v > value for v in values) >= 10
    # One percentile higher would leave fewer than ten beyond.
    higher = values[-(-((pct + 1) * n) // 100) - 1]
    assert sum(v > higher for v in values) < 10


@pytest.mark.parametrize("n", [1, 2, 3, 10, 19])
def test_tail_below_twenty_samples_is_the_median(n):
    assert tail(range(n)) == (median(range(n)), 50, n)


def test_self_time_subtracts_direct_children_only():
    ms = 1_000_000
    spans = [
        # id, parent, name, start, end, request
        (1, 0, "outer", 0, 100 * ms, 7),
        (2, 1, "mid", 10 * ms, 60 * ms, 7),
        (3, 2, "leaf", 20 * ms, 30 * ms, 7),
        (4, 2, "leaf", 40 * ms, 45 * ms, 7),
        (5, 1, "leaf", 70 * ms, 80 * ms, 7),
    ]
    totals = self_times(spans)
    assert totals["outer"] == [1, pytest.approx(0.100 - 0.050 - 0.010)]
    assert totals["mid"] == [1, pytest.approx(0.050 - 0.015)]
    assert totals["leaf"] == [3, pytest.approx(0.025)]
    # Self times partition the root span.
    assert sum(s for _, s in totals.values()) == pytest.approx(0.100)


class _Base:
    def hook(self):
        return "base"


class _Derived(_Base):
    def work(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return x * 2


def test_tracer_wraps_defined_methods_and_restores_them():
    tracer = Tracer()
    original = _Derived.__dict__["work"]
    tracer.wrap(_Derived, "work", "work")
    tracer.wrap(_Derived, "inner", "inner")
    tracer.request = 3
    assert _Derived().work(5) == 11
    tracer.uninstall()
    assert _Derived.__dict__["work"] is original
    (inner,) = [s for s in tracer.spans if s[2] == "inner"]
    (work,) = [s for s in tracer.spans if s[2] == "work"]
    assert inner[1] == work[0] and work[1] == 0
    assert inner[5] == work[5] == 3
    summary = merge_summaries([tracer.summary(), tracer.summary()])
    assert summary["layers"]["work"][0] == 2


def test_tracer_refuses_inherited_methods():
    # The simulator compares prefetcher hooks against the base class's;
    # a wrapper on an inherited attribute would change that identity.
    with pytest.raises(ValueError, match="inherited"):
        Tracer().wrap(_Derived, "hook", "hook")
