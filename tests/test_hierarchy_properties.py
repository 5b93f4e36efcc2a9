"""Hypothesis property tests over random memory-hierarchy interleavings."""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prefetch.base import PrefetchPort
from repro.sim.memory import kernel
from repro.sim.memory.cache import CacheConfig
from repro.sim.memory.dram import DRAMConfig
from repro.sim.memory.hierarchy import (
    CPUTrafficConfig,
    MemoryConfig,
    MemorySystem,
    default_nsb_config,
)
from repro.sim.request import Access, AccessType
from repro.sim.stats import RunStats


def make_system(nsb: bool) -> MemorySystem:
    cfg = MemoryConfig(
        l2=CacheConfig(size_bytes=4 * 1024, assoc=4, mshr_entries=8, name="l2"),
        dram=DRAMConfig(latency=80, bytes_per_cycle=16),
        nsb=default_nsb_config() if nsb else None,
    )
    return MemorySystem(cfg, RunStats())


# One event: (time delta, line index, is_prefetch, irregular)
events_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=63),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=150,
)


class TestHierarchyInvariants:
    @settings(max_examples=60, deadline=None)
    @given(events_strategy, st.booleans())
    def test_random_interleavings_keep_accounting_consistent(self, events, nsb):
        mem = make_system(nsb)
        stats = mem.stats
        now = 0
        for delta, line_idx, is_prefetch, irregular in events:
            now += delta
            line = line_idx * 64
            if is_prefetch:
                ready = mem.prefetch_line(now, line, irregular)
                assert ready is None or ready >= now
            else:
                res = mem.demand_access(now, Access(line, AccessType.DEMAND), irregular)
                # Completion is causal and at least a hit latency away
                # from issue at the serving level.
                assert res.complete_at > now

            # Accounting identities hold after every step.
            l2 = stats.l2
            assert (
                l2.demand_hits + l2.demand_inflight_hits + l2.demand_misses
                == l2.demand_accesses
            )
            pf = stats.prefetch
            assert pf.useful + pf.late <= pf.issued
            assert pf.issued_lines_off_chip <= pf.issued
            assert (
                stats.traffic.off_chip_prefetch_bytes
                == 64 * pf.issued_lines_off_chip
            )
            assert stats.traffic.off_chip_demand_bytes == 64 * l2.demand_misses
            # MSHR occupancy respects capacity.
            assert mem.l2.mshr.occupancy(now) <= mem.l2.mshr.capacity

    @settings(max_examples=30, deadline=None)
    @given(events_strategy)
    def test_prefetched_then_demanded_is_credited_at_most_once(self, events):
        mem = make_system(nsb=False)
        now = 0
        for delta, line_idx, is_prefetch, irregular in events:
            now += delta
            line = line_idx * 64
            if is_prefetch:
                mem.prefetch_line(now, line, irregular)
            else:
                mem.demand_access(now, Access(line, AccessType.DEMAND), irregular)
        pf = mem.stats.prefetch
        # Each issued prefetch can earn at most one credit (useful or late).
        assert pf.useful + pf.late <= pf.issued

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=2, max_size=60))
    def test_second_touch_never_off_chip_within_small_set(self, lines):
        """A working set that fits in the cache never re-misses."""
        mem = make_system(nsb=False)
        seen: set[int] = set()
        now = 0
        for line_idx in lines:
            line = line_idx * 64  # 16 distinct lines; L2 holds 64
            res = mem.demand_access(
                now, Access(line, AccessType.DEMAND), irregular=True
            )
            if line in seen:
                assert not res.off_chip
            seen.add(line)
            now = res.complete_at + 1


# -- compiled walk vs the Python batch kernels --------------------------------
#
# The same random operation sequence runs against two memory systems of
# one configuration: one built with the compiled walk, one with the
# loader patched to return None (the pure-Python batch kernels). Every
# return value, every hook observation and the whole resulting state —
# per-set tag dicts in LRU order, the MSHR heap layout and in-flight
# dict, the pending-prefetch set, counters and statistics — must agree.

line_strategy = st.integers(min_value=0, max_value=127).map(lambda i: i * 64)

walk_op_strategy = st.one_of(
    st.tuples(
        st.just("demand"),
        st.integers(min_value=0, max_value=300),  # time delta
        st.integers(min_value=1, max_value=4),  # issue width
        st.lists(line_strategy, max_size=24),
        st.booleans(),  # irregular
        st.booleans(),  # attach the prefetching hook
    ),
    st.tuples(
        st.just("prefetch"),
        st.integers(min_value=0, max_value=300),
        st.lists(line_strategy, max_size=24),
        st.booleans(),
        st.integers(min_value=0, max_value=8),  # max_issue
    ),
    st.tuples(
        st.just("many"),
        st.integers(min_value=0, max_value=300),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=2), line_strategy),
            min_size=1,
            max_size=24,
        ),
        st.booleans(),
        st.booleans(),  # one same-cycle int instead of a cycle per line
    ),
)


def make_walk_system(nsb: bool, cpu: bool, mshr_entries: int, python: bool):
    cfg = MemoryConfig(
        l2=CacheConfig(
            size_bytes=2 * 1024, assoc=4, mshr_entries=mshr_entries, name="l2"
        ),
        dram=DRAMConfig(latency=60, bytes_per_cycle=16, prefetch_penalty=3),
        nsb=(
            CacheConfig(size_bytes=1024, assoc=4, hit_latency=2, name="nsb")
            if nsb
            else None
        ),
        cpu_traffic=(
            CPUTrafficConfig(
                lines_per_kcycle=150, footprint_bytes=8 * 1024, base_addr=0x4000
            )
            if cpu
            else None
        ),
    )
    if python:
        with mock.patch.object(kernel, "load", lambda: None):
            mem = MemorySystem(cfg, RunStats())
        assert mem._walk is None
    else:
        mem = MemorySystem(cfg, RunStats())
    return mem, PrefetchPort(mem, burst_budget=5)


def walk_state(mem: MemorySystem, port: PrefetchPort) -> dict:
    def level(cache):
        if cache is None:
            return None
        return (
            [
                [(tag, dataclasses.astuple(line)) for tag, line in s.items()]
                for s in cache._sets
            ],
            cache._use_counter,
            cache.evictions,
            cache.prefetch_evicted_unused,
        )

    mshr = mem.l2.mshr
    dram = mem.dram
    return {
        "l2": level(mem.l2),
        "nsb": level(mem.nsb),
        "heap": list(mshr._ready_heap),
        "inflight": list(mshr._inflight.items()),
        "mshr": (mshr.peak_occupancy, mshr.structural_stalls, mshr.coalesced),
        "dram": (
            dram._bus_free_at,
            dram.busy_cycles,
            dram.transfers,
            dram.bytes_transferred,
        ),
        "pending": sorted(mem._pf_pending),
        "cpu": (mem._cpu_last_inject, mem._cpu_lcg, mem.cpu_accesses),
        "stats": dataclasses.asdict(mem.stats),
        "port": (port._burst_now, port._burst_used, port.dropped_over_budget),
    }


def run_walk_ops(mem: MemorySystem, port: PrefetchPort, ops) -> list:
    """Apply ``ops``; returns every result and hook observation in order."""
    seen: list = []

    def hook(at, sid, line, idx, result):
        seen.append(
            (
                "hook",
                at,
                sid,
                line,
                idx,
                result.complete_at,
                result.hit_level,
                result.was_prefetched,
                result.off_chip,
            )
        )
        if result.off_chip or line % 320 == 0:
            # Prefetch mid-batch: these fills land in the sets, heap and
            # pending set the running demand walk is using.
            issued = port.prefetch_many(
                [at, at, at + 1], [line + 64, line + 128, line + 192], sid % 2 == 0
            )
            seen.append(("hook-prefetch", issued))
        if line % 192 == 0:
            # The per-line Python path writes the counters the walk
            # mirrors (use counters, bus, MSHR) through the attributes.
            seen.append(("hook-line", mem.prefetch_line(at, line + 4096, True)))

    now = 0
    for op in ops:
        now += op[1]
        if op[0] == "demand":
            _, _, width, lines, irregular, with_hook = op
            idxs = list(range(len(lines))) if with_hook else None
            done, flags = mem.demand_lines(
                now,
                width,
                lines,
                irregular,
                sid=len(lines),
                hook=hook if with_hook else None,
                idxs=idxs,
            )
            seen.append(("demand", done, bytes(flags)))
        elif op[0] == "prefetch":
            _, _, lines, irregular, max_issue = op
            readys = mem.prefetch_lines(now, lines, irregular, max_issue)
            seen.append(("prefetch", readys))
        else:
            _, _, pairs, irregular, same_cycle = op
            lines = [line for _, line in pairs]
            # Issue cycles are non-decreasing, as the issue loops make them.
            ats = now if same_cycle else sorted(now + d for d, _ in pairs)
            seen.append(("many", port.prefetch_many(ats, lines, irregular)))
    return seen


class TestCompiledWalkMatchesPython:
    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(walk_op_strategy, min_size=1, max_size=25),
        nsb=st.booleans(),
        cpu=st.booleans(),
        mshr_entries=st.sampled_from((1, 2, 8)),
    )
    def test_random_walks_agree(self, ops, nsb, cpu, mshr_entries):
        compiled, compiled_port = make_walk_system(nsb, cpu, mshr_entries, False)
        if compiled._walk is None:
            pytest.skip("compiled walk unavailable (see test_walk_kernel.py)")
        python, python_port = make_walk_system(nsb, cpu, mshr_entries, True)
        assert run_walk_ops(compiled, compiled_port, ops) == run_walk_ops(
            python, python_port, ops
        )
        assert walk_state(compiled, compiled_port) == walk_state(python, python_port)

    def test_full_mshr_file_stalls_identically(self):
        # One MSHR entry and a burst of distinct misses: every miss after
        # the first waits on the heap top (the structural-stall path).
        ops = [
            ("demand", 0, 2, [i * 64 for i in range(12)], True, True),
            ("prefetch", 1, [i * 64 for i in range(40, 52)], True, 8),
            ("many", 0, [(i % 2, (60 + i) * 64) for i in range(10)], False, False),
        ]
        states = []
        for python in (False, True):
            mem, port = make_walk_system(True, True, 1, python)
            run_walk_ops(mem, port, ops)
            states.append(walk_state(mem, port))
        assert states[0]["mshr"][1] > 0
        assert states[0] == states[1]

    def test_exhausted_burst_budget_drops_identically(self):
        # Two bursts in one cycle: the first spends the budget of 5, so
        # the second is dropped whole before reaching the memory system.
        ops = [
            ("many", 10, [(0, (70 + i) * 64) for i in range(8)], True, True),
            ("many", 0, [(0, (90 + i) * 64) for i in range(4)], True, False),
        ]
        states = []
        for python in (False, True):
            mem, port = make_walk_system(True, False, 8, python)
            run_walk_ops(mem, port, ops)
            states.append(walk_state(mem, port))
        assert states[0]["port"] == (10, 5, 7)
        assert states[0] == states[1]
