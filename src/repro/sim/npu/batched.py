"""Simulation kernels (the "engine" axis of the ENGINES registry).

The per-mode classes in :mod:`~repro.sim.npu.executor` are the *reference*
kernels: straight-line Python that mirrors the micro-architecture one line
request at a time. The classes here simulate the **same modes with the
same observable behaviour** — bit-identical :class:`~repro.sim.stats.
RunStats` and cycle counts — but hand each instruction's whole request
vector to the memory system's batch kernels.

Two registry entries are added here, both *kernel dispatchers* rather than
modes (marked with ``needs_mode = True`` so
:func:`~repro.sim.npu.executor.build_engine` passes the real mode through):

* ``"reference"`` — resolves to the per-mode class itself. Selecting it is
  exactly the same as selecting no engine; it exists so a sweep can name
  both sides of an equivalence comparison.
* ``"batched"`` — resolves to the request-vector subclass for the mode.

Equivalence is enforced, not assumed: the engine-equivalence test grid
runs every mechanism on both kernels and asserts identical result
payloads, and the spec-key goldens pin that selecting ``"reference"``
(or no engine) leaves cache keys untouched.
"""

from __future__ import annotations

from ...errors import ConfigError
from .executor import (
    ENGINES,
    ExplicitPreloadEngine,
    IdealOoOEngine,
    InOrderEngine,
)
from .isa import VectorGather, VectorLoad

#: Kernel-implementation names accepted by ``SystemSpec.engine`` /
#: ``RunSpec(engine=...)``. "reference" is canonicalised away (it is the
#: default), so only "batched" ever reaches a serialised spec.
ENGINE_NAMES: tuple[str, ...] = ("reference", "batched")


@ENGINES.register("reference")
def reference_kernel(mode, program, mem, prefetcher, sparse_unit, stats, config):
    """Dispatch to the per-mode reference class (the no-engine default)."""
    cls = ENGINES.get(mode)
    if getattr(cls, "needs_mode", False):
        raise ConfigError(f"{mode!r} is a kernel implementation, not a mode")
    return cls(program, mem, prefetcher, sparse_unit, stats, config)


reference_kernel.needs_mode = True


class _BatchedIssueMixin:
    """Whole-instruction request vectors through ``demand_lines``.

    Where the reference kernels make one ``demand_line`` call per line,
    the batched kernels hand the entire instruction's line vector to the
    memory system's
    :meth:`~repro.sim.memory.hierarchy.MemorySystem.demand_lines` batch
    kernel: one Python call per *instruction*, with the per-line state
    walk running inside the hierarchy against inlined cache state. The
    prefetcher demand hook (stream/IMP/DVR) is forwarded into the batch
    loop, so mid-batch prefetches mutate the caches exactly as the
    reference interleaving does.

    The perfect-memory base runs have no ``demand_lines`` (and a
    closed-form schedule anyway), so those fall back to the reference
    issue helpers unchanged.
    """

    def __init__(self, program, mem, prefetcher, sparse_unit, stats, config):
        super().__init__(program, mem, prefetcher, sparse_unit, stats, config)
        self._demand_batch = getattr(mem, "demand_lines", None)

    def _issue_load(self, now: int, load: VectorLoad) -> int:
        batch = self._demand_batch
        if batch is None:
            return super()._issue_load(now, load)
        lines = load.line_addr_list(self._line_bytes)
        if not lines:
            return now
        done, _ = batch(
            now,
            self._issue_width,
            lines,
            False,
            sid=load.stream_id,
            hook=self._pf_hook,
        )
        return done

    def _issue_gather(self, now: int, gather: VectorGather) -> int:
        batch = self._demand_batch
        if batch is None:
            return super()._issue_gather(now, gather)
        width = self._vec_width
        batch_stats = self.stats.batch
        _firsts, counts_l, _idx, total = gather.line_span_lists(self._line_bytes)
        n_elems = len(counts_l)
        batch_stats.elements += n_elems
        batch_stats.batches += (n_elems + width - 1) // width
        if total == 0:
            return now
        hook = self._pf_hook
        lines = gather.flat_line_list(self._line_bytes)
        idxs = (
            gather.flat_first_idx_list(self._line_bytes)
            if hook is not None
            else None
        )
        done, flags = batch(
            now,
            self._issue_width,
            lines,
            True,
            sid=gather.stream_id,
            hook=hook,
            idxs=idxs,
        )
        if 1 in flags:
            # Fold per-line DRAM flags into element/batch miss counts:
            # an element misses when any of its segment's lines went
            # off-chip, a vector batch when any of its elements did.
            find = flags.find
            elem_misses = 0
            batch_misses = 0
            pos = 0
            for b0 in range(0, n_elems, width):
                missed = False
                for e in range(b0, min(b0 + width, n_elems)):
                    count = counts_l[e]
                    if find(1, pos, pos + count) >= 0:
                        elem_misses += 1
                        missed = True
                    pos += count
                if missed:
                    batch_misses += 1
            batch_stats.element_misses += elem_misses
            batch_stats.batch_misses += batch_misses
        return done


class BatchedInOrderEngine(_BatchedIssueMixin, InOrderEngine):
    """``inorder`` timing model on the batched hierarchy kernels."""


class BatchedOoOEngine(_BatchedIssueMixin, IdealOoOEngine):
    """``ooo`` timing model on the batched hierarchy kernels."""


class BatchedPreloadEngine(_BatchedIssueMixin, ExplicitPreloadEngine):
    """``preload`` timing model on the batched hierarchy kernels."""


_BATCHED_KERNELS = {
    "inorder": BatchedInOrderEngine,
    "ooo": BatchedOoOEngine,
    "preload": BatchedPreloadEngine,
}


@ENGINES.register("batched")
def batched_kernel(mode, program, mem, prefetcher, sparse_unit, stats, config):
    """Dispatch to the batched-hierarchy kernel for ``mode``."""
    try:
        cls = _BATCHED_KERNELS[mode]
    except KeyError:
        raise ConfigError(
            f"no batched kernel for executor mode {mode!r} "
            f"(have: {', '.join(_BATCHED_KERNELS)})"
        ) from None
    return cls(program, mem, prefetcher, sparse_unit, stats, config)


batched_kernel.needs_mode = True
