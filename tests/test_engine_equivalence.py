"""The batched simulation kernels are bit-identical to reference.

The ``engine`` axis is *purely* a speed knob: every mechanism, on every
workload, must produce byte-for-byte identical result payloads on the
``batched`` request-vector kernels and the per-event ``reference``
kernels. This is the contract that lets the engines share figures,
caches and goldens — a batched run is just a faster route to the same
record.

Three layers of the contract are pinned here:

* **spec identity** — ``engine="reference"`` folds to the default spec
  (same key, same cache entry), while ``engine="batched"`` gets a
  *distinct* key, so the payload comparisons below genuinely execute
  both implementations rather than sharing one cache hit;
* **payload equality** — :func:`~repro.runner.pool.execute_spec` output
  (the wire/cache format) is compared as whole dicts, ``with_base``
  passes included, across every engine x mechanism x workload x nsb
  point;
* **front-door equality** — a Grid sweep over the engine axis returns
  pairwise-identical results through the Session/cache pipeline.

The golden hashes in ``golden_spec_keys.json`` pin the engine axis's
serialisation (see ``test_spec.py``); this file pins its semantics.

The payload comparisons run the ``reference`` side on the pure-Python
memory kernels (the compiled walk's loader patched to return None), so
the fast engine, which runs on the compiled walk when it is available,
is checked against an implementation that shares none of its code.
"""

import dataclasses
from unittest import mock

import pytest

from repro.errors import ConfigError
from repro.registry import MECHANISM_ORDER
from repro.runner import RunSpec, execute_spec
from repro.session import Grid, Session
from repro.sim.memory import kernel
from repro.spec import SystemSpec

#: Small but non-trivial: one graph workload (irregular gathers, the
#: NVR/NSB fast paths) and one sparse-kernel workload (streaming).
WORKLOADS = ("gcn", "mk")

#: Every registered mechanism plus the preload oracle engine.
ALL_MECHANISMS = tuple(MECHANISM_ORDER) + ("preload",)

#: The non-reference kernel implementations under the equivalence
#: contract. Adding an engine here (and to the spec-identity test) is
#: the entire cost of extending the guarantee to it.
FAST_ENGINES = ("batched",)

SCALE = 0.05


def execute_reference(spec: RunSpec) -> dict:
    """``execute_spec`` with every memory system on the Python kernels."""
    with mock.patch.object(kernel, "load", lambda: None):
        return execute_spec(spec)


class TestEngineSpecIdentity:
    def test_reference_folds_to_default(self):
        assert SystemSpec(engine="reference") == SystemSpec()
        assert SystemSpec(engine=None) == SystemSpec()
        a = RunSpec("ds", engine="reference")
        b = RunSpec("ds")
        assert a == b and a.key() == b.key()

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_fast_engines_are_distinct_cache_keys(self, engine):
        assert RunSpec("ds", engine=engine).key() != RunSpec("ds").key()
        assert SystemSpec(engine=engine) != SystemSpec()

    def test_mode_names_rejected_as_engines(self):
        with pytest.raises(ConfigError, match="execution mode"):
            SystemSpec(engine="inorder")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            SystemSpec(engine="warp-drive")

    def test_removed_vectorized_engine_lists_known_kernels(self):
        with pytest.raises(ConfigError, match="known kernels: reference, batched"):
            SystemSpec(engine="vectorized")


class TestPayloadEquivalence:
    """execute_spec payloads: the bytes that reach caches and workers."""

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
    def test_engine_payload_bit_identical(self, workload, mechanism, engine):
        reference = RunSpec(
            workload, mechanism=mechanism, scale=SCALE, with_base=True
        )
        fast = RunSpec(
            workload,
            mechanism=mechanism,
            scale=SCALE,
            with_base=True,
            engine=engine,
        )
        assert execute_reference(reference) == execute_spec(fast)

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("mechanism", ("nvr", "imp", "dvr"))
    def test_nsb_points_bit_identical(self, workload, mechanism, engine):
        # The NSB demand/prefetch paths are separate hot loops in the
        # hierarchy; cover them explicitly for the NSB-using mechanisms.
        reference = RunSpec(workload, mechanism=mechanism, nsb=True, scale=SCALE)
        fast = RunSpec(
            workload,
            mechanism=mechanism,
            nsb=True,
            scale=SCALE,
            engine=engine,
        )
        assert execute_reference(reference) == execute_spec(fast)


class TestFrontDoorEquivalence:
    def test_grid_engine_axis_groups_identical(self, tmp_path):
        grid = Grid(
            workload=list(WORKLOADS),
            mechanism=["inorder", "nvr"],
            scale=SCALE,
            engine=["reference", *FAST_ENGINES],
        )
        with Session(cache_dir=tmp_path, progress=False) as session:
            rs = session.sweep(grid)
        by_point: dict[tuple, list] = {}
        for spec, result in rs:
            key = (spec.workload, spec.mechanism)
            by_point.setdefault(key, []).append(dataclasses.asdict(result))
        assert len(by_point) == len(WORKLOADS) * 2
        for key, results in by_point.items():
            assert len(results) == 1 + len(FAST_ENGINES), key
            assert all(r == results[0] for r in results[1:]), key
