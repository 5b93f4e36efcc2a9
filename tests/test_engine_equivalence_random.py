"""Randomized cross-engine equivalence: hypothesis explores the spec space.

``test_engine_equivalence.py`` pins a hand-picked grid; this file lets
hypothesis draw random points from a much larger spec space — every
workload, every mechanism, random scales/seeds, NSB on and off, and NVR
tuning overrides for the NVR mechanism — and asserts both engines
(``reference``, ``batched``) produce byte-for-byte identical
:func:`~repro.runner.pool.execute_spec` payloads on each one.

The ``reference`` side runs on the pure-Python memory kernels (the
compiled walk's loader patched to return None), so a bug in the
compiled walk cannot hide by appearing on both sides.

Settings discipline: ``derandomize=True`` keeps CI deterministic (the
corpus still varies across hypothesis versions, which is the point —
fresh points over time without flaky runs), ``deadline=None`` because a
point is a whole simulation, and small scales keep the draw affordable.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.controller import NVRConfig
from repro.registry import MECHANISM_ORDER
from repro.runner import RunSpec, execute_spec
from repro.sim.memory import kernel
from repro.workloads.registry import WORKLOAD_ORDER

ENGINES = ("batched",)


def execute_reference(spec: RunSpec) -> dict:
    """``execute_spec`` with every memory system on the Python kernels."""
    with mock.patch.object(kernel, "load", lambda: None):
        return execute_spec(spec)


spec_strategy = st.fixed_dictionaries(
    {
        "workload": st.sampled_from(WORKLOAD_ORDER),
        "mechanism": st.sampled_from(tuple(MECHANISM_ORDER) + ("preload",)),
        "nsb": st.booleans(),
        "scale": st.sampled_from((0.02, 0.03, 0.05)),
        "seed": st.integers(min_value=0, max_value=5),
        "with_base": st.booleans(),
    }
)

nvr_strategy = st.fixed_dictionaries(
    {
        "workload": st.sampled_from(WORKLOAD_ORDER),
        "nsb": st.booleans(),
        "scale": st.sampled_from((0.02, 0.04)),
        "seed": st.integers(min_value=0, max_value=3),
        "vector_width": st.sampled_from((4, 8, 16)),
        "depth_tiles": st.sampled_from((2, 8)),
        "approximate": st.booleans(),
    }
)


class TestRandomizedEquivalence:
    @settings(
        max_examples=15,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(point=spec_strategy)
    def test_random_specs_identical_across_engines(self, point):
        reference = execute_reference(RunSpec(**point))
        for engine in ENGINES:
            assert execute_spec(RunSpec(**point, engine=engine)) == reference

    @settings(
        max_examples=10,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(point=nvr_strategy)
    def test_random_nvr_tunings_identical_across_engines(self, point):
        nvr = NVRConfig(
            vector_width=point["vector_width"],
            depth_tiles=point["depth_tiles"],
            approximate=point["approximate"],
        )
        base = dict(
            workload=point["workload"],
            mechanism="nvr",
            nsb=point["nsb"],
            scale=point["scale"],
            seed=point["seed"],
            nvr=nvr,
        )
        reference = execute_reference(RunSpec(**base))
        for engine in ENGINES:
            assert execute_spec(RunSpec(**base, engine=engine)) == reference
