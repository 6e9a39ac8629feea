"""Trace-compiled fast path (the blockcache): equivalence and safety.

The contract under test is absolute: with the blockcache on, every
simulator must produce **byte-identical** canonical output to the pure
detailed timing loop, on every kernel — kernels the cache compiles
(steady all-hit loops) and kernels it must decline (miss-dominated or
misprediction-noisy bodies) alike.  On top of equivalence, the verify
sampler must actually sample (and quarantine on divergence), and the
``blockcache=False`` escape hatch must keep the layer fully out of the
run.

The default matrix keeps tier-1 cheap; ``REPRO_FULL=1`` widens it to
the full kernel set including the M-LOOP bench kernel.
"""

import os

import pytest

from repro.core.blockcache import (
    BlockCacheConfig,
    resolve_blockcache,
)
from repro.core.simalpha import SimAlpha
from repro.core.siminitial import make_sim_initial
from repro.core.simstripped import make_sim_stripped
from repro.integrity.sanitizers import IntegrityError
from repro.obs.observer import Instrumentation
from repro.validation.harness import ResultGrid
from repro.workloads.micro import (
    BENCH_KERNELS,
    MICROBENCHMARKS,
    build_microbenchmark,
    memory_loop,
)
from repro.workloads.suite import WorkloadSet

FULL = bool(os.environ.get("REPRO_FULL"))

#: The default matrix pairs one kernel the blockcache compiles to a
#: steady replay (M-I), one per fallback class — replay-unsafe misses
#: (M-D) and per-iteration mispredictions (C-Ca) — plus a second
#: steady-family kernel (E-I).
KERNELS = ["M-I", "E-I", "C-Ca", "M-D"]
if FULL:
    KERNELS += ["E-D3", "C-S1", "M-L2", "M-ROW", "M-LOOP"]

SIMULATORS = {
    "sim-alpha": SimAlpha,
    "sim-initial": make_sim_initial,
    "sim-stripped": make_sim_stripped,
}


@pytest.fixture(scope="module")
def workloads():
    ws = WorkloadSet()
    ws.register(memory_loop())
    return ws


def canonical(result) -> str:
    grid = ResultGrid()
    grid.add(result)
    return grid.to_json(canonical=True)


class TestEquivalence:
    """simulator x kernel x {fast, detailed}: byte-identical output."""

    @pytest.mark.parametrize("sim_name", sorted(SIMULATORS))
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fast_path_byte_identical(self, workloads, sim_name, kernel):
        trace = workloads.trace(kernel)
        factory = SIMULATORS[sim_name]
        detailed = factory().run_trace(trace, kernel, blockcache=False)
        fast = factory().run_trace(trace, kernel)
        assert canonical(fast) == canonical(detailed), (
            f"{sim_name} on {kernel}: blockcache output diverged from "
            f"the detailed loop"
        )

    def test_fast_path_identical_under_instrumentation(self, workloads):
        # Replay commits flow through the observer: the CPI stack and
        # metrics path must see the same stream as the detailed loop.
        kernel = "M-I"
        trace = workloads.trace(kernel)
        runs = {}
        for label, blockcache in (("detailed", False), ("fast", None)):
            inst = Instrumentation()
            obs = inst.observer(simulator="sim-alpha", workload=kernel)
            runs[label] = canonical(SimAlpha().run_trace(
                trace, kernel, observer=obs, blockcache=blockcache
            ))
        assert runs["fast"] == runs["detailed"]


class TestVerifySampling:
    def test_sampler_probes_and_matches_on_clean_run(self, workloads):
        trace = workloads.trace("M-I")
        inst = Instrumentation()
        obs = inst.observer(simulator="sim-alpha", workload="M-I")
        SimAlpha().run_trace(
            trace, "M-I", observer=obs,
            blockcache=BlockCacheConfig(verify_interval=2, max_batch=8),
        )
        reg = inst.registry

        def count(name):
            return reg.counter(f"blockcache.{name}").value

        assert count("steady_blocks") >= 1
        assert count("replayed_instructions") > 0
        assert count("verify_probes") > 0
        assert count("verify_matches") == count("verify_probes")

    def test_corrupted_memo_is_caught_and_raises(self, workloads):
        # The faultinject matrix proves quarantine through the full
        # production cell path; this is the direct unit-level check
        # that a corrupted memoized record trips the strict probe.
        def corrupt(memo):
            cmps = list(memo.cmps)
            record = list(cmps[0])
            for i in range(len(record) - 1, -1, -1):
                if isinstance(record[i], float):
                    record[i] += 1.0
                    break
            cmps[0] = tuple(record)
            memo.cmps = tuple(cmps)

        trace = workloads.trace("E-I")
        with pytest.raises(IntegrityError) as excinfo:
            SimAlpha().run_trace(
                trace, "E-I",
                blockcache=BlockCacheConfig(
                    verify_interval=2, debug_corrupt=corrupt
                ),
            )
        assert excinfo.value.violation.invariant == "blockcache_divergence"

    def test_disabled_blockcache_never_engages(self, workloads):
        trace = workloads.trace("M-I")
        inst = Instrumentation()
        obs = inst.observer(simulator="sim-alpha", workload="M-I")
        SimAlpha().run_trace(trace, "M-I", observer=obs, blockcache=False)
        assert inst.registry.counter("blockcache.batches").value == 0
        assert inst.registry.counter("blockcache.captures").value == 0

    def test_short_traces_never_engage(self, workloads):
        trace = workloads.trace("M-I")[:48]  # below min_trace_len
        inst = Instrumentation()
        obs = inst.observer(simulator="sim-alpha", workload="M-I")
        SimAlpha().run_trace(trace, "M-I", observer=obs)
        assert inst.registry.counter("blockcache.captures").value == 0


class TestConfigResolution:
    def test_none_and_true_select_defaults(self):
        assert resolve_blockcache(None) == BlockCacheConfig()
        assert resolve_blockcache(True) == BlockCacheConfig()

    def test_false_disables(self):
        assert resolve_blockcache(False) is None

    def test_config_passthrough_respects_enabled(self):
        config = BlockCacheConfig(verify_interval=4)
        assert resolve_blockcache(config) is config
        assert resolve_blockcache(
            BlockCacheConfig(enabled=False)
        ) is None

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            resolve_blockcache("on")


class TestBenchKernelRegistry:
    """M-LOOP is bench-only: buildable by name, out of the grids."""

    def test_mloop_not_in_experiment_registry(self):
        assert "M-LOOP" not in MICROBENCHMARKS
        assert "M-LOOP" in BENCH_KERNELS

    def test_mloop_buildable_by_name(self):
        program = build_microbenchmark("M-LOOP")
        assert program.name == "M-LOOP"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            build_microbenchmark("M-NOPE")
