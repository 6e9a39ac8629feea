"""The parallel execution engine: determinism, fault isolation,
timeouts, and the retry budget."""

import os

import pytest

from exec_fakes import FakeConfig, FakeSim, fake_factory
from repro.exec.engine import ExperimentEngine
from repro.exec.spec import RunOptions
from repro.obs.observer import Instrumentation
from repro.obs.registry import MetricsRegistry
from repro.validation.harness import ResultGrid

QUICK = ["C-R", "E-I"]


class TestDeterminism:
    def test_parallel_matches_serial_with_fakes(self, harness):
        factories = [fake_factory("fake-a"), fake_factory("fake-b", cpi=3.0)]
        names = ["C-R", "E-I", "M-D"]
        serial = harness.run_grid(factories, names)
        parallel = harness.run_grid(factories, names, RunOptions(jobs=4))
        assert parallel.to_json(canonical=True) == \
            serial.to_json(canonical=True)
        assert parallel.simulators() == serial.simulators()
        assert parallel.workloads() == serial.workloads()

    def test_parallel_matches_serial_with_real_sims(self, harness):
        """The acceptance bar: a ``jobs=4`` run of real simulators
        serialises byte-identically to the serial run
        (``canonical=True`` blanks only the wall-clock provenance
        fields)."""
        from repro.core.siminitial import make_sim_initial
        from repro.simulators.refmachine import make_native_machine

        factories = [make_native_machine, make_sim_initial]
        registry = MetricsRegistry()
        serial = harness.run_grid(factories, QUICK)
        parallel = ExperimentEngine(
            harness.workloads, RunOptions(jobs=4), metrics=registry,
        ).run_grid(factories, QUICK)
        assert parallel.to_json(canonical=True) == \
            serial.to_json(canonical=True)
        assert registry.counter("exec.cells.launched").value == 4

    def test_instrumented_grid_runs_in_process(self, harness):
        """Observers are built where a cell runs, so an instrumented
        grid keeps its misses in this process at any ``jobs``: every
        observer and profiler reaches the caller, ``exec.jobs`` reads
        1, and the CPI stacks equal the serial run's."""
        from repro.core.simalpha import SimAlpha

        names = ["E-I", "C-R"]
        serial = harness.run_grid(
            [SimAlpha], names, instrumentation=Instrumentation()
        )
        registry = MetricsRegistry()
        instrumentation = Instrumentation(profile=True)
        grid = ExperimentEngine(
            harness.workloads, RunOptions(jobs=2), metrics=registry,
        ).run_grid([SimAlpha], names, instrumentation=instrumentation)
        assert [(sim, wl) for sim, wl, _ in instrumentation.runs] == [
            ("sim-alpha", "E-I"), ("sim-alpha", "C-R"),
        ]
        assert len(instrumentation.profilers()) == 2
        assert registry.gauge("exec.jobs").value == 1
        assert "exec.cells.launched" not in registry.snapshot()["counters"]
        assert grid.to_json(canonical=True) == \
            serial.to_json(canonical=True)
        for name in names:
            stack = grid.get("sim-alpha", name).cpi_stack
            assert stack and stack == serial.get("sim-alpha", name).cpi_stack

    def test_pooled_cells_record_the_in_process_series(self, harness):
        """A freshly measured cell records the same metric series in
        the caller's registry whether it ran in process or in a forked
        worker: ``harness.*`` as well as ``telemetry.*``."""
        factories = [fake_factory("fake-a"), fake_factory("fake-b", cpi=3.0)]
        series = {}
        for jobs in (1, 2):
            registry = MetricsRegistry()
            ExperimentEngine(
                harness.workloads, RunOptions(jobs=jobs), metrics=registry,
            ).run_grid(factories, QUICK)
            series[jobs] = {
                kind: sorted(
                    name for name in names if not name.startswith("exec.")
                )
                for kind, names in registry.snapshot().items()
            }
            assert registry.counter("harness.runs").value == 4
        assert series[1] == series[2]
        assert "harness.cell.fake-b.E-I" in series[2]["timers"]


class TestFaultIsolation:
    def test_raising_cell_becomes_exception_failure(self, harness):
        grid = harness.run_grid(
            [fake_factory("fake-ok"), fake_factory("fake-bad", "raise")],
            QUICK, RunOptions(jobs=2),
        )
        assert sorted(grid.ipcs("fake-ok")) == sorted(QUICK)
        assert list(grid.ipcs("fake-bad")) == ["C-R"]
        [failure] = grid.failures
        assert (failure.simulator, failure.workload) == ("fake-bad", "E-I")
        assert failure.kind == "exception"
        assert "deliberately failed" in failure.message
        assert failure.attempts == 1

    def test_crashing_worker_becomes_crash_failure(self, harness):
        grid = harness.run_grid(
            [fake_factory("fake-ok"), fake_factory("fake-dead", "crash")],
            QUICK, RunOptions(jobs=2),
        )
        assert sorted(grid.ipcs("fake-ok")) == sorted(QUICK)
        [failure] = grid.failures
        assert failure.kind == "crash"
        assert "17" in failure.message

    def test_hanging_cell_is_terminated_on_timeout(self, harness):
        grid = harness.run_grid(
            [fake_factory("fake-ok"), fake_factory("fake-hung", "hang")],
            QUICK, RunOptions(jobs=2, timeout=1.0),
        )
        assert sorted(grid.ipcs("fake-ok")) == sorted(QUICK)
        [failure] = grid.failures
        assert failure.kind == "timeout"
        assert failure.elapsed_s >= 0.9
        assert failure.elapsed_s < FakeSim.HANG_SECONDS

    def test_expired_worker_dumps_stuck_snapshot(self, harness):
        """SIGUSR1 escalation: a wall-clock-expired worker ships a
        SimulationStuck diagnosis home before the parent kills it."""
        registry = MetricsRegistry()
        engine = ExperimentEngine(
            harness.workloads, RunOptions(jobs=2, timeout=1.0),
            metrics=registry,
        )
        grid = engine.run_grid(
            [fake_factory("fake-ok"), fake_factory("fake-hung", "hang")],
            QUICK,
        )
        assert sorted(grid.ipcs("fake-ok")) == sorted(QUICK)
        [failure] = grid.failures
        assert failure.kind == "timeout"
        assert "SIGUSR1" in failure.message
        assert failure.snapshot is not None
        assert "escalated" in failure.snapshot["detail"]
        # The dump arrived over the pipe, not after HANG_SECONDS.
        assert failure.elapsed_s < FakeSim.HANG_SECONDS
        counters = registry.snapshot()["counters"]
        assert counters["exec.cells.escalated"] == 1

    def test_deaf_worker_is_still_terminated(self, harness):
        """A worker that blocks SIGUSR1 gets the grace period, no
        diagnosis, and the kill — escalation must never let a hung
        cell outlive its timeout by more than the grace.  The kill
        holds when the parent has a SIGTERM handler that swallows the
        signal, as ``repro-serve``'s drain handler does."""
        import signal as signal_module
        import time as time_module

        class DeafSim(FakeSim):
            def run_trace(self, trace, workload):
                if workload == self.FAIL_WORKLOAD:
                    signal_module.pthread_sigmask(
                        signal_module.SIG_BLOCK,
                        {signal_module.SIGUSR1},
                    )
                return super().run_trace(trace, workload)

        engine = ExperimentEngine(
            harness.workloads,
            RunOptions(jobs=2, timeout=0.5),
        )
        own = signal_module.getsignal(signal_module.SIGTERM)
        for handler in (own, lambda signum, frame: None):
            signal_module.signal(signal_module.SIGTERM, handler)
            try:
                started = time_module.perf_counter()
                grid = engine.run_grid(
                    [lambda: DeafSim(FakeConfig(name="deaf", flavor="hang"))],
                    ["E-I"],
                )
                elapsed = time_module.perf_counter() - started
            finally:
                signal_module.signal(signal_module.SIGTERM, own)
            [failure] = grid.failures
            assert failure.kind == "timeout"
            assert failure.snapshot is None
            assert "SIGUSR1" not in failure.message
            assert elapsed < FakeSim.HANG_SECONDS / 2

    def test_inprocess_engine_isolates_exceptions(self, harness):
        engine = ExperimentEngine(harness.workloads)
        grid = engine.run_grid(
            [fake_factory("fake-ok"), fake_factory("fake-bad", "raise")],
            QUICK,
        )
        assert sorted(grid.ipcs("fake-ok")) == sorted(QUICK)
        [failure] = grid.failures
        assert failure.kind == "exception"
        assert "deliberately failed" in failure.message

    def test_failures_survive_json_round_trip(self, harness):
        grid = harness.run_grid(
            [fake_factory("fake-bad", "raise")], ["E-I"],
            RunOptions(jobs=2),
        )
        restored = ResultGrid.from_json(grid.to_json())
        assert restored.failures == grid.failures


class TestRetries:
    def test_exhausted_retries_count_attempts(self, harness):
        registry = MetricsRegistry()
        engine = ExperimentEngine(
            harness.workloads, RunOptions(jobs=2, retries=2),
            metrics=registry,
        )
        grid = engine.run_grid([fake_factory("fake-bad", "raise")], ["E-I"])
        [failure] = grid.failures
        assert failure.attempts == 3
        counters = registry.snapshot()["counters"]
        assert counters["exec.cells.retried"] == 2
        assert counters["exec.cells.failed"] == 1

    def test_flaky_cell_succeeds_within_budget(self, tmp_path, harness):
        """A cell that kills its worker on the first attempt and runs
        clean on the second must produce a result, not a failure."""
        marker = tmp_path / "first-attempt"

        class FlakyOnce(FakeSim):
            def run_trace(self, trace, workload):
                if not marker.exists():
                    marker.write_text("started")
                    os._exit(3)
                return super().run_trace(trace, workload)

        registry = MetricsRegistry()
        engine = ExperimentEngine(
            harness.workloads, RunOptions(jobs=2, retries=1),
            metrics=registry,
        )
        grid = engine.run_grid(
            [lambda: FlakyOnce(FakeConfig(name="flaky"))], ["C-R"]
        )
        assert grid.failures == []
        assert grid.get("flaky", "C-R").stats.extra["fake_marker"] > 0
        counters = registry.snapshot()["counters"]
        assert counters["exec.cells.retried"] == 1
        assert counters["exec.cells.launched"] == 2

    def test_inprocess_retry_budget(self, harness):
        calls = []

        class FlakyInProcess(FakeSim):
            def run_trace(self, trace, workload):
                if not calls:
                    calls.append(workload)
                    raise RuntimeError("transient")
                return super().run_trace(trace, workload)

        engine = ExperimentEngine(harness.workloads, RunOptions(retries=1))
        grid = engine.run_grid(
            [lambda: FlakyInProcess(FakeConfig(name="flaky"))], ["C-R"]
        )
        assert grid.failures == []
        assert len(calls) == 1
        assert grid.get("flaky", "C-R").instructions > 0
