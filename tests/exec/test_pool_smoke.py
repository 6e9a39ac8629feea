"""Process-pool smoke tests (the ``exec_pool`` CI job).

Small grids with ``jobs=2``: one simulator hard-kills its worker
process mid-grid, proving the pool's fault isolation (every healthy
cell completes and the dead cell is recorded, not raised); a
``progress`` that raises drains the running cells before it
propagates; and a worker stopped by a SIGTERM the engine did not send
has its cell run again.
"""

import os
import signal
import time

import pytest

from exec_fakes import FakeConfig, FakeSim, fake_factory
from repro.exec.cache import ResultCache
from repro.exec.engine import ExperimentEngine, grid_cells
from repro.exec.spec import RunOptions
from repro.obs.registry import MetricsRegistry

pytestmark = pytest.mark.exec_pool


def test_pool_survives_crashing_simulator(harness):
    names = ["C-R", "E-I", "M-D"]
    grid = harness.run_grid(
        [fake_factory("fake-ok"), fake_factory("fake-dead", flavor="crash")],
        names, RunOptions(jobs=2),
    )

    assert sorted(grid.ipcs("fake-ok")) == sorted(names)
    assert sorted(grid.ipcs("fake-dead")) == ["C-R", "M-D"]

    [failure] = grid.failures
    assert (failure.simulator, failure.workload) == ("fake-dead", "E-I")
    assert failure.kind == "crash"
    assert failure.attempts == 1


def test_raising_progress_drains_the_running_cells(harness, tmp_path):
    """A ``progress`` that raises stops new launches; the cells already
    running finish and settle into the cache before it propagates."""
    seconds = {"C-R": 0.2, "E-I": 1.5, "M-D": 0.2}

    class SlowSim(FakeSim):
        def run_trace(self, trace, workload):
            time.sleep(seconds[workload])
            return super().run_trace(trace, workload)

    class Stop(Exception):
        pass

    calls = []

    def progress(simulator, workload):
        calls.append(workload)
        if len(calls) == 3:
            raise Stop(workload)

    factories = [lambda: SlowSim(FakeConfig(name="slow"))]
    names = list(seconds)
    cache = ResultCache(str(tmp_path / "cache"))
    registry = MetricsRegistry()
    engine = ExperimentEngine(
        harness.workloads, RunOptions(jobs=2, cache=cache),
        metrics=registry,
    )
    with pytest.raises(Stop):
        engine.run_grid(factories, names, progress=progress)
    assert calls == names
    assert registry.counter("exec.cells.launched").value == 2
    cells = grid_cells(harness.workloads, factories, names)
    assert [cache.get(cell.key) is not None for cell in cells] == [
        True, True, False,
    ]


def test_outside_sigterm_reruns_the_cell_once(harness, tmp_path):
    """A worker killed by a SIGTERM the engine did not send (one sent
    to the whole process group, as a service's stop is) has not failed
    its cell: the cell runs again, once.  A second such death is a
    crash, so a cell cannot loop."""
    marker = tmp_path / "killed-once"

    class TermOnce(FakeSim):
        def run_trace(self, trace, workload):
            if workload == "E-I" and (
                self.config.flavor == "always" or not marker.exists()
            ):
                marker.touch()
                os.kill(os.getpid(), signal.SIGTERM)
            return super().run_trace(trace, workload)

    for flavor in ("once", "always"):
        registry = MetricsRegistry()
        grid = ExperimentEngine(
            harness.workloads, RunOptions(jobs=2), metrics=registry,
        ).run_grid(
            [lambda: TermOnce(FakeConfig(name="term", flavor=flavor))],
            ["C-R", "E-I"],
        )
        if flavor == "once":
            assert grid.failures == []
            assert sorted(grid.ipcs("term")) == ["C-R", "E-I"]
        else:
            [failure] = grid.failures
            assert (failure.workload, failure.kind) == ("E-I", "crash")
            assert failure.attempts == 1
        counters = registry.snapshot()["counters"]
        assert counters["exec.cells.interrupted"] == 1
        assert counters["exec.cells.launched"] == 3
