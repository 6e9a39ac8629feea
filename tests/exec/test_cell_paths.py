"""One cell path: every execution mode measures and classifies a cell
the same way.

A grid of fake simulators — one clean, one raising, one livelocked,
one violating an invariant — must serialise byte-identically (failures
included) whether it runs in process, through the result cache, on the
forked pool, or across shard runners; and the single-cell options
(here ``dram_backend``) must reach every executor.
"""

import multiprocessing
import os
import tempfile
from dataclasses import dataclass

import pytest

from repro.core.simalpha import SimAlpha
from repro.exec.coordinator import ShardCoordinator
from repro.exec.engine import ExperimentEngine
from repro.exec.spec import RunOptions
from repro.integrity.sanitizers import IntegrityError, Sanitizers
from repro.integrity.watchdog import SimulationStuck
from repro.result import RunStats, SimResult
from repro.validation.harness import Harness, ResultGrid
from repro.workloads.suite import WorkloadSet

pytestmark = [
    pytest.mark.exec_pool,
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the pool and shard modes require the fork start method",
    ),
]

NAMES = ["C-R", "E-I"]


@dataclass(frozen=True)
class FaultConfig:
    name: str
    fault: str = "none"


class FaultSim:
    """Instant fake whose ``fault`` decides how every one of its runs
    ends: cleanly, raising, stuck, or with an impossible IPC."""

    def __init__(self, config: FaultConfig):
        self.config = config

    @property
    def name(self) -> str:
        return self.config.name

    def run_trace(self, trace, workload: str) -> SimResult:
        fault = self.config.fault
        if fault == "raise":
            raise RuntimeError(f"{self.name} failed on {workload}")
        if fault == "stuck":
            raise SimulationStuck(
                "retire frontier frozen", instructions=len(trace) // 2,
                retire=123.0, state={"stage": "retire"},
            )
        cycles = len(trace) * 2.0
        if fault == "lie":
            cycles = max(1.0, len(trace) / 100.0)  # IPC past any width
        return SimResult(
            simulator=self.name, workload=workload, cycles=cycles,
            instructions=len(trace), stats=RunStats(),
        )


def factories():
    return [
        (lambda config=FaultConfig(f"fault-{fault}", fault):
         FaultSim(config))
        for fault in ("none", "raise", "stuck", "lie")
    ]


def modes(tmp_path):
    return {
        "in-process": RunOptions(),
        "cache": RunOptions(cache=str(tmp_path / "cache")),
        "jobs=2": RunOptions(jobs=2),
        "shards=2": RunOptions(shards=2),
    }


@pytest.fixture(scope="module")
def workloads():
    return WorkloadSet()


def test_failures_are_identical_in_every_mode(tmp_path, workloads):
    outputs = {
        mode: Harness(workloads, sanitizers=Sanitizers()).run_grid(
            factories(), NAMES, options,
        ).to_json(canonical=True)
        for mode, options in modes(tmp_path).items()
    }
    reference = outputs.pop("in-process")
    for mode, output in outputs.items():
        assert output == reference, f"{mode} diverged from in-process"

    grid = ResultGrid.from_json(reference)
    assert grid.simulators() == ["fault-none"]
    kinds = [(f.simulator, f.workload, f.kind) for f in grid.failures]
    assert kinds == [
        (sim, name, kind)
        for name in NAMES
        for sim, kind in (
            ("fault-raise", "exception"), ("fault-stuck", "stuck"),
            ("fault-lie", "invariant"),
        )
    ]
    stuck = grid.failures[1].snapshot
    assert stuck["detail"] == "retire frontier frozen"
    assert stuck["state"] == {"stage": "retire"}
    assert all(f.elapsed_s is None for f in grid.failures)


@pytest.mark.parametrize(
    "mode", ["in-process", "cache", "jobs=2", "shards=2"]
)
def test_strict_sanitizers_raise_in_every_mode(tmp_path, workloads, mode):
    harness = Harness(workloads, sanitizers=Sanitizers(strict=True))
    with pytest.raises(IntegrityError) as excinfo:
        harness.run_grid(factories(), NAMES, modes(tmp_path)[mode])
    assert excinfo.value.violation.invariant == "ipc_bound"


def test_strict_shard_grid_leaves_no_temp_dir(
    tmp_path, monkeypatch, workloads,
):
    """Without a checkpoint the coordinator journals into a private
    temporary directory, which must go even when the grid raises."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    harness = Harness(workloads, sanitizers=Sanitizers(strict=True))
    with pytest.raises(IntegrityError):
        harness.run_grid(factories(), NAMES, RunOptions(shards=2))
    assert os.listdir(tmp_path) == []


def test_dram_backend_reaches_every_executor(workloads):
    """``RunOptions(dram_backend="ideal")`` on M-D gives the ideal
    backend's configuration and cycles however the cell is run."""
    options = RunOptions(dram_backend="ideal")
    harness = Harness(workloads)
    ideal = harness.run_one(SimAlpha, "M-D", options=options)
    sdram = harness.run_one(SimAlpha, "M-D")
    assert ideal.cycles != sdram.cycles
    assert ideal.provenance.config_hash != sdram.provenance.config_hash

    def one(grid):
        return grid.get("sim-alpha", "M-D")

    runs = {
        "Harness(options).run_one": Harness(workloads, options).run_one(
            SimAlpha, "M-D"
        ),
        "engine jobs=1": one(ExperimentEngine(workloads, options).run_grid(
            [SimAlpha], ["M-D"]
        )),
        "engine jobs=2": one(ExperimentEngine(
            workloads, options.replace(jobs=2)
        ).run_grid([SimAlpha], ["M-D"])),
        "refresh_cell": ExperimentEngine(workloads, options).refresh_cell(
            ResultGrid(), SimAlpha, "M-D"
        ),
        "coordinator": one(ShardCoordinator(
            workloads, options.replace(shards=2)
        ).run_grid([SimAlpha], ["M-D"])),
        "Harness.run_grid": one(harness.run_grid(
            [SimAlpha], ["M-D"], options
        )),
    }
    for path, result in runs.items():
        assert (result.cycles, result.provenance.config_hash) == (
            ideal.cycles, ideal.provenance.config_hash
        ), path
