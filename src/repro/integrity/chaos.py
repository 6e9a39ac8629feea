"""Chaos harness: prove the process pool survives real crashes.

:mod:`repro.integrity.faultinject` corrupts *simulators* and demands
the sanitizers catch them; this module kills the **executor** one
level up — a pool worker mid-cell, or the journaling parent process
itself — and demands the grid still comes out whole.
:data:`CHAOS_SCENARIOS` names every scenario and says what it proves;
each runs through one body, :func:`_run_scenario`, which builds the
in-process baseline, runs the grid on the pool under the scenario's
perturbation, and diffs the two canonical serialisations.

Every scenario must end **complete and byte-identical**
(``ResultGrid.to_json(canonical=True)`` against the in-process
baseline) with the recovery evidence it names in the ``exec.*``
counters — never a hang and never a silently missing or doubled cell.
:attr:`ChaosReport.all_passed` is the CI gate (the ``chaos-smoke`` job
runs the kill scenarios under a hard wall-clock timeout precisely so a
hang fails loudly).

The perturbations use production paths only: the kill is aimed from
the grid's ``progress`` callback or from outside the killed process,
never from inside a simulator, so the chaos run's configuration (and
therefore every cell's digest) is the baseline's.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.spec import RunOptions
from repro.integrity.checkpoint import GridCheckpoint
from repro.obs.registry import MetricsRegistry
from repro.result import RunStats, SimResult
from repro.validation.harness import Harness
from repro.workloads.suite import WorkloadSet

__all__ = [
    "CHAOS_SCENARIOS",
    "ChaosOutcome",
    "ChaosReport",
    "run_chaos_scenario",
    "run_chaos_suite",
]

#: Workloads every scenario runs (small but two-family).
CHAOS_WORKLOADS = ("C-R", "E-I")
#: Simulator columns per scenario grid.
CHAOS_SIMS = 4


# -- the workload under chaos ----------------------------------------------


@dataclass(frozen=True)
class _ChaosConfig:
    name: str
    cycles_per_instr: float = 2.0
    #: Per-cell wall-clock padding, widening the window in which a
    #: kill scenario can land mid-grid.
    delay_s: float = 0.0


class _ChaosSim:
    """Deterministic, nearly-free simulator for executor chaos runs
    (the faults live in the executor here, never in the simulator)."""

    def __init__(self, config: _ChaosConfig):
        self.config = config

    @property
    def name(self) -> str:
        return self.config.name

    def run_trace(self, trace, workload: str) -> SimResult:
        if self.config.delay_s:
            time.sleep(self.config.delay_s)
        instructions = len(trace)
        stats = RunStats()
        stats.extra["chaos_marker"] = float(instructions)
        return SimResult(
            simulator=self.name,
            workload=workload,
            cycles=instructions * self.config.cycles_per_instr,
            instructions=instructions,
            stats=stats,
        )


def _chaos_factory(name: str, *, cpi: float, delay_s: float = 0.0):
    config = _ChaosConfig(
        name=name, cycles_per_instr=cpi, delay_s=delay_s
    )
    return lambda: _ChaosSim(config)


def _factories(delay_s: float = 0.0):
    return [
        _chaos_factory(f"chaos-{i}", cpi=1.0 + 0.5 * i, delay_s=delay_s)
        for i in range(CHAOS_SIMS)
    ]


def _baseline(workloads: WorkloadSet, names, delay_s: float = 0.0) -> str:
    """Canonical serialisation of the undisturbed in-process run — the
    byte-identity yardstick.  Must use the *same* factories as the
    chaos run (``delay_s`` is part of the frozen config and therefore
    of the provenance hash, so the baseline cannot substitute faster
    ones)."""
    grid = Harness(workloads=workloads).run_grid(
        _factories(delay_s), list(names)
    )
    return grid.to_json(canonical=True)


# -- outcomes ---------------------------------------------------------------


@dataclass
class ChaosOutcome:
    """Verdict of one chaos scenario."""

    scenario: str
    description: str
    passed: bool
    #: Final grid matched the in-process baseline byte-for-byte under
    #: canonical serialisation.
    byte_identical: bool
    detail: str = ""
    elapsed_s: float = 0.0
    #: ``exec.*`` counters after the run — the recovery machinery's
    #: own account of what happened.
    counters: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)


@dataclass
class ChaosReport:
    """The full chaos verdict across scenarios."""

    outcomes: List[ChaosOutcome] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return bool(self.outcomes) and all(
            outcome.passed for outcome in self.outcomes
        )

    def to_json(self) -> str:
        payload = {"outcomes": [o.to_dict() for o in self.outcomes]}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def render(self) -> str:
        header = (
            f"{'scenario':<22} {'passed':<7} {'identical':<10} detail"
        )
        lines = [header, "-" * len(header)]
        for outcome in self.outcomes:
            lines.append(
                f"{outcome.scenario:<22} "
                f"{'yes' if outcome.passed else 'FAIL':<7} "
                f"{'yes' if outcome.byte_identical else 'NO':<10} "
                f"{outcome.detail}"
            )
        return "\n".join(lines)


# -- scenarios --------------------------------------------------------------


def _run_scenario(
    name: str,
    workloads: WorkloadSet,
    *,
    options: RunOptions,
    delay_s: float = 0.0,
    progress: Optional[Callable[[str, str], None]] = None,
    quiet: Sequence[str] = (),
    checks: Optional[
        Callable[[Dict[str, int]], Optional[str]]
    ] = None,
) -> ChaosOutcome:
    """The one scenario body: run the grid under ``options`` (with the
    scenario's ``progress`` hook), then demand byte-identity with the
    in-process run, zero on every ``quiet`` counter, and the
    scenario's own ``checks`` (which return what is missing, or
    ``None``)."""
    names = list(CHAOS_WORKLOADS)
    baseline = _baseline(workloads, names, delay_s)
    metrics = MetricsRegistry()
    started = time.perf_counter()
    grid = Harness(workloads, metrics=metrics).run_grid(
        _factories(delay_s), names, options, progress=progress,
    )
    elapsed = time.perf_counter() - started
    counters = {
        key: value
        for key, value in metrics.snapshot()["counters"].items()
        if key.startswith("exec.")
    }
    identical = grid.to_json(canonical=True) == baseline
    moved = [key for key in quiet if counters.get(key)]
    detail = ""
    if not identical:
        missing = len(names) * CHAOS_SIMS - sum(
            len(row) for row in grid.results.values()
        )
        detail = (
            f"grid diverged from the in-process baseline "
            f"({missing} cells missing, "
            f"{len(grid.failures)} failures)"
        )
    elif moved:
        detail = ", ".join(
            f"{key}={counters[key]} (expected 0)" for key in moved
        )
    elif checks is not None:
        detail = checks(counters) or ""
    passed = identical and not detail
    if passed:
        detail = _summarise(counters)
    return ChaosOutcome(
        scenario=name, description=CHAOS_SCENARIOS[name][0],
        passed=passed, byte_identical=identical, detail=detail,
        elapsed_s=round(elapsed, 3), counters=counters,
    )


def _summarise(counters: Dict[str, int]) -> str:
    interesting = (
        "exec.cells.completed", "exec.cells.retried",
        "exec.checkpoint.resumed",
    )
    return ", ".join(
        f"{key.split('.', 1)[1]}={counters[key]}"
        for key in interesting
        if counters.get(key)
    )


def _scenario_worker_sigkill(
    name: str, workloads: WorkloadSet,
) -> ChaosOutcome:
    """SIGKILL the first pool worker the grid launches: its cell reads
    as a ``crash`` and must be retried into the same result."""
    before = set(multiprocessing.active_children())
    killed: List[int] = []

    def progress(simulator: str, workload: str) -> None:
        if killed:
            return
        for worker in multiprocessing.active_children():
            if worker not in before:
                os.kill(worker.pid, signal.SIGKILL)
                killed.append(worker.pid)
                return

    def checks(counters):
        if not killed:
            return "no pool worker was killed"
        if not counters.get("exec.cells.retried"):
            return "the kill was not retried"
        return None

    return _run_scenario(
        name, workloads, options=RunOptions(jobs=2, retries=1),
        delay_s=0.1, progress=progress, checks=checks,
    )


#: Per-cell padding of the parent-kill grid: 8 cells two at a time
#: take about a second, long enough to kill the parent mid-grid.
_PARENT_KILL_DELAY_S = 0.25


def _victim_parent(
    journal: str, workloads: WorkloadSet, names: Sequence[str],
) -> None:
    """Body of the killed parent: a journaling ``jobs=2`` grid, led
    from its own process group so one ``killpg`` takes its pool
    workers down with it."""
    os.setpgid(0, 0)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    Harness(workloads).run_grid(
        _factories(_PARENT_KILL_DELAY_S), list(names),
        RunOptions(jobs=2, checkpoint=journal),
    )
    os._exit(0)


def _scenario_parent_kill(
    name: str, workloads: WorkloadSet,
) -> ChaosOutcome:
    """SIGKILL a journaling grid's whole process group once its
    journal holds a cell, then resume: every journaled cell is served
    from the journal, every other cell runs exactly once."""
    names = list(CHAOS_WORKLOADS)
    total = len(names) * CHAOS_SIMS
    journaled = 0
    killed = False

    def checks(counters):
        if not killed:
            return "the grid finished before its parent could be killed"
        if child.is_alive():
            return "the killed parent is still alive"
        resumed = counters.get("exec.checkpoint.resumed", 0)
        completed = counters.get("exec.cells.completed", 0)
        if resumed < journaled:
            return (
                f"only {resumed} of {journaled} journaled cells were "
                f"resumed — completed work was recomputed"
            )
        if resumed + completed != total:
            return (
                f"resumed ({resumed}) + completed ({completed}) "
                f"!= total cells ({total})"
            )
        return None

    with tempfile.TemporaryDirectory(
        prefix="repro-chaos-parent-", ignore_cleanup_errors=True,
    ) as tmp:
        journal = os.path.join(tmp, "grid.journal")
        child = multiprocessing.get_context("fork").Process(
            target=_victim_parent, args=(journal, workloads, names),
        )
        child.start()
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and child.is_alive():
                journaled = len(GridCheckpoint(journal).load())
                if journaled:
                    break
                time.sleep(0.05)
            if child.is_alive():
                os.killpg(child.pid, signal.SIGKILL)
                killed = True
        finally:
            if child.is_alive():
                child.kill()
            child.join(timeout=10.0)
        return _run_scenario(
            name, workloads,
            options=RunOptions(jobs=2, checkpoint=journal, resume=True),
            delay_s=_PARENT_KILL_DELAY_S, checks=checks,
        )


#: scenario name -> (what it induces and must show, implementation).
#: Every implementation takes ``(name, workloads)`` and ends in
#: :func:`_run_scenario`.
CHAOS_SCENARIOS: Dict[
    str, Tuple[str, Callable[[str, WorkloadSet], ChaosOutcome]]
] = {
    "clean-control": (
        "undisturbed jobs=3 pool run: byte-identical to in-process, "
        "no retry, no failure",
        partial(
            _run_scenario, options=RunOptions(jobs=3),
            quiet=(
                "exec.cells.retried", "exec.cells.failed",
                "exec.cells.quarantined",
            ),
        ),
    ),
    "worker-sigkill": (
        "SIGKILL a live pool worker under retries=1: its cell settles "
        "as a crash, is retried, and ends byte-identical",
        _scenario_worker_sigkill,
    ),
    "parent-kill": (
        "SIGKILL a journaling jobs=2 grid's process group, then "
        "resume: every journaled cell is resumed, none recomputed",
        _scenario_parent_kill,
    ),
}


def run_chaos_scenario(name: str) -> ChaosOutcome:
    """Run one scenario by registry name."""
    return run_chaos_suite([name]).outcomes[0]


def run_chaos_suite(
    scenarios: Optional[Sequence[str]] = None,
) -> ChaosReport:
    """Run the named scenarios (default: all, registry order); an
    unknown name raises :class:`ValueError` before anything runs."""
    names = list(scenarios or CHAOS_SCENARIOS)
    for name in names:
        if name not in CHAOS_SCENARIOS:
            raise ValueError(
                f"unknown chaos scenario {name!r}; known: "
                f"{', '.join(sorted(CHAOS_SCENARIOS))}"
            )
    workloads = WorkloadSet()
    return ChaosReport([
        CHAOS_SCENARIOS[name][1](name, workloads) for name in names
    ])
