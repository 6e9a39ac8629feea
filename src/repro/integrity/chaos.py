"""Chaos harness: prove the shard coordinator survives real crashes.

:mod:`repro.integrity.faultinject` corrupts *simulators* and demands
the sanitizers catch them; this module corrupts the **execution
fabric** one level up — the shard coordinator, its runners, their
messages, and their journals — and demands the distributed invariants
hold:

==========================  ===========================================
scenario                    what it proves
==========================  ===========================================
``clean_control``           an undisturbed sharded run is byte-identical
                            to the serial run (the yardstick every other
                            scenario is measured against)
``runner_sigkill``          SIGKILL a runner mid-grid with the respawn
                            budget at zero: survivors steal its cells,
                            its journaled work is recovered not redone
``message_drop``            every Nth coordinator-side message silently
                            vanishes (grants, acks, heartbeats): ready
                            resend + lease regrant + journal replay
                            converge anyway
``message_duplicate``       every Nth message arrives twice: at-most-once
                            commit dedups by digest (``shard.cells.
                            deduped`` must move)
``message_delay``           every Nth message stalls: nothing expires
                            spuriously, nothing is lost
``journal_corruption``      a runner's shard journal is garbage when the
                            runner dies: the journal is quarantined and
                            counted, its cells recompute
``coordinator_kill``        SIGKILL the *coordinator* mid-grid, then
                            resume: every journaled cell is recovered
                            (zero recompute of completed work), the
                            merged grid is byte-identical
==========================  ===========================================

Every scenario must end **complete and byte-identical**
(``ResultGrid.to_json(canonical=True)`` against the serial baseline)
or with a diagnosable :class:`CellFailure` — never a hang and never a
silently missing or doubled cell.  :attr:`ChaosReport.all_passed` is
the CI gate (the ``chaos-smoke`` job runs the kill scenarios under a
hard wall-clock timeout precisely so a hang fails loudly).

The injection seam is :class:`ChaosTransport`, a wrapper over the
coordinator-side :class:`~repro.exec.shard.Transport` installed via
``ShardCoordinator(transport_wrapper=...)`` — production code paths
only, no test doubles inside the coordinator.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.exec.coordinator import ShardCoordinator, shard_status
from repro.exec.shard import Transport, shard_journal_path
from repro.exec.spec import RunOptions
from repro.obs.registry import MetricsRegistry
from repro.result import RunStats, SimResult
from repro.validation.harness import Harness
from repro.workloads.suite import WorkloadSet

__all__ = [
    "CHAOS_SCENARIOS",
    "ChaosOutcome",
    "ChaosReport",
    "ChaosTransport",
    "run_chaos_scenario",
    "run_chaos_suite",
]

#: Workloads every scenario runs (small but two-family, so lease
#: stealing has real work to move around).
CHAOS_WORKLOADS = ("C-R", "E-I")
#: Simulator columns per scenario grid.
CHAOS_SIMS = 4


# -- the perturbed transport -----------------------------------------------


class ChaosTransport(Transport):
    """Deterministically hostile :class:`Transport` wrapper.

    Counts messages in each direction and, on every ``*_every``-th one,
    drops it (a send vanishes; a recv looks like a timeout), duplicates
    it (recv only: the copy is queued and surfaced through
    :meth:`pending`, exactly the buffered-message case the coordinator
    must poll for), or delays it by ``delay_s``.  Counter-based rather
    than random, so every chaos run is reproducible.
    """

    def __init__(
        self,
        inner: Transport,
        *,
        drop_every: int = 0,
        duplicate_every: int = 0,
        delay_every: int = 0,
        delay_s: float = 0.05,
    ):
        self.inner = inner
        self.drop_every = int(drop_every)
        self.duplicate_every = int(duplicate_every)
        self.delay_every = int(delay_every)
        self.delay_s = float(delay_s)
        self.sent = 0
        self.received = 0
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self._queued: deque = deque()

    @property
    def connection(self):
        return self.inner.connection

    def _hit(self, every: int, count: int) -> bool:
        return every > 0 and count % every == 0

    def send(self, message) -> None:
        self.sent += 1
        if self._hit(self.drop_every, self.sent):
            self.dropped += 1
            return
        if self._hit(self.delay_every, self.sent):
            self.delayed += 1
            time.sleep(self.delay_s)
        self.inner.send(message)

    def recv(self, timeout: Optional[float] = None):
        if self._queued:
            return self._queued.popleft()
        message = self.inner.recv(timeout)
        if message is None:
            return None
        self.received += 1
        if self._hit(self.drop_every, self.received):
            self.dropped += 1
            return None
        if self._hit(self.delay_every, self.received):
            self.delayed += 1
            time.sleep(self.delay_s)
        if self._hit(self.duplicate_every, self.received):
            self.duplicated += 1
            self._queued.append(message)
        return message

    def poll(self, timeout: float = 0.0) -> bool:
        return bool(self._queued) or self.inner.poll(timeout)

    def pending(self) -> bool:
        return bool(self._queued)

    def close(self) -> None:
        self.inner.close()


# -- the workload under chaos ----------------------------------------------


@dataclass(frozen=True)
class _ChaosConfig:
    name: str
    cycles_per_instr: float = 2.0
    #: Per-cell wall-clock padding, widening the window in which a
    #: kill scenario can land mid-grid.
    delay_s: float = 0.0


class _ChaosSim:
    """Deterministic, nearly-free simulator for fabric chaos runs
    (the faults live in the fabric here, never in the simulator)."""

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
    """Canonical serialisation of the undisturbed serial run — the
    byte-identity yardstick.  Must use the *same* factories as the
    chaos run (``delay_s`` is part of the frozen config and therefore
    of the provenance hash, so the baseline cannot substitute faster
    ones)."""
    grid = Harness(workloads=workloads).run_grid(
        _factories(delay_s), list(names)
    )
    return grid.to_json(canonical=True)


def _counters(metrics: MetricsRegistry) -> Dict[str, int]:
    return {
        name: counter.value
        for name, counter in sorted(metrics._counters.items())
        if name.startswith(("shard.", "exec."))
    }


# -- outcomes ---------------------------------------------------------------


@dataclass
class ChaosOutcome:
    """Verdict of one chaos scenario."""

    scenario: str
    description: str
    passed: bool
    #: Final grid matched the serial baseline byte-for-byte under
    #: canonical serialisation.
    byte_identical: bool
    detail: str = ""
    elapsed_s: float = 0.0
    #: ``shard.*`` / ``exec.*`` counters after the run — the recovery
    #: machinery's own account of what happened.
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
    description: str,
    workloads: WorkloadSet,
    *,
    delay_s: float = 0.0,
    transport_wrapper=None,
    on_event=None,
    max_respawns: Optional[int] = None,
    lease_timeout_s: float = 15.0,
    checks: Optional[
        Callable[[Dict[str, int]], Optional[str]]
    ] = None,
) -> ChaosOutcome:
    """Common body: shard the grid under the given perturbation, then
    demand byte-identity plus scenario-specific counter evidence."""
    names = list(CHAOS_WORKLOADS)
    baseline = _baseline(workloads, names, delay_s)
    metrics = MetricsRegistry()
    started = time.perf_counter()
    coordinator = ShardCoordinator(
        workloads,
        RunOptions(shards=3),
        lease_timeout_s=lease_timeout_s,
        max_respawns=max_respawns,
        metrics=metrics,
        transport_wrapper=transport_wrapper,
        on_event=on_event,
    )
    grid = coordinator.run_grid(_factories(delay_s), names)
    elapsed = time.perf_counter() - started
    counters = _counters(metrics)
    identical = grid.to_json(canonical=True) == baseline
    detail = ""
    if not identical:
        missing = len(names) * CHAOS_SIMS - sum(
            len(row) for row in grid.results.values()
        )
        detail = (
            f"grid diverged from serial baseline "
            f"({missing} cells missing, "
            f"{len(grid.failures)} failures)"
        )
    elif checks is not None:
        detail = checks(counters) or ""
    passed = identical and not detail
    if passed:
        detail = _summarise(counters)
    return ChaosOutcome(
        scenario=name, description=description, passed=passed,
        byte_identical=identical, detail=detail,
        elapsed_s=round(elapsed, 3), counters=counters,
    )


def _summarise(counters: Dict[str, int]) -> str:
    interesting = (
        "shard.cells.computed", "shard.cells.recovered",
        "shard.cells.deduped", "shard.leases.regranted",
        "shard.runners.lost", "shard.journals.corrupt",
    )
    parts = [
        f"{key.split('.', 1)[1]}={counters[key]}"
        for key in interesting
        if counters.get(key)
    ]
    return ", ".join(parts) or "clean"


def _scenario_clean_control(workloads: WorkloadSet) -> ChaosOutcome:
    def checks(counters):
        if counters.get("shard.cells.deduped"):
            return "control run should commit nothing twice"
        if counters.get("shard.runners.lost"):
            return "control run should lose no runners"
        return None

    return _run_scenario(
        "clean_control",
        "undisturbed sharded run matches the serial run",
        workloads, checks=checks,
    )


def _scenario_runner_sigkill(workloads: WorkloadSet) -> ChaosOutcome:
    pids: Dict[int, int] = {}
    killed: List[int] = []

    def on_event(event: str, payload: Dict) -> None:
        if event == "runner_started":
            pids[payload["runner_id"]] = payload["pid"]
        elif (event == "cell_committed" and not killed
                and payload.get("runner_id") is not None):
            # Kill a runner that is *not* the one that just committed:
            # it is mid-lease (or about to be), so its loss exercises
            # the steal path, not just a clean exit.
            victims = [
                rid for rid in pids
                if rid != payload["runner_id"]
            ]
            if victims:
                os.kill(pids[victims[0]], signal.SIGKILL)
                killed.append(victims[0])

    def checks(counters):
        if not killed:
            return "no runner was killed (grid too fast?)"
        if not counters.get("shard.runners.lost"):
            return "kill was not observed as a lost runner"
        return None

    return _run_scenario(
        "runner_sigkill",
        "SIGKILL one runner mid-grid; survivors steal its cells",
        workloads, delay_s=0.1, max_respawns=0,
        lease_timeout_s=6.0, on_event=on_event, checks=checks,
    )


def _scenario_message_drop(workloads: WorkloadSet) -> ChaosOutcome:
    chaotic: List[ChaosTransport] = []

    def wrapper(transport, runner_id):
        # Every runner's transport drops: whichever runner commits a
        # cell has received at least its ready, a heartbeat and the
        # cell_ok, so a third message is always dropped, however the
        # leases happen to spread.
        transport = ChaosTransport(transport, drop_every=3)
        chaotic.append(transport)
        return transport

    def checks(counters):
        if not any(t.dropped for t in chaotic):
            return "no message was actually dropped"
        return None

    return _run_scenario(
        "message_drop",
        "every 3rd coordinator-side message vanishes",
        workloads, transport_wrapper=wrapper,
        lease_timeout_s=6.0, checks=checks,
    )


def _scenario_message_duplicate(workloads: WorkloadSet) -> ChaosOutcome:
    chaotic: List[ChaosTransport] = []

    def wrapper(transport, runner_id):
        transport = ChaosTransport(transport, duplicate_every=2)
        chaotic.append(transport)
        return transport

    def checks(counters):
        if not any(t.duplicated for t in chaotic):
            return "no message was actually duplicated"
        return None

    return _run_scenario(
        "message_duplicate",
        "every 2nd received message arrives twice; commits dedup",
        workloads, transport_wrapper=wrapper, checks=checks,
    )


def _scenario_message_delay(workloads: WorkloadSet) -> ChaosOutcome:
    def wrapper(transport, runner_id):
        return ChaosTransport(transport, delay_every=2, delay_s=0.05)

    return _run_scenario(
        "message_delay",
        "every 2nd message stalls 50ms; nothing expires spuriously",
        workloads, transport_wrapper=wrapper,
    )


def _scenario_journal_corruption(workloads: WorkloadSet) -> ChaosOutcome:
    pids: Dict[int, int] = {}
    journals: Dict[int, str] = {}
    corrupted: List[int] = []

    def on_event(event: str, payload: Dict) -> None:
        if event == "runner_started":
            pids[payload["runner_id"]] = payload["pid"]
        elif (event == "cell_committed" and not corrupted
                and payload.get("runner_id") is not None):
            rid = payload["runner_id"]
            path = journals.get(rid)
            if path and os.path.exists(path):
                # Smash the journal the committing runner just fsynced,
                # then kill the runner: recovery must quarantine the
                # garbage and recompute, never crash or trust it.
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write("{corrupt! this is not a journal")
                os.kill(pids[rid], signal.SIGKILL)
                corrupted.append(rid)

    def wrapper(transport, runner_id):
        return transport  # no message chaos; just note journal paths

    def checks(counters):
        if not corrupted:
            return "no journal was corrupted (grid too fast?)"
        if not counters.get("shard.journals.corrupt"):
            return "corrupt journal was not detected"
        return None

    names = list(CHAOS_WORKLOADS)
    baseline = _baseline(workloads, names, 0.1)
    metrics = MetricsRegistry()
    tmp = tempfile.mkdtemp(prefix="repro-chaos-journal-")
    base = os.path.join(tmp, "grid.journal")
    for rid in range(3):
        journals[rid] = shard_journal_path(base, rid)
    try:
        started = time.perf_counter()
        coordinator = ShardCoordinator(
            workloads, RunOptions(shards=3, checkpoint=base),
            lease_timeout_s=6.0, metrics=metrics, on_event=on_event,
            transport_wrapper=wrapper,
        )
        grid = coordinator.run_grid(_factories(0.1), names)
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    counters = _counters(metrics)
    identical = grid.to_json(canonical=True) == baseline
    detail = "" if identical else "grid diverged from serial baseline"
    if identical:
        detail = checks(counters) or ""
    passed = identical and not detail
    if passed:
        detail = _summarise(counters)
    return ChaosOutcome(
        scenario="journal_corruption",
        description=(
            "a dead runner's shard journal is garbage; it is "
            "quarantined and its cells recompute"
        ),
        passed=passed, byte_identical=identical, detail=detail,
        elapsed_s=round(elapsed, 3), counters=counters,
    )


def _coordinator_child(base: str, names: Sequence[str]) -> None:
    """Body of the victim coordinator process (killed by the parent)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    coordinator = ShardCoordinator(
        WorkloadSet(), RunOptions(shards=2, checkpoint=base),
        lease_timeout_s=15.0,
    )
    coordinator.run_grid(_factories(0.25), list(names))
    os._exit(0)


def _scenario_coordinator_kill(workloads: WorkloadSet) -> ChaosOutcome:
    """SIGKILL the whole coordinator mid-grid; a fresh coordinator
    with ``resume=True`` must finish from the journals without
    recomputing any journaled cell."""
    import multiprocessing

    names = list(CHAOS_WORKLOADS)
    baseline = _baseline(workloads, names, 0.25)
    tmp = tempfile.mkdtemp(prefix="repro-chaos-coord-")
    base = os.path.join(tmp, "grid.journal")
    ctx = multiprocessing.get_context("fork")
    started = time.perf_counter()
    child = ctx.Process(
        target=_coordinator_child, args=(base, names), daemon=False,
    )
    child.start()
    try:
        # Wait until at least one cell is durably journaled, then pull
        # the plug on the whole coordinator process tree.
        journaled = 0
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and child.is_alive():
            status = shard_status(base)
            journaled = sum(
                record["entries"] for record in status["journals"]
            )
            if journaled >= 1:
                break
            time.sleep(0.05)
        if child.is_alive():
            os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=10.0)

        total = len(names) * CHAOS_SIMS
        if journaled < 1:
            return ChaosOutcome(
                scenario="coordinator_kill",
                description="kill and resume the coordinator itself",
                passed=False, byte_identical=False,
                detail="coordinator finished before it could be killed",
                counters={},
            )

        metrics = MetricsRegistry()
        coordinator = ShardCoordinator(
            workloads,
            RunOptions(shards=2, checkpoint=base, resume=True),
            lease_timeout_s=15.0, metrics=metrics,
        )
        # Same factories (and thus digests) as the killed coordinator.
        grid = coordinator.run_grid(_factories(0.25), names)
        elapsed = time.perf_counter() - started
        counters = _counters(metrics)
        identical = grid.to_json(canonical=True) == baseline
        recovered = counters.get("shard.cells.recovered", 0)
        computed = counters.get("shard.cells.computed", 0)
        detail = ""
        if not identical:
            detail = "resumed grid diverged from serial baseline"
        elif recovered < journaled:
            detail = (
                f"only {recovered} of {journaled} journaled cells "
                f"were recovered — completed work was recomputed"
            )
        elif recovered + computed != total:
            detail = (
                f"recovered ({recovered}) + computed ({computed}) "
                f"!= total cells ({total})"
            )
        passed = identical and not detail
        if passed:
            detail = (
                f"killed with {journaled} journaled, recovered="
                f"{recovered}, computed={computed}"
            )
        return ChaosOutcome(
            scenario="coordinator_kill",
            description="kill and resume the coordinator itself",
            passed=passed, byte_identical=identical, detail=detail,
            elapsed_s=round(elapsed, 3), counters=counters,
        )
    finally:
        if child.is_alive():  # pragma: no cover - cleanup race
            child.kill()
            child.join(timeout=5.0)
        shutil.rmtree(tmp, ignore_errors=True)


#: scenario name -> (description, implementation).
CHAOS_SCENARIOS: Dict[str, tuple] = {
    "clean-control": (
        "undisturbed sharded run, byte-identical to serial",
        _scenario_clean_control,
    ),
    "runner-sigkill": (
        "SIGKILL a runner mid-grid; survivors steal its cells",
        _scenario_runner_sigkill,
    ),
    "message-drop": (
        "drop every 3rd coordinator-side message",
        _scenario_message_drop,
    ),
    "message-duplicate": (
        "duplicate every 2nd received message",
        _scenario_message_duplicate,
    ),
    "message-delay": (
        "delay every 2nd message by 50ms",
        _scenario_message_delay,
    ),
    "journal-corruption": (
        "corrupt a dead runner's shard journal",
        _scenario_journal_corruption,
    ),
    "coordinator-kill": (
        "SIGKILL the coordinator, then resume from journals",
        _scenario_coordinator_kill,
    ),
}


def run_chaos_scenario(
    name: str, workloads: Optional[WorkloadSet] = None,
) -> ChaosOutcome:
    """Run one scenario by registry name."""
    try:
        _, implementation = CHAOS_SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown chaos scenario {name!r}; known: "
            f"{', '.join(sorted(CHAOS_SCENARIOS))}"
        ) from None
    return implementation(workloads or WorkloadSet())


def run_chaos_suite(
    scenarios: Optional[Sequence[str]] = None,
    workloads: Optional[WorkloadSet] = None,
) -> ChaosReport:
    """Run the named scenarios (default: all, registry order)."""
    workloads = workloads or WorkloadSet()
    report = ChaosReport()
    for name in scenarios or list(CHAOS_SCENARIOS):
        report.outcomes.append(run_chaos_scenario(name, workloads))
    return report
