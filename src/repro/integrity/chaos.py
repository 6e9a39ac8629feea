"""Chaos harness: prove the shard coordinator survives real crashes.

:mod:`repro.integrity.faultinject` corrupts *simulators* and demands
the sanitizers catch them; this module corrupts the **execution
fabric** one level up — the shard coordinator, its runners, their
messages, and their journals — and demands the distributed invariants
hold.  :data:`CHAOS_SCENARIOS` names every scenario and says what it
proves; each runs through one body, :func:`_run_scenario`, which
builds the serial baseline, shards the grid under the scenario's
perturbation, and diffs the two canonical serialisations.

Every scenario must end **complete and byte-identical**
(``ResultGrid.to_json(canonical=True)`` against the serial baseline)
or with a diagnosable :class:`CellFailure` — never a hang and never a
silently missing or doubled cell.  :attr:`ChaosReport.all_passed` is
the CI gate (the ``chaos-smoke`` job runs the kill scenarios under a
hard wall-clock timeout precisely so a hang fails loudly).

The injection seam is :class:`ChaosTransport`, a wrapper over the
coordinator-side :class:`~repro.exec.shard.Transport` installed
through the coordinator's ``transport_wrapper`` keyword — production
code paths only, no test doubles inside the coordinator.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    workloads: WorkloadSet,
    *,
    shards: int = 3,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    delay_s: float = 0.0,
    lease_timeout_s: float = 15.0,
    max_respawns: Optional[int] = None,
    transport_wrapper=None,
    on_event=None,
    quiet: Sequence[str] = (),
    checks: Optional[
        Callable[[Dict[str, int]], Optional[str]]
    ] = None,
) -> ChaosOutcome:
    """The one scenario body: shard the grid under the given
    perturbation, then demand byte-identity with the serial run, zero
    on every ``quiet`` counter, and the scenario's own ``checks``
    (which return what is missing, or ``None``)."""
    names = list(CHAOS_WORKLOADS)
    baseline = _baseline(workloads, names, delay_s)
    metrics = MetricsRegistry()
    started = time.perf_counter()
    coordinator = ShardCoordinator(
        workloads,
        RunOptions(shards=shards, checkpoint=checkpoint, resume=resume),
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
    moved = [key for key in quiet if counters.get(key)]
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


def _scenario_runner_sigkill(
    name: str, workloads: WorkloadSet,
) -> ChaosOutcome:
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
        name, workloads, delay_s=0.1, max_respawns=0,
        lease_timeout_s=6.0, on_event=on_event, checks=checks,
    )


def _message_chaos(
    name: str,
    workloads: WorkloadSet,
    *,
    moved: str,
    quiet: Sequence[str] = (),
    lease_timeout_s: float = 15.0,
    **settings,
) -> ChaosOutcome:
    """Every runner's transport becomes a :class:`ChaosTransport` with
    ``settings``; its ``moved`` counter (``dropped``, ``duplicated`` or
    ``delayed``) must end above zero on at least one of them.

    Wrapping every runner makes the perturbation certain: whichever
    runner commits a cell has received at least its ready, a heartbeat
    and the cell_ok, so an every-2nd or every-3rd perturbation hits
    however the leases happen to spread."""
    chaotic: List[ChaosTransport] = []

    def wrapper(transport, runner_id):
        chaotic.append(ChaosTransport(transport, **settings))
        return chaotic[-1]

    def checks(counters):
        if not any(getattr(t, moved) for t in chaotic):
            return f"no message was actually {moved}"
        return None

    return _run_scenario(
        name, workloads, lease_timeout_s=lease_timeout_s,
        transport_wrapper=wrapper, quiet=quiet, checks=checks,
    )


def _scenario_journal_corruption(
    name: str, workloads: WorkloadSet,
) -> ChaosOutcome:
    pids: Dict[int, int] = {}
    corrupted: List[int] = []

    def checks(counters):
        if not corrupted:
            return "no journal was corrupted (grid too fast?)"
        if not counters.get("shard.journals.corrupt"):
            return "corrupt journal was not detected"
        return None

    with tempfile.TemporaryDirectory(
        prefix="repro-chaos-journal-", ignore_cleanup_errors=True,
    ) as tmp:
        base = os.path.join(tmp, "grid.journal")

        def on_event(event: str, payload: Dict) -> None:
            if event == "runner_started":
                pids[payload["runner_id"]] = payload["pid"]
            elif (event == "cell_committed" and not corrupted
                    and payload.get("runner_id") is not None):
                rid = payload["runner_id"]
                path = shard_journal_path(base, rid)
                if os.path.exists(path):
                    # Smash the journal the committing runner just
                    # fsynced, then kill the runner: recovery must
                    # quarantine the garbage and recompute, never crash
                    # or trust it.
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write("{corrupt! this is not a journal")
                    os.kill(pids[rid], signal.SIGKILL)
                    corrupted.append(rid)

        return _run_scenario(
            name, workloads, checkpoint=base, delay_s=0.1,
            lease_timeout_s=6.0, on_event=on_event, checks=checks,
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


def _scenario_coordinator_kill(
    name: str, workloads: WorkloadSet,
) -> ChaosOutcome:
    """SIGKILL the whole coordinator mid-grid; a fresh coordinator
    with ``resume=True`` must finish from the journals without
    recomputing any journaled cell."""
    names = list(CHAOS_WORKLOADS)
    total = len(names) * CHAOS_SIMS
    journaled = 0

    def checks(counters):
        if journaled < 1:
            return "coordinator finished before it could be killed"
        recovered = counters.get("shard.cells.recovered", 0)
        computed = counters.get("shard.cells.computed", 0)
        if recovered < journaled:
            return (
                f"only {recovered} of {journaled} journaled cells "
                f"were recovered — completed work was recomputed"
            )
        if recovered + computed != total:
            return (
                f"recovered ({recovered}) + computed ({computed}) "
                f"!= total cells ({total})"
            )
        return None

    with tempfile.TemporaryDirectory(
        prefix="repro-chaos-coord-", ignore_cleanup_errors=True,
    ) as tmp:
        base = os.path.join(tmp, "grid.journal")
        child = multiprocessing.get_context("fork").Process(
            target=_coordinator_child, args=(base, names), daemon=False,
        )
        child.start()
        try:
            # Wait until at least one cell is durably journaled, then
            # pull the plug on the whole coordinator process tree.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and child.is_alive():
                status = shard_status(base)
                journaled = sum(
                    record["entries"] for record in status["journals"]
                )
                if journaled >= 1:
                    break
                time.sleep(0.05)
        finally:
            if child.is_alive():
                child.kill()
            child.join(timeout=10.0)
        # Same factories (and thus digests) as the killed coordinator.
        return _run_scenario(
            name, workloads, shards=2, checkpoint=base, resume=True,
            delay_s=0.25, checks=checks,
        )


#: scenario name -> (what it induces and must show, implementation).
#: Every implementation takes ``(name, workloads)`` and ends in
#: :func:`_run_scenario`.
CHAOS_SCENARIOS: Dict[
    str, Tuple[str, Callable[[str, WorkloadSet], ChaosOutcome]]
] = {
    "clean-control": (
        "undisturbed sharded run: byte-identical to serial, nothing "
        "committed twice, no runner lost",
        partial(
            _run_scenario,
            quiet=("shard.cells.deduped", "shard.runners.lost"),
        ),
    ),
    "runner-sigkill": (
        "SIGKILL a runner mid-grid with no respawn budget: survivors "
        "steal its cells, its journaled work is recovered not redone",
        _scenario_runner_sigkill,
    ),
    "message-drop": (
        "drop every 3rd coordinator-side message (grants, acks, "
        "heartbeats): ready resend, lease regrant and journal replay "
        "converge anyway",
        partial(
            _message_chaos, moved="dropped", drop_every=3,
            lease_timeout_s=6.0,
        ),
    ),
    "message-duplicate": (
        "every 2nd received message arrives twice: at-most-once "
        "commit dedups by digest",
        partial(_message_chaos, moved="duplicated", duplicate_every=2),
    ),
    "message-delay": (
        "delay every 2nd message by 50 ms: no lease expires "
        "spuriously, no runner is lost",
        partial(
            _message_chaos, moved="delayed", delay_every=2,
            delay_s=0.05,
            quiet=("shard.leases.expired", "shard.runners.lost"),
        ),
    ),
    "journal-corruption": (
        "a dead runner's shard journal is garbage: it is quarantined "
        "and counted, its cells recompute",
        _scenario_journal_corruption,
    ),
    "coordinator-kill": (
        "SIGKILL the coordinator mid-grid, then resume: every "
        "journaled cell is recovered, none recomputed",
        _scenario_coordinator_kill,
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
