"""Fault injection: prove the integrity layers actually detect faults.

Sanitizers that have never seen a corrupted run are unfalsifiable.
This module deliberately perturbs running simulators — one fault class
at a time — and records how (and whether) each fault was caught,
producing a **detection matrix**:

==============================  ==========================================
fault class                     expected detection channel
==============================  ==========================================
``maf_oversubscribe``           ``invariant:maf_occupancy`` (the PR 2 bug)
``shared_maf_oversubscribe``    ``invariant:maf_occupancy`` (native
                                machine's single MAF: three names, one
                                object, combined i/d/L2 traffic)
``cycle_skew``                  ``invariant:cycle_monotonicity``
``nan_dram_latency``            MAF fill guard / ``finite_latency``
``trace_truncation``            ``invariant:instruction_conservation``
``ipc_overflow``                ``invariant:ipc_bound``
``cpi_stack_leak``              ``invariant:cpi_stack_sum``
``event_count_corruption``      ``invariant:cache_conservation``
``blockcache_corruption``       ``invariant:blockcache_divergence`` (the
                                fast path's verify sampler re-times a
                                replayed block in the detailed loop)
``dram_row_overcount``          ``invariant:dram_row_accounting``
``dram_conflict_overflow``      ``invariant:dram_bank_conservation``
``dram_phantom_row_hit``        ``invariant:dram_page_policy``
``retire_livelock``             ``stuck`` (bounded retirement port scan)
``worker_crash``                ``crash`` (engine fault isolation)
``worker_hang``                 ``timeout`` (engine per-cell budget)
==============================  ==========================================

Every fault runs through the *production* cell path —
:meth:`~repro.validation.harness.Harness.run_grid` with sanitizers
armed — so the matrix exercises exactly the code a real grid runs.
A clean ``control`` row (unfaulted sim-alpha, same path) proves the
checkers do not cry wolf.  A fault whose result lands in the grid as a normal
cell is a **silent corruption** — the failure mode this whole
subsystem exists to rule out; :attr:`DetectionMatrix.all_caught`
asserts there are none.

Single-workload detection (:func:`run_detection_matrix`, the sweep
with every family reduced to one workload) proves each checker *can*
fire; it says nothing about whether the workload was the one built to
stress the faulted subsystem.  The **workload sweep**
(:func:`run_detection_sweep`) pairs every fault class with the
microbenchmark families from :data:`repro.workloads.suite.
WORKLOAD_FAMILIES` that stress its subsystem — control faults against
branch-heavy micros, memory faults against pointer chases, DRAM faults
against the row-locality kernels — and demands detection on **every**
(fault, stressing-workload) cell, so an invariant that only happens to
fire on one lucky workload cannot masquerade as coverage.
"""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import MachineConfig
from repro.core.pipeline import AlphaPipeline
from repro.integrity.sanitizers import Sanitizers
from repro.obs.observer import Instrumentation
from repro.workloads.suite import WORKLOAD_FAMILIES, WorkloadSet

__all__ = [
    "FAULTS",
    "FaultSpec",
    "FaultedAlpha",
    "Detection",
    "DetectionMatrix",
    "run_detection_matrix",
    "run_detection_sweep",
]

#: Per-cell wall-clock budget under the pool (``worker_hang`` trips it).
POOL_TIMEOUT_S = 10.0
#: Window of the non-strict sanitizers every detection cell runs under.
SANITIZER_WINDOW = 128
#: Livelock watchdog armed on every detection cell.
WATCHDOG_S = 30.0


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault class and where it should be caught."""

    name: str
    description: str
    #: Detection channels that count as the *designed* catch for this
    #: fault (``invariant:<name>``, ``exception``, ``stuck``,
    #: ``crash``, ``timeout``).  Any quarantine/failure counts as
    #: detected; matching one of these additionally counts as caught
    #: by the intended mechanism.
    expected: Tuple[str, ...]
    #: Workload families (keys of :data:`WORKLOAD_FAMILIES`) built to
    #: stress the faulted subsystem; the sweep runs the fault on every
    #: member of every listed family and requires detection on each.
    families: Tuple[str, ...] = ("memory",)
    #: Pinned workloads: when non-empty, the matrix and the sweep run
    #: this fault on exactly these workloads instead of the default /
    #: family members.  For faults that only manifest on a particular
    #: execution shape (the blockcache corruption needs a kernel whose
    #: steady loop actually gets memoized and replayed).
    workloads: Tuple[str, ...] = ()
    #: Fault only manifests under the process pool (crash/hang).
    needs_pool: bool = False


FAULTS: Dict[str, FaultSpec] = {
    spec.name: spec
    for spec in (
        FaultSpec(
            "maf_oversubscribe",
            "make the L2 MAF admit misses while full so more fills are "
            "concurrently active than it has entries (the PR 2 "
            "present_miss bug)",
            ("invariant:maf_occupancy",),
            families=("memory",),
        ),
        FaultSpec(
            "shared_maf_oversubscribe",
            "same admission bug on the native machine's single shared "
            "MAF (maf_i, maf_d and maf_l2: three names, one object) "
            "under combined i-stream/d-stream/L2 traffic",
            ("invariant:maf_occupancy",),
            families=("memory", "dram"),
        ),
        FaultSpec(
            "cycle_skew",
            "skew every 997th reported retire time backwards by 10k "
            "cycles (a corrupted cycle counter)",
            ("invariant:cycle_monotonicity",),
            families=("control",),
        ),
        FaultSpec(
            "nan_dram_latency",
            "make the SDRAM model return NaN access times",
            ("exception", "invariant:finite_latency"),
            families=("memory", "dram"),
        ),
        FaultSpec(
            "trace_truncation",
            "silently drop the second half of the input trace",
            ("invariant:instruction_conservation",),
            families=("control", "execute"),
        ),
        FaultSpec(
            "ipc_overflow",
            "divide the measured cycle count by 1000 (IPC far above "
            "the retire width)",
            ("invariant:ipc_bound",),
            families=("execute",),
        ),
        FaultSpec(
            "cpi_stack_leak",
            "leak 0.5 CPI into one stack component so the stack no "
            "longer sums to the CPI",
            ("invariant:cpi_stack_sum",),
            families=("control", "execute"),
        ),
        FaultSpec(
            "event_count_corruption",
            "inflate the architectural D-cache miss counter past what "
            "the cache itself recorded",
            ("invariant:cache_conservation",),
            families=("memory",),
        ),
        FaultSpec(
            "blockcache_corruption",
            "corrupt one memoized comparison record of every steady "
            "block as it is captured, so the trace-compiled fast path "
            "replays from a stale template",
            ("invariant:blockcache_divergence",),
            families=("execute",),
            # Needs a kernel the blockcache actually compiles: E-I's
            # all-hit independent-op loop goes steady within a few
            # occurrences; miss-dominated kernels never memoize (the
            # fault would be vacuously "undetected" on them).
            workloads=("E-I",),
        ),
        FaultSpec(
            "dram_row_overcount",
            "double-count SDRAM row-buffer hits so hits + misses no "
            "longer partition the accesses",
            ("invariant:dram_row_accounting",),
            families=("dram",),
        ),
        FaultSpec(
            "dram_conflict_overflow",
            "charge two phantom bank conflicts per SDRAM access, "
            "pushing the conflict count past the access count",
            ("invariant:dram_bank_conservation",),
            families=("dram",),
        ),
        FaultSpec(
            "dram_phantom_row_hit",
            "score row-buffer hits under a closed-page policy (whose "
            "banks auto-precharge and can never hit)",
            ("invariant:dram_page_policy",),
            families=("dram",),
        ),
        FaultSpec(
            "retire_livelock",
            "zero the retire width so retirement can never find a "
            "free port (no-retirement livelock)",
            ("stuck",),
            families=("control",),
        ),
        FaultSpec(
            "worker_crash",
            "hard-kill the worker process (os._exit) mid-trace",
            ("crash",),
            families=("execute",),
            needs_pool=True,
        ),
        FaultSpec(
            "worker_hang",
            "stop consuming the trace and sleep forever mid-cell",
            ("timeout",),
            families=("execute",),
            needs_pool=True,
        ),
    )
}


class _SkewObserver:
    """Observer shim that corrupts reported retire times in flight."""

    def __init__(self, inner, every: int = 997, skew: float = 10_000.0):
        self._inner = inner
        self._every = every
        self._skew = skew
        self._count = 0
        # The pipeline reads these straight off whatever observer it
        # was handed, so the shim must mirror them.
        self.metrics = getattr(inner, "metrics", None)
        self.sanitizer = getattr(inner, "sanitizer", None)

    def begin(self, stats) -> None:
        self._inner.begin(stats)

    def commit(self, dyn, fetch, map_time, issue, complete, retire,
               stats) -> None:
        self._count += 1
        if not self._count % self._every:
            complete = complete - self._skew
            retire = retire - self._skew
        self._inner.commit(
            dyn, fetch, map_time, issue, complete, retire, stats
        )

    def commit_short(self, dyn, fetch, retire, stats) -> None:
        self.commit(dyn, fetch, retire, retire, retire, retire, stats)

    def finalize(self, result) -> None:
        self._inner.finalize(result)


class _SabotagedTrace:
    """Trace wrapper that misbehaves mid-iteration (crash or hang)."""

    def __init__(self, trace: Sequence, mode: str, after: int = 64):
        self._trace = trace
        self._mode = mode
        self._after = after

    def __len__(self) -> int:
        return len(self._trace)

    def __iter__(self):
        for index, dyn in enumerate(self._trace):
            if index >= self._after:
                if self._mode == "crash":
                    os._exit(42)
                while True:  # hang: stop making progress, stay alive
                    time.sleep(3600)
            yield dyn


class FaultedAlpha:
    """sim-alpha with one deliberate corruption injected.

    Drop-in simulator (``name``, ``config``, ``run_trace``) whose runs
    carry the fault named at construction; built exclusively by
    :func:`run_detection_matrix`/:func:`run_detection_sweep` and the
    integrity tests.
    """

    def __init__(self, fault: str, config: Optional[MachineConfig] = None):
        if fault not in FAULTS:
            raise ValueError(
                f"unknown fault {fault!r}; known: {sorted(FAULTS)}"
            )
        self.fault = fault
        config = config or MachineConfig(name=f"faulted-{fault}")
        if fault == "retire_livelock":
            config = dataclasses.replace(config, retire_width=0)
        elif fault == "shared_maf_oversubscribe":
            # The native machine's single MAF: resolved() propagates
            # the flag so maf_i, maf_d and maf_l2 become one object.
            config = dataclasses.replace(
                config,
                native=dataclasses.replace(config.native, shared_maf=True),
            )
        elif fault == "dram_phantom_row_hit":
            config = dataclasses.replace(
                config,
                memory=dataclasses.replace(
                    config.memory,
                    dram=config.memory.dram.with_policy("closed"),
                ),
            )
        self.config = config

    @property
    def name(self) -> str:
        return self.config.name

    def run_trace(self, trace, workload: str = "", *,
                  observer=None, watchdog=None):
        fault = self.fault
        if fault == "trace_truncation":
            trace = list(trace)[: max(1, len(trace) // 2)]
        elif fault in ("worker_crash", "worker_hang"):
            trace = _SabotagedTrace(
                trace, "crash" if fault == "worker_crash" else "hang"
            )
        pipeline = AlphaPipeline(self.config)
        blockcache = None
        if fault == "blockcache_corruption":
            from repro.core.blockcache import BlockCacheConfig

            def _corrupt_memo(memo):
                # Nudge one float field of the block's first memoized
                # comparison record by a cycle.  Replay proceeds from
                # the stale template; the next *strict* verify probe
                # re-times the block through the detailed loop and
                # must see the record mismatch.
                cmps = list(memo.cmps)
                record = list(cmps[0])
                for i in range(len(record) - 1, -1, -1):
                    if isinstance(record[i], float):
                        record[i] += 1.0
                        break
                cmps[0] = tuple(record)
                memo.cmps = tuple(cmps)

            # A tight verify interval so the sampler fires within the
            # short fault-injection traces.
            blockcache = BlockCacheConfig(
                verify_interval=2, debug_corrupt=_corrupt_memo
            )
        if fault in ("maf_oversubscribe", "shared_maf_oversubscribe"):
            # Re-introduce the PR 2 present_miss bug: the file admits
            # every miss immediately, never stalling when full, so
            # under miss pressure more fills are concurrently active
            # than the file has entries.  The L2 MAF is the target
            # (only DRAM-latency fills overlap enough to oversubscribe)
            # and is shrunk to two entries because the pipeline's own
            # issue limits keep the micros below eight concurrent
            # misses.  Under the shared-MAF native config maf_l2 *is*
            # maf_i and maf_d, so the bug corrupts the one file the
            # whole hierarchy shares.
            from repro.memory.mshr import MafConfig, MafOutcome

            maf = pipeline.hierarchy.maf_l2
            maf.config = MafConfig(entries=2)

            def _never_stall(now, block, _maf=maf):
                fill = _maf._inflight.get(block)
                if fill is not None and fill > now:
                    _maf.stats.combines += 1
                    return MafOutcome(now, fill, False)
                return MafOutcome(now, None, False)

            maf.present_miss = _never_stall
        elif fault == "nan_dram_latency":
            pipeline.hierarchy.dram.access = (
                lambda time, paddr: math.nan
            )
        elif fault in (
            "dram_row_overcount",
            "dram_conflict_overflow",
            "dram_phantom_row_hit",
        ):
            dram = pipeline.hierarchy.dram
            real_access = dram.access

            def _corrupting_access(
                now, paddr, _dram=dram, _real=real_access, _fault=fault
            ):
                ready = _real(now, paddr)
                stats = _dram.stats
                if _fault == "dram_row_overcount":
                    stats.row_hits += 1
                elif _fault == "dram_conflict_overflow":
                    stats.bank_conflicts += 2
                else:  # phantom hit: rebook this miss, partition intact
                    stats.row_hits += 1
                    stats.row_misses -= 1
                return ready

            dram.access = _corrupting_access
        elif fault == "cycle_skew" and observer is not None:
            observer = _SkewObserver(observer)
        result = pipeline.run_trace(
            trace, workload, observer=observer, watchdog=watchdog,
            blockcache=blockcache,
        )
        if fault == "ipc_overflow":
            result.cycles = result.cycles / 1000.0
        elif fault == "cpi_stack_leak" and result.cpi_stack:
            component = next(iter(result.cpi_stack))
            result.cpi_stack[component] += 0.5
        elif fault == "event_count_corruption":
            result.stats.dcache_misses += 1_000_003
        return result


@dataclass
class Detection:
    """One matrix cell: how a fault class fared on one workload."""

    fault: str
    description: str
    #: The fault did not produce a clean grid cell (control inverts
    #: this: clean is the pass condition).
    detected: bool
    #: Channels that fired, e.g. ``["invariant:maf_occupancy"]``.
    channels: List[str] = field(default_factory=list)
    #: A fired channel is one the fault's spec designed for.
    expected_channel: bool = False
    detail: str = ""
    skipped: str = ""
    #: The workload this cell ran, and the family that paired it with
    #: the fault (a control row: the family its workload was first
    #: paired under; empty for skipped faults).
    workload: str = ""
    family: str = ""

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)


@dataclass
class DetectionMatrix:
    """The full fault-injection verdict (one or many workloads)."""

    workload: str
    rows: List[Detection] = field(default_factory=list)

    @property
    def all_caught(self) -> bool:
        """True iff every (fault, workload) cell detected its fault,
        every fault was caught through its designed channel on at
        least one cell, and every control cell stayed clean — i.e.
        zero silent corruptions and zero false alarms."""
        via_design: Dict[str, bool] = {}
        for row in self.rows:
            if row.skipped:
                continue
            if row.fault == "control":
                if row.detected:  # a false alarm
                    return False
                continue
            if not row.detected:
                return False
            via_design[row.fault] = (
                via_design.get(row.fault, False) or row.expected_channel
            )
        return all(via_design.values())

    def silent_corruptions(self) -> List[str]:
        """Cells whose fault produced a clean-looking grid result
        (``fault`` alone, or ``fault@workload`` in a sweep)."""
        return [
            row.fault + (f"@{row.workload}" if row.workload else "")
            for row in self.rows
            if row.fault != "control" and not row.skipped
            and not row.detected
        ]

    def to_json(self) -> str:
        """Canonical JSON — byte-identical for identical sweeps."""
        payload = {
            "workload": self.workload,
            "rows": [row.to_dict() for row in self.rows],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def render(self) -> str:
        """Fixed-width table for reports and the CLI."""
        header = (
            f"{'fault':<26} {'workload':<9} {'family':<8} "
            f"{'detected':<9} via"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            if row.skipped:
                status, via = "skip", row.skipped
            elif row.fault == "control":
                status = "clean" if not row.detected else "FALSE-ALARM"
                via = ", ".join(row.channels) or "-"
            else:
                status = "yes" if row.detected else "MISSED"
                via = ", ".join(row.channels) or "-"
                if row.detected and not row.expected_channel:
                    status = "yes*"  # caught, but not by design channel
            lines.append(
                f"{row.fault:<26} {row.workload or '-':<9} "
                f"{row.family or '-':<8} {status:<9} {via}"
            )
        return "\n".join(lines)


def _channels_of(failure) -> List[str]:
    if failure.kind == "invariant" and failure.snapshot:
        return [
            f"invariant:{violation.get('invariant', '?')}"
            for violation in failure.snapshot.get("violations", ())
        ]
    return [failure.kind]


def _run_cells(
    fault_cells: "Dict[str, List[Tuple[str, str]]]",
    controls: Dict[str, str],
    include_pool_faults: bool,
) -> DetectionMatrix:
    """Run a clean control on every ``controls`` workload (mapped to
    the family it was first paired under) plus every ``fault ->
    [(workload, family)]`` cell through :meth:`Harness.run_grid`,
    appending matrix rows."""
    from repro.core.simalpha import SimAlpha
    from repro.exec.spec import RunOptions
    from repro.validation.harness import Harness

    workloads = WorkloadSet()
    matrix = DetectionMatrix(workload="sweep")

    def run_grid(factory, names: Sequence[str], pool: bool):
        # An instrumented grid runs in process, so the pool faults,
        # which kill or hang their worker, run uninstrumented.
        return Harness(
            workloads,
            RunOptions(
                jobs=2 if pool else 1,
                timeout=POOL_TIMEOUT_S if pool else None,
                retries=0,
                watchdog_s=WATCHDOG_S,
            ),
            sanitizers=Sanitizers(window=SANITIZER_WINDOW),
        ).run_grid(
            [factory], names,
            instrumentation=None if pool else Instrumentation(),
        )

    # Controls: the unfaulted simulator through the identical path,
    # once per workload any fault will run on.
    control_grid = run_grid(SimAlpha, list(controls), pool=False)
    control_failures: Dict[str, List] = {}
    for failure in control_grid.failures:
        control_failures.setdefault(failure.workload, []).append(failure)
    for name, family in controls.items():
        failures = control_failures.get(name, [])
        matrix.rows.append(Detection(
            fault="control",
            description="unfaulted sim-alpha (must stay clean)",
            detected=bool(failures),
            channels=[
                channel
                for failure in failures
                for channel in _channels_of(failure)
            ],
            expected_channel=False,
            detail=failures[0].message if failures else "",
            workload=name,
            family=family,
        ))

    fork = "fork" in multiprocessing.get_all_start_methods()
    for name, cells in fault_cells.items():
        spec = FAULTS[name]
        if spec.needs_pool and not (include_pool_faults and fork):
            matrix.rows.append(Detection(
                fault=name, description=spec.description,
                detected=False,
                skipped=(
                    "pool faults disabled" if not include_pool_faults
                    else "no fork start method"
                ),
            ))
            continue
        grid = run_grid(
            lambda name=name: FaultedAlpha(name),
            [workload for workload, _ in cells],
            pool=spec.needs_pool,
        )
        by_workload = {f.workload: f for f in grid.failures}
        for workload, family in cells:
            failure = by_workload.get(workload)
            channels = _channels_of(failure) if failure is not None else []
            matrix.rows.append(Detection(
                fault=name,
                description=spec.description,
                detected=failure is not None,
                channels=channels,
                expected_channel=any(
                    channel in spec.expected for channel in channels
                ),
                detail=failure.message.strip().splitlines()[-1]
                if failure is not None and failure.message else "",
                workload=workload,
                family=family,
            ))
    return matrix


def run_detection_matrix(
    workload: str = "M-M",
    *,
    faults: Optional[Sequence[str]] = None,
    include_pool_faults: bool = True,
) -> DetectionMatrix:
    """Inject every fault class (plus a clean control) into sim-alpha
    on the single ``workload`` and report how each was caught.

    This is :func:`run_detection_sweep` with every family's members
    set to ``(workload,)``: each fault runs once, on ``workload`` (or
    on its pinned workloads), labelled with its first stressing family.
    """
    matrix = run_detection_sweep(
        faults=faults,
        family_members=dict.fromkeys(WORKLOAD_FAMILIES, (workload,)),
        include_pool_faults=include_pool_faults,
    )
    matrix.workload = workload
    return matrix


def run_detection_sweep(
    *,
    families: Optional[Sequence[str]] = None,
    faults: Optional[Sequence[str]] = None,
    family_members: Optional[Dict[str, Sequence[str]]] = None,
    include_pool_faults: bool = True,
) -> DetectionMatrix:
    """The workload-swept matrix: every fault class on every member of
    every workload family built to stress its subsystem.

    ``families`` restricts the sweep (faults none of whose families
    are selected are left out entirely); ``family_members`` overrides
    the members of individual families (the tests use one-workload
    families to keep tier-1 cheap).  Each workload appears at most
    once per fault even when two of its families are paired, and every
    distinct workload gets its own clean control cell.

    Every cell runs through :meth:`Harness.run_grid` with sanitizers
    armed (non-strict, window :data:`SANITIZER_WINDOW`), a
    :data:`WATCHDOG_S` livelock watchdog and instrumentation on,
    exactly as a production grid would; pool faults (crash/hang) run
    under a two-worker pool with a :data:`POOL_TIMEOUT_S` cell budget,
    uninstrumented (an instrumented grid runs in process), and are
    skipped (not failed) where fork is unavailable.
    """
    selected = list(families) if families is not None else list(
        WORKLOAD_FAMILIES
    )
    for family in selected:
        if family not in WORKLOAD_FAMILIES:
            raise KeyError(
                f"unknown workload family {family!r}; known: "
                f"{list(WORKLOAD_FAMILIES)}"
            )
    members: Dict[str, Sequence[str]] = dict(WORKLOAD_FAMILIES)
    if family_members:
        members.update(family_members)
    names = list(faults) if faults is not None else list(FAULTS)

    fault_cells: Dict[str, List[Tuple[str, str]]] = {}
    #: workload -> the family it was first paired under, in plan order.
    controls: Dict[str, str] = {}
    for name in names:
        spec = FAULTS[name]
        cells: List[Tuple[str, str]] = []
        if spec.workloads:
            # Pinned faults sweep their pinned workloads (if any of
            # their stressing families is selected at all).
            if any(family in selected for family in spec.families):
                cells = [
                    (workload, spec.families[0])
                    for workload in spec.workloads
                ]
        else:
            for family in spec.families:
                if family not in selected:
                    continue
                for workload in members[family]:
                    if all(workload != seen for seen, _ in cells):
                        cells.append((workload, family))
        if not cells:
            continue  # fault's subsystem is outside the selected sweep
        fault_cells[name] = cells
        for workload, family in cells:
            controls.setdefault(workload, family)

    return _run_cells(fault_cells, controls, include_pool_faults)
