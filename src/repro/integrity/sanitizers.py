"""Invariant sanitizers: runtime checks that the timing models are
internally consistent.

The observability layer (PR 1) made runs *inspectable*; this layer
makes them *self-checking*.  A :class:`RunSanitizer` rides the same
per-instruction observer hook the CPI-stack accountant uses and
verifies, per window of instructions, the invariants every healthy run
satisfies by construction:

``cycle_monotonicity``
    retirement is in order, so retire times never decrease;
``stage_order``
    fetch <= map <= issue and complete <= retire, all finite and
    non-negative;
``finite_latency``
    memory/fetch readiness times are finite and non-negative (a NaN
    DRAM latency is caught at the access that produced it, before it
    poisons the whole run) — violations of this invariant are *fatal*
    because the engine cannot meaningfully continue past a NaN;
``maf_occupancy``
    every miss address file tracks at most ``entries`` concurrently
    active fills at any probed time (the invariant whose violation was
    the PR 2 ``present_miss`` oversubscription bug);
``ipc_bound``
    IPC lies in (0, retire-width];
``cpi_stack_sum``
    an attached CPI stack sums exactly to the CPI it decomposes;
``cache_conservation``
    the pipeline's architectural miss counters agree with the cache
    hierarchy's own access statistics (hit + miss bookkeeping cannot
    silently diverge between layers);
``instruction_conservation``
    the run retired exactly as many instructions as the trace supplied;
``finite_stats``
    cycle and event counters are finite and non-negative;
``dram_row_accounting``
    every DRAM access is exactly one of a row-buffer hit or a row miss,
    so the counters partition the access mix and the hit rate lies in
    [0, 1];
``dram_bank_conservation``
    bank-conflict stalls are bounded by the accesses that could have
    collided (0 <= conflicts <= accesses) and never negative;
``dram_page_policy``
    the row-buffer counters obey the configured page policy: a
    closed-page bank precharges after every access and can never score
    a row hit, an open-page bank precharges only on a row miss that
    found another row active.

Violations are *recorded*, not raised (strict mode raises
:class:`IntegrityError` on the first one); the harness and execution
engine quarantine a violating result as a ``CellFailure`` on the grid
rather than aborting the run.  Like the metrics registry, the
user-facing :class:`Sanitizers` bundle has a disabled null mode whose
per-run factory returns ``None`` — the engine then pays one identity
check per instruction, nothing more.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "INVARIANTS",
    "InvariantViolation",
    "IntegrityError",
    "RunSanitizer",
    "Sanitizers",
]

#: Every invariant a sanitizer can report, in documentation order.
INVARIANTS: Tuple[str, ...] = (
    "cycle_monotonicity",
    "stage_order",
    "finite_latency",
    "maf_occupancy",
    "ipc_bound",
    "cpi_stack_sum",
    "cache_conservation",
    "instruction_conservation",
    "finite_stats",
    "dram_row_accounting",
    "dram_bank_conservation",
    "dram_page_policy",
    "blockcache_divergence",
)

#: IPC ceiling used when no machine configuration was attached (the
#: simulator did not take the observer hook); generous enough that no
#: real model trips it, tight enough to catch a slashed cycle count.
DEFAULT_IPC_BOUND = 16.0

#: Relative tolerance for the CPI-stack exact-sum identity (the stack
#: is exact by construction; measurement scaling may round).
_STACK_TOLERANCE = 1e-6


@dataclass(frozen=True)
class InvariantViolation:
    """One violated invariant, with enough state to diagnose it."""

    invariant: str
    message: str
    simulator: str = ""
    workload: str = ""
    #: JSON-ready state captured at the point of violation (times,
    #: counters, occupancies — whatever the check saw).
    snapshot: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "InvariantViolation":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})

    def __str__(self) -> str:
        where = (
            f" [{self.simulator} on {self.workload}]"
            if self.simulator or self.workload else ""
        )
        return f"{self.invariant}{where}: {self.message}"


class IntegrityError(RuntimeError):
    """Raised for fatal violations, or for any violation under strict
    mode."""

    def __init__(self, violation: InvariantViolation):
        super().__init__(str(violation))
        self.violation = violation

    def __reduce__(self):
        # Pickles whole, so a pool worker can ship it to its parent.
        return type(self), (self.violation,)


def _finite(value: float) -> bool:
    try:
        return math.isfinite(value)
    except TypeError:
        return False


class RunSanitizer:
    """Per-run invariant checker (one per (simulator, workload) cell).

    The pipeline calls :meth:`attach` once at the top of a run (handing
    over its config and memory hierarchy), :meth:`check_time` on the
    memory/fetch readiness paths, and — through the observer —
    :meth:`on_commit` per retired instruction.  :meth:`audit_result`
    runs the post-hoc checks on the finished :class:`SimResult`.

    Only the first occurrence of each invariant is recorded in full;
    repeats bump ``counts`` so a corrupted run cannot flood memory
    with violation records.
    """

    __slots__ = (
        "strict", "window", "simulator", "workload",
        "violations", "counts",
        "_prev_retire", "_since_check", "_config", "_hier", "_mafs",
    )

    def __init__(
        self,
        *,
        strict: bool = False,
        window: int = 2048,
        simulator: str = "",
        workload: str = "",
    ):
        self.strict = strict
        self.window = max(1, int(window))
        self.simulator = simulator
        self.workload = workload
        self.violations: List[InvariantViolation] = []
        self.counts: Dict[str, int] = {}
        self._prev_retire = 0.0
        self._since_check = 0
        self._config = None
        self._hier = None
        self._mafs: Tuple = ()

    # -- recording ---------------------------------------------------------

    def _violate(
        self,
        invariant: str,
        message: str,
        snapshot: Optional[Dict] = None,
        *,
        fatal: bool = False,
    ) -> None:
        count = self.counts.get(invariant, 0)
        self.counts[invariant] = count + 1
        if count == 0:
            violation = InvariantViolation(
                invariant=invariant,
                message=message,
                simulator=self.simulator,
                workload=self.workload,
                snapshot=snapshot or {},
            )
            self.violations.append(violation)
            if fatal or self.strict:
                raise IntegrityError(violation)

    # -- engine-side hooks -------------------------------------------------

    def attach(self, config, hierarchy) -> None:
        """Called by the pipeline at run start with its live state."""
        self._config = config
        self._hier = hierarchy
        mafs = []
        for maf in (hierarchy.maf_i, hierarchy.maf_d, hierarchy.maf_l2):
            # A shared MAF is one object behind three names.
            if all(maf is not other for other in mafs):
                mafs.append(maf)
        self._mafs = tuple(mafs)

    def check_time(self, stage: str, value: float, *, pc: int = 0) -> None:
        """Validate a readiness time the moment it is produced.

        Fatal: a NaN or infinite time poisons every later comparison
        (and would crash the engine's cycle arithmetic anyway), so the
        run cannot continue past it.
        """
        if not (_finite(value) and value >= 0.0):
            self._violate(
                "finite_latency",
                f"{stage} readiness time is {value!r} at pc={pc:#x}",
                {"stage": stage, "value": repr(value), "pc": pc},
                fatal=True,
            )

    def on_commit(
        self,
        fetch: float,
        map_time: float,
        issue: float,
        complete: float,
        retire: float,
        pc: int = 0,
    ) -> None:
        """Per-instruction hook (called by the observer's commit)."""
        prev = self._prev_retire
        # The negated form catches NaN (every comparison with NaN is
        # false) as well as plain regressions.
        if not retire >= prev:
            self._violate(
                "cycle_monotonicity",
                f"retire time went backwards: {retire!r} after {prev!r} "
                f"at pc={pc:#x}",
                {"retire": repr(retire), "previous": repr(prev), "pc": pc},
            )
        else:
            self._prev_retire = retire
        self._since_check += 1
        if self._since_check >= self.window:
            self._since_check = 0
            self._window_checks(fetch, map_time, issue, complete, retire, pc)

    def _window_checks(
        self,
        fetch: float,
        map_time: float,
        issue: float,
        complete: float,
        retire: float,
        pc: int,
    ) -> None:
        times = (fetch, map_time, issue, complete, retire)
        if not all(_finite(t) and t >= 0.0 for t in times):
            self._violate(
                "finite_latency",
                f"non-finite stage time at pc={pc:#x}: {times!r}",
                {"times": [repr(t) for t in times], "pc": pc},
                fatal=True,
            )
        elif not (fetch <= map_time <= issue and complete <= retire):
            self._violate(
                "stage_order",
                f"pipeline stages out of order at pc={pc:#x}: "
                f"fetch={fetch:g} map={map_time:g} issue={issue:g} "
                f"complete={complete:g} retire={retire:g}",
                {"fetch": fetch, "map": map_time, "issue": issue,
                 "complete": complete, "retire": retire, "pc": pc},
            )
        for maf in self._mafs:
            occupancy = maf.occupancy_at(retire)
            entries = maf.config.entries
            if occupancy > entries:
                self._violate(
                    "maf_occupancy",
                    f"MAF tracks {occupancy} concurrently active fills "
                    f"at t={retire:g} but has only {entries} entries",
                    {"occupancy": occupancy, "entries": entries,
                     "time": retire},
                )

    # -- post-run audit ----------------------------------------------------

    def audit_result(
        self,
        result,
        *,
        expected_instructions: Optional[int] = None,
    ) -> List[InvariantViolation]:
        """Run the whole-result checks; returns violations so far."""
        self._audit_finite_stats(result)
        if (
            expected_instructions is not None
            and result.instructions != expected_instructions
        ):
            self._violate(
                "instruction_conservation",
                f"run retired {result.instructions} instructions but the "
                f"trace supplied {expected_instructions}",
                {"retired": result.instructions,
                 "expected": expected_instructions},
            )
        self._audit_ipc(result)
        self._audit_stack(result)
        self._audit_conservation(result)
        self._audit_maf_peak()
        self._audit_dram()
        return list(self.violations)

    def _audit_finite_stats(self, result) -> None:
        bad: Dict[str, str] = {}
        if not (_finite(result.cycles) and result.cycles > 0.0):
            bad["cycles"] = repr(result.cycles)
        if result.instructions < 0:
            bad["instructions"] = repr(result.instructions)
        for fld in dataclasses.fields(result.stats):
            if fld.name == "extra":
                continue
            value = getattr(result.stats, fld.name)
            if not (_finite(value) and value >= 0):
                bad[fld.name] = repr(value)
        if bad:
            self._violate(
                "finite_stats",
                "negative or non-finite counters: "
                + ", ".join(f"{k}={v}" for k, v in sorted(bad.items())),
                {"counters": bad},
            )

    def _audit_ipc(self, result) -> None:
        if result.instructions <= 0 or not _finite(result.cycles) \
                or result.cycles <= 0.0:
            return  # finite_stats already covers the degenerate cases
        bound = (
            float(self._config.retire_width)
            if self._config is not None else DEFAULT_IPC_BOUND
        )
        ipc = result.ipc
        if not 0.0 < ipc <= bound:
            self._violate(
                "ipc_bound",
                f"IPC {ipc:g} outside (0, {bound:g}]",
                {"ipc": ipc, "bound": bound, "cycles": result.cycles,
                 "instructions": result.instructions},
            )

    def _audit_stack(self, result) -> None:
        stack = result.cpi_stack
        if not stack or result.instructions <= 0:
            return
        total = sum(stack.values())
        cpi = result.cpi
        if not all(_finite(v) for v in stack.values()) or abs(
            total - cpi
        ) > _STACK_TOLERANCE * max(1.0, abs(cpi)):
            self._violate(
                "cpi_stack_sum",
                f"CPI stack sums to {total:.9g} but the run's CPI is "
                f"{cpi:.9g}",
                {"stack": {k: repr(v) for k, v in stack.items()},
                 "sum": repr(total), "cpi": cpi},
            )

    def _audit_maf_peak(self) -> None:
        """Peak concurrent occupancy vs. capacity, post-run.

        In-order retirement means every fill from retired instructions
        has completed by the retire frontier, so the live window probe
        can never see oversubscription — but the MAF records its peak
        occupancy at each allocation instant, and that peak exceeds
        ``entries`` exactly when ``present_miss`` admitted a miss it
        should have stalled (the PR 2 bug).
        """
        for maf in self._mafs:
            peak = getattr(maf, "peak_occupancy", 0)
            entries = maf.config.entries
            if peak > entries:
                self._violate(
                    "maf_occupancy",
                    f"MAF peak occupancy {peak} exceeds its "
                    f"{entries} entries — misses were admitted while "
                    f"the file was full",
                    {"peak": peak, "entries": entries,
                     "full_stalls": maf.stats.full_stalls,
                     "allocations": maf.stats.allocations},
                )

    def _audit_dram(self) -> None:
        """The SDRAM model's own counters against its invariants.

        Uses the attached hierarchy's DRAM (the one the run actually
        drove), so a fault that corrupts the counters — or a model
        change that breaks hit/miss partitioning — is caught on any
        workload whose traffic reaches main memory at all.
        """
        hier = self._hier
        if hier is None:
            return
        dram = getattr(hier, "dram", None)
        if dram is None:
            return
        stats = dram.stats
        counters = {
            "accesses": stats.accesses,
            "row_hits": stats.row_hits,
            "row_misses": stats.row_misses,
            "bank_conflicts": stats.bank_conflicts,
            "precharges": stats.precharges,
        }
        if (
            any(c < 0 for c in counters.values())
            or stats.row_hits + stats.row_misses != stats.accesses
            or not 0.0 <= stats.row_hit_rate <= 1.0
        ):
            self._violate(
                "dram_row_accounting",
                f"row counters do not partition the access mix: "
                f"{stats.row_hits} hits + {stats.row_misses} misses != "
                f"{stats.accesses} accesses "
                f"(hit rate {stats.row_hit_rate:g})",
                dict(counters, row_hit_rate=stats.row_hit_rate),
            )
            return  # dependent checks below would only echo the damage
        if stats.bank_conflicts > stats.accesses:
            self._violate(
                "dram_bank_conservation",
                f"{stats.bank_conflicts} bank conflicts from only "
                f"{stats.accesses} accesses — at most one conflict can "
                f"be charged per access",
                counters,
            )
        policy = dram.config.page_policy
        if policy == "closed":
            ok = (
                stats.row_hits == 0
                and stats.precharges == stats.accesses
            )
        else:  # open page: precharge exactly when a conflicting row was open
            ok = stats.precharges <= stats.row_misses
        if not ok:
            self._violate(
                "dram_page_policy",
                f"counters inconsistent with {policy}-page policy: "
                f"{stats.row_hits} row hits, {stats.precharges} "
                f"precharges over {stats.accesses} accesses "
                f"({stats.row_misses} row misses)",
                dict(counters, page_policy=policy),
            )

    def _audit_conservation(self, result) -> None:
        """Architectural counters vs. the hierarchy's own bookkeeping.

        Requires the attached hierarchy, and holds exactly: the
        pipeline bumps ``dcache_misses``/``icache_misses`` once per
        L1 access that missed, and the caches count the same events
        from the other side.
        """
        hier = self._hier
        if hier is None:
            return
        stats = result.stats
        pairs = (
            ("dcache_misses", stats.dcache_misses, hier.l1d.stats.misses),
            ("icache_misses", stats.icache_misses, hier.l1i.stats.misses),
        )
        for name, counted, ground_truth in pairs:
            if counted != ground_truth:
                self._violate(
                    "cache_conservation",
                    f"pipeline counted {counted} {name} but the cache "
                    f"recorded {ground_truth} misses",
                    {"counter": name, "pipeline": counted,
                     "cache": ground_truth},
                )


class Sanitizers:
    """User-facing bundle: policy + the per-run sanitizers it built.

    Mirrors :class:`repro.obs.Instrumentation`: ``enabled=False`` makes
    :meth:`run_sanitizer` return ``None``, which every integration
    point treats as "no sanitization" — the zero-cost mode and the
    default.  ``strict=True`` escalates the first violation of any run
    to an :class:`IntegrityError` instead of quarantining.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        strict: bool = False,
        window: int = 2048,
    ):
        self.enabled = enabled
        self.strict = strict
        self.window = window
        #: Per-run sanitizers handed out so far, in run order.
        self.runs: List[RunSanitizer] = []

    @classmethod
    def disabled(cls) -> "Sanitizers":
        return cls(enabled=False)

    def run_sanitizer(
        self, *, simulator: str = "", workload: str = ""
    ) -> Optional[RunSanitizer]:
        """A fresh per-run sanitizer, or ``None`` when disabled."""
        if not self.enabled:
            return None
        sanitizer = RunSanitizer(
            strict=self.strict,
            window=self.window,
            simulator=simulator,
            workload=workload,
        )
        self.runs.append(sanitizer)
        return sanitizer

    def take_violations(self) -> List[InvariantViolation]:
        """Drain every violation collected since the last call."""
        violations = [v for run in self.runs for v in run.violations]
        self.runs.clear()
        return violations
