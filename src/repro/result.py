"""Simulation result records and the simulator protocol.

Every timing model (sim-alpha and its variants, sim-outorder, the
8-way study simulator, the NativeMachine) consumes a dynamic trace and
produces a :class:`SimResult`.  The validation harness compares
results purely through this record.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dc_fields
from typing import Dict, Optional, Protocol, Sequence

from repro.functional.trace import DynInstr
from repro.obs.provenance import RunProvenance
from repro.obs.telemetry import CellTelemetry

__all__ = [
    "RunStats",
    "SimResult",
    "Simulator",
    "VOLATILE_PROVENANCE_FIELDS",
]

#: Provenance fields that vary run-to-run on identical measurements
#: (blanked by :meth:`SimResult.canonical_dict` and
#: ``ResultGrid.to_json(canonical=True)``).
VOLATILE_PROVENANCE_FIELDS = ("created", "host", "platform", "python")


@dataclass
class RunStats:
    """Event counts accumulated during one timing run."""

    branch_lookups: int = 0
    branch_mispredicts: int = 0
    line_mispredicts: int = 0
    way_mispredicts: int = 0
    ras_mispredicts: int = 0
    jmp_mispredicts: int = 0
    loaduse_mispredicts: int = 0
    store_replay_traps: int = 0
    load_order_traps: int = 0
    mbox_traps: int = 0
    store_wait_holds: int = 0
    icache_misses: int = 0
    dcache_misses: int = 0
    l2_misses: int = 0
    victim_hits: int = 0
    itlb_misses: int = 0
    dtlb_misses: int = 0
    maf_stalls: int = 0
    maps_stalls: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def replay_traps(self) -> int:
        """All pipeline-flushing replay traps."""
        return self.store_replay_traps + self.load_order_traps + self.mbox_traps

    def to_dict(self) -> Dict:
        """All counters plus ``extra`` as plain JSON-ready data."""
        payload = {
            f.name: getattr(self, f.name)
            for f in dc_fields(self)
            if f.name != "extra"
        }
        payload["extra"] = dict(self.extra)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunStats":
        names = {f.name for f in dc_fields(cls)}
        known = {k: v for k, v in payload.items() if k in names}
        extra = known.pop("extra", {}) or {}
        stats = cls(**known)
        stats.extra = dict(extra)
        return stats


@dataclass
class SimResult:
    """Outcome of timing one workload on one simulator configuration."""

    simulator: str
    workload: str
    cycles: float
    instructions: int
    stats: RunStats = field(default_factory=RunStats)
    #: CPI decomposition (component -> cycles/instr), attached when the
    #: run was instrumented (see :mod:`repro.obs.cpistack`).
    cpi_stack: Optional[Dict[str, float]] = None
    #: Reproducibility fingerprint (see :mod:`repro.obs.provenance`).
    provenance: Optional[RunProvenance] = None
    #: Resource cost of producing this result (wall/CPU/RSS/KIPS),
    #: attached by the harness or a pool worker; volatile by nature and
    #: blanked under ``ResultGrid.to_json(canonical=True)``.
    telemetry: Optional[CellTelemetry] = None

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def __str__(self) -> str:
        return (
            f"{self.simulator} on {self.workload}: "
            f"{self.instructions} instructions in {self.cycles:.0f} cycles "
            f"(IPC {self.ipc:.2f})"
        )

    def to_dict(self) -> Dict:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {
            "simulator": self.simulator,
            "workload": self.workload,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "stats": self.stats.to_dict(),
            "cpi_stack": dict(self.cpi_stack) if self.cpi_stack else None,
            "provenance": (
                self.provenance.to_dict() if self.provenance else None
            ),
            "telemetry": (
                self.telemetry.to_dict() if self.telemetry else None
            ),
        }

    def canonical_dict(self) -> Dict:
        """:meth:`to_dict` with the run-to-run volatile fields blanked
        (wall-clock provenance, resource telemetry — including the
        ``telemetry.source`` execution-path tag such as ``"cache"``),
        so two results compare equal iff they measured the same thing.
        This is the payload form ``ResultGrid.to_json(canonical=True)``
        serialises and the one a checkpoint load compares when deciding
        whether two entries under the same digest agree or conflict."""
        entry = self.to_dict()
        if entry.get("provenance"):
            entry["provenance"] = {
                k: ("" if k in VOLATILE_PROVENANCE_FIELDS else v)
                for k, v in entry["provenance"].items()
            }
        entry["telemetry"] = None
        return entry

    @classmethod
    def from_dict(cls, payload: Dict) -> "SimResult":
        provenance = payload.get("provenance")
        telemetry = payload.get("telemetry")
        return cls(
            simulator=payload["simulator"],
            workload=payload["workload"],
            cycles=payload["cycles"],
            instructions=payload["instructions"],
            stats=RunStats.from_dict(payload.get("stats") or {}),
            cpi_stack=payload.get("cpi_stack") or None,
            provenance=(
                RunProvenance.from_dict(provenance) if provenance else None
            ),
            telemetry=(
                CellTelemetry.from_dict(telemetry) if telemetry else None
            ),
        )


class Simulator(Protocol):
    """The interface the validation harness drives."""

    name: str

    def run_trace(self, trace: Sequence[DynInstr], workload: str) -> SimResult:
        """Time a pre-computed dynamic trace."""
        ...
