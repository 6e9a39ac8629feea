"""Workload registry with shared trace caching.

Every experiment replays the same dynamic traces through many simulator
configurations (Table 5 alone uses 13 configurations x 3 optimizations
x 10 macrobenchmarks); building the program and running the functional
machine once per workload and caching the trace makes the sweeps cheap.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Tuple

from repro.functional.machine import run_program
from repro.functional.trace import DynInstr
from repro.isa import loader
from repro.isa.program import Program
from repro.workloads.calibration import calibration_suite
from repro.workloads.macro import (
    SPEC2000_PROFILES,
    SPEC95_PROFILES,
    build_macro,
)
from repro.workloads.micro import MICROBENCHMARKS

__all__ = [
    "WorkloadSet",
    "WORKLOAD_FAMILIES",
    "family_workloads",
    "micro_names",
    "spec2000_names",
    "spec95_names",
]

#: Microbenchmark families by the subsystem they were built to stress
#: (paper Section 3's control/execute/memory taxonomy, plus the DRAM
#: row-locality kernels this reproduction adds).  The detection sweep
#: pairs each fault class with the families designed to expose it, so
#: the members are deliberately small, representative subsets — cheap
#: enough to fan a full fault matrix across, extreme enough that the
#: stressed subsystem dominates each run.
WORKLOAD_FAMILIES: Dict[str, Tuple[str, ...]] = {
    "control": ("C-Ca", "C-R", "C-S1"),
    "execute": ("E-I", "E-D3"),
    "memory": ("M-D", "M-L2", "M-M"),
    "dram": ("M-ROW", "M-BANK", "M-M"),
}


def family_workloads(families: Iterable[str]) -> List[str]:
    """Workload names for ``families``, deduplicated, family order."""
    names: List[str] = []
    for family in families:
        try:
            members = WORKLOAD_FAMILIES[family]
        except KeyError:
            raise KeyError(
                f"unknown workload family {family!r}; known: "
                f"{list(WORKLOAD_FAMILIES)}"
            ) from None
        for name in members:
            if name not in names:
                names.append(name)
    return names


def micro_names() -> List[str]:
    """Microbenchmark names in Table 2 order."""
    return list(MICROBENCHMARKS)


def spec2000_names() -> List[str]:
    """SPEC2000 proxy names in Table 3 order."""
    return list(SPEC2000_PROFILES)


def spec95_names() -> List[str]:
    """SPEC95 proxy names in Figure 2 order."""
    return list(SPEC95_PROFILES)


class WorkloadSet:
    """Builds workloads on demand and caches programs, their digests
    and their traces."""

    def __init__(self) -> None:
        self._builders: Dict[str, Callable[[], Program]] = {}
        self._programs: Dict[str, Program] = {}
        self._digests: Dict[str, str] = {}
        self._traces: Dict[str, List[DynInstr]] = {}
        for name, builder in MICROBENCHMARKS.items():
            self._builders[name] = builder
        for name, profile in SPEC2000_PROFILES.items():
            self._builders[name] = (
                lambda p=profile: build_macro(p)
            )
        for name, profile in SPEC95_PROFILES.items():
            self._builders[name] = (
                lambda p=profile: build_macro(p)
            )

    def register(self, program: Program) -> None:
        """Add a pre-built program under its own name, replacing any
        program, digest and trace cached under that name."""
        self._programs[program.name] = program
        self._builders[program.name] = lambda: program
        self._digests.pop(program.name, None)
        self._traces.pop(program.name, None)

    def register_calibration(self) -> List[str]:
        """Add the Section 4.2 calibration workloads; returns names."""
        names = []
        for name, program in calibration_suite().items():
            self.register(program)
            names.append(name)
        return names

    def names(self) -> List[str]:
        return list(self._builders)

    def program(self, name: str) -> Program:
        if name not in self._programs:
            try:
                builder = self._builders[name]
            except KeyError:
                raise KeyError(
                    f"unknown workload {name!r}; known: {self.names()}"
                ) from None
            self._programs[name] = builder()
        return self._programs[name]

    def program_digest(self, name: str) -> str:
        """:func:`repro.isa.loader.program_digest` of ``name``'s
        program, computed once (encoding a large program takes ms)."""
        if name not in self._digests:
            self._digests[name] = loader.program_digest(self.program(name))
        return self._digests[name]

    def trace(self, name: str) -> List[DynInstr]:
        """The cached dynamic trace for ``name`` (built on first use)."""
        if name not in self._traces:
            self._traces[name] = run_program(self.program(name))
        return self._traces[name]

    def traces(self, names: Iterable[str]) -> List[Tuple[str, List[DynInstr]]]:
        return [(name, self.trace(name)) for name in names]
