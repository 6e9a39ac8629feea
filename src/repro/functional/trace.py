"""Dynamic instruction records.

Every timing simulator in this package is trace driven: the functional
machine executes a program once and emits a list of :class:`DynInstr`
records that the pipeline models replay.  Mispredicted speculation is
charged as redirect/refill penalties by the timing models (standard
trace-driven practice); the records carry the architectural truth
(branch outcomes, effective addresses) the predictors train on.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.isa.instructions import InstrClass, Opcode

__all__ = ["DynInstr", "Trace"]


class DynInstr:
    """One dynamically executed instruction.

    Uses ``__slots__``: macrobenchmark traces run to hundreds of
    thousands of records and every timing model iterates them.
    """

    __slots__ = (
        "seq",
        "index",
        "pc",
        "opcode",
        "klass",
        "dest",
        "srcs",
        "latency",
        "taken",
        "next_pc",
        "eaddr",
        "size",
        "is_load",
        "is_store",
        "is_control",
        "is_fp",
        "slot",
    )

    def __init__(
        self,
        seq: int,
        index: int,
        pc: int,
        opcode: Opcode,
        dest: Optional[str],
        srcs: Tuple[str, ...],
        taken: bool,
        next_pc: int,
        eaddr: Optional[int],
        size: int,
        slot: int,
    ):
        self.seq = seq
        self.index = index
        self.pc = pc
        self.opcode = opcode
        self.klass = klass = opcode.klass
        self.dest = dest
        self.srcs = srcs
        self.latency = opcode.latency
        self.taken = taken
        self.next_pc = next_pc
        self.eaddr = eaddr
        self.size = size
        self.is_load = klass.is_load
        self.is_store = klass.is_store
        self.is_control = klass.is_control
        self.is_fp = klass.is_fp
        self.slot = slot

    @property
    def is_memory(self) -> bool:
        return self.klass.is_memory

    @property
    def is_nop(self) -> bool:
        return self.klass is InstrClass.NOP

    @property
    def fallthrough_pc(self) -> int:
        return self.pc + 4

    def __repr__(self) -> str:
        extra = ""
        if self.is_control:
            extra = f" taken={self.taken} next={self.next_pc:#x}"
        elif self.eaddr is not None:
            extra = f" ea={self.eaddr:#x}"
        return (
            f"<DynInstr #{self.seq} pc={self.pc:#x} "
            f"{self.opcode.mnemonic}{extra}>"
        )


#: A trace is simply a list of dynamic instruction records, in program
#: (commit) order.
Trace = list
