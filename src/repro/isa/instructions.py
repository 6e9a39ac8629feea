"""Instruction set definition for the Alpha-like target ISA.

The 21264 validation study exercises a small number of *instruction
classes* (paper Table 1); this module defines a compact Alpha-like ISA
that covers every class the paper's microbenchmarks and macrobenchmark
proxies need: integer ALU ops, integer multiply, integer/FP loads and
stores, FP add/multiply/divide/sqrt (single and double precision),
conditional and unconditional branches, subroutine calls and returns,
indirect jumps, conditional moves, and the Alpha universal no-op
(``unop``).

Each static instruction is an :class:`Instruction`; the opcode carries
its :class:`InstrClass`, which in turn determines the execution latency
(paper Table 1) and which functional-unit kinds may execute it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "InstrClass",
    "Opcode",
    "Instruction",
    "LATENCY",
    "INSTRUCTION_BYTES",
    "OCTAWORD_BYTES",
    "INSTRUCTIONS_PER_OCTAWORD",
]

#: Every instruction occupies four bytes, as in the Alpha ISA.
INSTRUCTION_BYTES = 4

#: The 21264 fetches an aligned 128-bit packet of four instructions
#: ("octaword" in the Compaq literature) every cycle.
OCTAWORD_BYTES = 16
INSTRUCTIONS_PER_OCTAWORD = OCTAWORD_BYTES // INSTRUCTION_BYTES


class InstrClass(enum.Enum):
    """Timing class of an instruction (paper Table 1 rows).

    Every member carries its static facts as plain attributes, derived
    once at import (:func:`_derive_class_facts`) because the timing
    models read them for every dynamic instruction.
    """

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    INT_LOAD = "int_load"
    INT_STORE = "int_store"
    FP_ADD = "fp_add"
    FP_MUL = "fp_mul"
    FP_DIV_S = "fp_div_s"
    FP_DIV_D = "fp_div_d"
    FP_SQRT_S = "fp_sqrt_s"
    FP_SQRT_D = "fp_sqrt_d"
    FP_LOAD = "fp_load"
    FP_STORE = "fp_store"
    COND_BRANCH = "cond_branch"
    UNCOND_BRANCH = "uncond_branch"
    CALL = "call"
    RETURN = "return"
    JUMP = "jump"
    NOP = "nop"
    HALT = "halt"

    #: Dense 0-based position in declaration order, for per-simulator
    #: lookup tables (indexing a tuple beats hashing an enum member).
    ordinal: int
    is_load: bool
    is_store: bool
    is_memory: bool
    is_control: bool
    is_fp: bool
    #: FP but not a load/store: executes on the FP pipes.
    is_fp_operate: bool
    #: ``jmp`` and returns: no slot-stage adder can compute the target
    #: (a mispredicted ``jmp`` costs a 10-cycle flush; returns are
    #: predicted by the return address stack).
    is_indirect_control: bool


#: Execution latency per class, in cycles (paper Table 1).  Loads list
#: the cache-hit load-to-use latency.  Unconditional jumps take three
#: cycles per Table 1; we apply that to calls/returns/jumps alike.
LATENCY = {
    InstrClass.INT_ALU: 1,
    InstrClass.INT_MUL: 7,
    InstrClass.INT_LOAD: 3,
    InstrClass.INT_STORE: 1,
    InstrClass.FP_ADD: 4,
    InstrClass.FP_MUL: 4,
    InstrClass.FP_DIV_S: 12,
    InstrClass.FP_DIV_D: 15,
    InstrClass.FP_SQRT_S: 18,
    InstrClass.FP_SQRT_D: 33,
    InstrClass.FP_LOAD: 4,
    InstrClass.FP_STORE: 1,
    InstrClass.COND_BRANCH: 1,
    InstrClass.UNCOND_BRANCH: 3,
    InstrClass.CALL: 3,
    InstrClass.RETURN: 3,
    InstrClass.JUMP: 3,
    InstrClass.NOP: 1,
    InstrClass.HALT: 1,
}


def _derive_class_facts() -> None:
    loads = (InstrClass.INT_LOAD, InstrClass.FP_LOAD)
    stores = (InstrClass.INT_STORE, InstrClass.FP_STORE)
    indirect = (InstrClass.RETURN, InstrClass.JUMP)
    control = (
        InstrClass.COND_BRANCH, InstrClass.UNCOND_BRANCH, InstrClass.CALL,
    ) + indirect
    fp = (
        InstrClass.FP_ADD, InstrClass.FP_MUL, InstrClass.FP_DIV_S,
        InstrClass.FP_DIV_D, InstrClass.FP_SQRT_S, InstrClass.FP_SQRT_D,
        InstrClass.FP_LOAD, InstrClass.FP_STORE,
    )
    for ordinal, klass in enumerate(InstrClass):
        klass.ordinal = ordinal
        klass.is_load = klass in loads
        klass.is_store = klass in stores
        klass.is_memory = klass.is_load or klass.is_store
        klass.is_control = klass in control
        klass.is_fp = klass in fp
        klass.is_fp_operate = klass.is_fp and not klass.is_memory
        klass.is_indirect_control = klass in indirect


_derive_class_facts()


class Opcode(enum.Enum):
    """Concrete opcodes.  Each maps onto one :class:`InstrClass`.

    ``latency`` is the class's Table 1 latency; ``reads_dest`` marks the
    conditional moves, whose old destination value is the result when
    the condition fails (so it is a source operand too).
    """

    # Integer ALU.
    ADDQ = ("addq", InstrClass.INT_ALU)
    SUBQ = ("subq", InstrClass.INT_ALU)
    AND = ("and", InstrClass.INT_ALU)
    OR = ("bis", InstrClass.INT_ALU)
    XOR = ("xor", InstrClass.INT_ALU)
    SLL = ("sll", InstrClass.INT_ALU)
    SRL = ("srl", InstrClass.INT_ALU)
    CMPEQ = ("cmpeq", InstrClass.INT_ALU)
    CMPLT = ("cmplt", InstrClass.INT_ALU)
    CMPLE = ("cmple", InstrClass.INT_ALU)
    LDA = ("lda", InstrClass.INT_ALU)
    CMOVEQ = ("cmoveq", InstrClass.INT_ALU)
    CMOVNE = ("cmovne", InstrClass.INT_ALU)
    # Integer multiply.
    MULQ = ("mulq", InstrClass.INT_MUL)
    # Integer memory.
    LDQ = ("ldq", InstrClass.INT_LOAD)
    STQ = ("stq", InstrClass.INT_STORE)
    LDBU = ("ldbu", InstrClass.INT_LOAD)
    STB = ("stb", InstrClass.INT_STORE)
    # Floating point.
    ADDT = ("addt", InstrClass.FP_ADD)
    SUBT = ("subt", InstrClass.FP_ADD)
    MULT = ("mult", InstrClass.FP_MUL)
    DIVS = ("divs", InstrClass.FP_DIV_S)
    DIVT = ("divt", InstrClass.FP_DIV_D)
    SQRTS = ("sqrts", InstrClass.FP_SQRT_S)
    SQRTT = ("sqrtt", InstrClass.FP_SQRT_D)
    LDT = ("ldt", InstrClass.FP_LOAD)
    STT = ("stt", InstrClass.FP_STORE)
    # Control.
    BEQ = ("beq", InstrClass.COND_BRANCH)
    BNE = ("bne", InstrClass.COND_BRANCH)
    BLT = ("blt", InstrClass.COND_BRANCH)
    BGE = ("bge", InstrClass.COND_BRANCH)
    BLE = ("ble", InstrClass.COND_BRANCH)
    BGT = ("bgt", InstrClass.COND_BRANCH)
    BR = ("br", InstrClass.UNCOND_BRANCH)
    BSR = ("bsr", InstrClass.CALL)
    JSR = ("jsr", InstrClass.CALL)
    JMP = ("jmp", InstrClass.JUMP)
    RET = ("ret", InstrClass.RETURN)
    # Misc.
    UNOP = ("unop", InstrClass.NOP)
    HALT = ("halt", InstrClass.HALT)

    def __init__(self, mnemonic: str, klass: InstrClass):
        self.mnemonic = mnemonic
        self.klass = klass
        self.latency = LATENCY[klass]
        self.reads_dest = mnemonic.startswith("cmov")


_BY_MNEMONIC = {op.mnemonic: op for op in Opcode}


def opcode_for_mnemonic(mnemonic: str) -> Opcode:
    """Look up an opcode by assembler mnemonic.

    Raises :class:`KeyError` with a helpful message for unknown
    mnemonics.
    """
    try:
        return _BY_MNEMONIC[mnemonic.lower()]
    except KeyError:
        raise KeyError(
            f"unknown mnemonic {mnemonic!r}; known: "
            f"{sorted(_BY_MNEMONIC)}"
        ) from None


@dataclass(frozen=True)
class Instruction:
    """One static instruction.

    ``dest`` and ``srcs`` name architectural registers ("r0".."r31",
    "f0".."f31"); register semantics live in :mod:`repro.isa.registers`.
    Memory instructions use ``base`` + ``disp`` addressing.  Control
    instructions carry a ``target`` label resolved at link time by
    :class:`repro.isa.program.Program`.
    """

    opcode: Opcode
    dest: Optional[str] = None
    srcs: Tuple[str, ...] = ()
    imm: Optional[int] = None
    base: Optional[str] = None
    disp: int = 0
    target: Optional[str] = None
    comment: str = ""

    @property
    def klass(self) -> InstrClass:
        return self.opcode.klass

    @property
    def latency(self) -> int:
        return self.opcode.latency

    def __str__(self) -> str:
        parts = [self.opcode.mnemonic]
        operands = []
        if self.dest is not None:
            operands.append(self.dest)
        operands.extend(self.srcs)
        if self.imm is not None:
            operands.append(f"#{self.imm}")
        if self.base is not None:
            operands.append(f"{self.disp}({self.base})")
        if self.target is not None:
            operands.append(self.target)
        if operands:
            parts.append(", ".join(operands))
        return " ".join(parts)
