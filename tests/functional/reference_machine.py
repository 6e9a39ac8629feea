"""The functional machine as an interpreter: the test oracle.

This is the interpreter :class:`repro.functional.machine.FunctionalMachine`
replaced when it began compiling each static instruction into a step
closure.  Every record, register, memory word and error of the compiled
machine must equal this one's; ``test_compiled_equivalence.py`` checks
that on generated and shipped programs.  Nothing under ``src/`` imports
it.
"""

from __future__ import annotations

import struct
from typing import List, Optional

from repro.functional.machine import ArchState, ExecutionLimitExceeded
from repro.functional.memory_image import SparseMemory
from repro.functional.trace import DynInstr
from repro.isa.instructions import InstrClass, Instruction, Opcode
from repro.isa.program import Program, STACK_BASE
from repro.isa.registers import RA, SP

__all__ = ["ReferenceMachine"]

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63


def _to_signed(value: int) -> int:
    value &= _MASK64
    return value - (1 << 64) if value & _SIGN64 else value


class ReferenceMachine:
    """Interprets programs and records the dynamic instruction trace."""

    #: Default dynamic instruction budget; generously above anything the
    #: workload suite produces.
    DEFAULT_LIMIT = 5_000_000

    def __init__(self, program: Program, *, limit: int = DEFAULT_LIMIT):
        self.program = program
        self.limit = limit
        self.state = ArchState(memory=SparseMemory(program.data))
        self.state.write_int(SP, STACK_BASE)
        self.trace: List[DynInstr] = []
        self.instructions_retired = 0

    # ------------------------------------------------------------------

    def run(self) -> List[DynInstr]:
        """Execute from the program entry until HALT; returns the trace."""
        program = self.program
        instrs = program.instructions
        state = self.state
        trace = self.trace
        limit = self.limit
        code_base = program.code_base

        # Decoded once per static instruction: the class, and the
        # registers the timing models see as sources (the address base
        # included).
        klasses = [instr.opcode.klass for instr in instrs]
        read_srcs = [
            i.srcs if i.base is None else i.srcs + (i.base,) for i in instrs
        ]

        index = program.entry
        seq = 0
        while True:
            if seq >= limit:
                raise ExecutionLimitExceeded(program, limit)
            instr = instrs[index]
            klass = klasses[index]
            pc = code_base + index * 4
            slot = (pc >> 2) & 3
            taken = False
            eaddr: Optional[int] = None
            size = 8
            next_index = index + 1

            if klass is InstrClass.HALT:
                trace.append(
                    DynInstr(seq, index, pc, instr.opcode, None, (), False,
                             pc + 4, None, 8, slot)
                )
                self.instructions_retired = seq + 1
                return trace
            if klass is InstrClass.NOP:
                pass
            elif klass is InstrClass.INT_ALU or klass is InstrClass.INT_MUL:
                self._exec_int(instr)
            elif klass.is_fp_operate:
                self._exec_fp(instr)
            elif klass.is_memory:
                eaddr, size = self._exec_memory(instr)
            elif klass is InstrClass.COND_BRANCH:
                taken = self._branch_taken(instr)
                if taken:
                    next_index = program.target_index(index)
            elif klass is InstrClass.UNCOND_BRANCH:
                taken = True
                next_index = program.target_index(index)
            elif klass is InstrClass.CALL:
                taken = True
                state.write_int(instr.dest or RA, pc + 4)
                if instr.target is not None:
                    next_index = program.target_index(index)
                else:
                    next_index = program.index_of(state.read_int(instr.srcs[0]))
            elif klass is InstrClass.RETURN or klass is InstrClass.JUMP:
                taken = True
                next_index = program.index_of(state.read_int(instr.srcs[0]))
            else:  # pragma: no cover - exhaustive over InstrClass
                raise NotImplementedError(f"unhandled class {klass}")

            next_pc = code_base + next_index * 4
            trace.append(
                DynInstr(seq, index, pc, instr.opcode, instr.dest,
                         read_srcs[index], taken, next_pc, eaddr, size,
                         slot)
            )
            seq += 1
            index = next_index

    # ------------------------------------------------------------------

    def _operands(self, instr: Instruction) -> List[int]:
        state = self.state
        values = [state.read_int(s) for s in instr.srcs]
        if instr.imm is not None:
            if len(values) >= 2:
                # Alpha operate instructions take rb XOR a literal,
                # never both; silently dropping one would mis-time and
                # mis-compute, so fail loudly.
                raise ValueError(
                    f"{instr}: integer operate takes two register "
                    "sources or one source plus an immediate, not both"
                )
            values.append(instr.imm & _MASK64)
        return values

    def _exec_int(self, instr: Instruction) -> None:
        op = instr.opcode
        state = self.state
        vals = self._operands(instr)
        a = vals[0] if vals else 0
        b = vals[1] if len(vals) > 1 else 0
        if op is Opcode.ADDQ or op is Opcode.LDA:
            result = a + b
        elif op is Opcode.SUBQ:
            result = a - b
        elif op is Opcode.AND:
            result = a & b
        elif op is Opcode.OR:
            result = a | b
        elif op is Opcode.XOR:
            result = a ^ b
        elif op is Opcode.SLL:
            result = a << (b & 63)
        elif op is Opcode.SRL:
            result = (a & _MASK64) >> (b & 63)
        elif op is Opcode.CMPEQ:
            result = int(a == b)
        elif op is Opcode.CMPLT:
            result = int(_to_signed(a) < _to_signed(b))
        elif op is Opcode.CMPLE:
            result = int(_to_signed(a) <= _to_signed(b))
        elif op is Opcode.MULQ:
            result = a * b
        elif op is Opcode.CMOVEQ:
            result = b if a == 0 else state.read_int(instr.dest)
        elif op is Opcode.CMOVNE:
            result = b if a != 0 else state.read_int(instr.dest)
        else:  # pragma: no cover - exhaustive over integer opcodes
            raise NotImplementedError(f"unhandled integer op {op}")
        state.write_int(instr.dest, result)

    def _exec_fp(self, instr: Instruction) -> None:
        op = instr.opcode
        state = self.state
        a = state.read_fp(instr.srcs[0]) if instr.srcs else 0.0
        b = state.read_fp(instr.srcs[1]) if len(instr.srcs) > 1 else 0.0
        if op is Opcode.ADDT:
            result = a + b
        elif op is Opcode.SUBT:
            result = a - b
        elif op is Opcode.MULT:
            result = a * b
        elif op in (Opcode.DIVS, Opcode.DIVT):
            result = a / b if b else 0.0
        elif op in (Opcode.SQRTS, Opcode.SQRTT):
            result = abs(a) ** 0.5
        else:  # pragma: no cover - exhaustive over fp opcodes
            raise NotImplementedError(f"unhandled fp op {op}")
        state.write_fp(instr.dest, result)

    def _exec_memory(self, instr: Instruction):
        op = instr.opcode
        state = self.state
        eaddr = (state.read_int(instr.base) + instr.disp) & _MASK64
        if op is Opcode.LDQ:
            state.write_int(instr.dest, state.memory.load_word(eaddr))
            return eaddr, 8
        if op is Opcode.STQ:
            state.memory.store_word(eaddr, state.read_int(instr.srcs[0]))
            return eaddr, 8
        if op is Opcode.LDBU:
            state.write_int(instr.dest, state.memory.load_byte(eaddr))
            return eaddr, 1
        if op is Opcode.STB:
            state.memory.store_byte(eaddr, state.read_int(instr.srcs[0]))
            return eaddr, 1
        if op is Opcode.LDT:
            bits = state.memory.load_word(eaddr)
            state.write_fp(instr.dest, _bits_to_float(bits))
            return eaddr, 8
        if op is Opcode.STT:
            bits = _float_to_bits(state.read_fp(instr.srcs[0]))
            state.memory.store_word(eaddr, bits)
            return eaddr, 8
        raise NotImplementedError(f"unhandled memory op {op}")  # pragma: no cover

    def _branch_taken(self, instr: Instruction) -> bool:
        value = _to_signed(self.state.read_int(instr.srcs[0]))
        op = instr.opcode
        if op is Opcode.BEQ:
            return value == 0
        if op is Opcode.BNE:
            return value != 0
        if op is Opcode.BLT:
            return value < 0
        if op is Opcode.BGE:
            return value >= 0
        if op is Opcode.BLE:
            return value <= 0
        if op is Opcode.BGT:
            return value > 0
        raise NotImplementedError(f"unhandled branch {op}")  # pragma: no cover


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & _MASK64))[0]


def _float_to_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & _MASK64))[0]


def _float_to_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]
