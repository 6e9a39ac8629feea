"""Architectural (functional) execution of programs.

The :class:`FunctionalMachine` runs a :class:`~repro.isa.program.
Program` at the architectural level — register and memory semantics
only, no timing — and produces the dynamic trace consumed by every
timing simulator.  Running the functional model once and replaying the
trace through many pipeline configurations is what makes the paper's
sweep experiments (Tables 4 and 5 run sim-alpha under 13+ different
configurations) tractable.

The machine compiles each static instruction, the first time it
executes, into a *step*: a closure specialised to the instruction's
opcode and operands that updates the architectural state, appends the
instruction's :class:`~repro.functional.trace.DynInstr` and returns
the index of the next instruction.  Whatever does not depend on the
dynamic state is settled once per static instruction: reads of the
zero registers are constants and writes to them are dropped,
immediates are masked, direct branch targets are resolved, and the
record's static fields (``index``, ``pc``, ``opcode``, ``dest``,
``srcs``, ``slot``, the fall-through and direct-target ``next_pc``)
are computed once and shared by every record of the instruction.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.functional.memory_image import SparseMemory
from repro.functional.trace import DynInstr
from repro.isa.instructions import (
    INSTRUCTION_BYTES,
    InstrClass,
    Instruction,
    Opcode,
)
from repro.isa.program import Program, STACK_BASE
from repro.isa.registers import RA, SP, ZERO_FP, ZERO_INT

__all__ = ["FunctionalMachine", "ExecutionLimitExceeded", "run_program"]

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63

#: A compiled static instruction: executes it as dynamic instruction
#: ``seq`` and returns the index of the next instruction.
Step = Callable[[int], int]


class ExecutionLimitExceeded(RuntimeError):
    """A program ran past its dynamic instruction budget.

    Workload bugs (a mis-built loop bound) would otherwise hang the
    whole validation harness; the limit converts them into a crisp
    failure naming the program.
    """

    def __init__(self, program: Program, limit: int):
        super().__init__(
            f"program {program.name!r} exceeded the dynamic instruction "
            f"limit of {limit}; probable infinite loop"
        )
        self.program = program
        self.limit = limit


@dataclass
class ArchState:
    """Architectural state: register files plus data memory."""

    iregs: Dict[str, int] = field(default_factory=dict)
    fregs: Dict[str, float] = field(default_factory=dict)
    memory: SparseMemory = field(default_factory=SparseMemory)

    def read_int(self, name: str) -> int:
        if name == ZERO_INT:
            return 0
        return self.iregs.get(name, 0)

    def write_int(self, name: str, value: int) -> None:
        if name != ZERO_INT:
            self.iregs[name] = value & _MASK64

    def read_fp(self, name: str) -> float:
        if name == ZERO_FP:
            return 0.0
        return self.fregs.get(name, 0.0)

    def write_fp(self, name: str, value: float) -> None:
        if name != ZERO_FP:
            self.fregs[name] = value


class _Halt(Exception):
    """Raised by the HALT step to end :meth:`FunctionalMachine.run`."""


class FunctionalMachine:
    """Runs programs and records the dynamic instruction trace."""

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

    def run(self) -> List[DynInstr]:
        """Execute from the program entry until HALT; returns the trace.

        An instruction is compiled the first time it executes, so one
        that never runs costs nothing, and an instruction that cannot
        execute (an operate with two register sources and an immediate,
        an indirect target outside the program) raises when it runs,
        after the records of every instruction before it.
        """
        program = self.program
        compile_step = _StepCompiler(self).compile
        steps: List[Optional[Step]] = [None] * len(program.instructions)
        index = program.entry
        try:
            for seq in range(self.limit):
                step = steps[index]
                if step is None:
                    step = steps[index] = compile_step(index)
                index = step(seq)
        except _Halt:
            self.instructions_retired = seq + 1
            return self.trace
        raise ExecutionLimitExceeded(program, self.limit)


#: A constant operand is read as ``registers.get(_CONSTANT, value)``.
#: No register file holds this key, so each operand of a step is one
#: dict lookup whether it names a register or a constant, and a step
#: needs no variant per operand shape.
_CONSTANT = object()


def _int_operand(name: Optional[str]) -> Tuple[object, int]:
    """``(key, default)`` that reads integer register ``name``."""
    return (_CONSTANT, 0) if name == ZERO_INT else (name, 0)


def _fp_operand(name: Optional[str]) -> Tuple[object, float]:
    """``(key, default)`` that reads floating-point register ``name``."""
    return (_CONSTANT, 0.0) if name == ZERO_FP else (name, 0.0)


def _signed_less(a: int, b: int) -> bool:
    # Flipping the sign bit maps signed 64-bit order onto unsigned order.
    return a ^ _SIGN64 < b ^ _SIGN64


def _signed_less_equal(a: int, b: int) -> bool:
    return a ^ _SIGN64 <= b ^ _SIGN64


#: Integer operates as ``op(a, b)``; the step masks the result.  Every
#: register value and constant is already masked to 64 bits.
_INT_OPS: Dict[Opcode, Callable[[int, int], int]] = {
    Opcode.ADDQ: operator.add,
    Opcode.LDA: operator.add,
    Opcode.SUBQ: operator.sub,
    Opcode.AND: operator.and_,
    Opcode.OR: operator.or_,
    Opcode.XOR: operator.xor,
    Opcode.SLL: lambda a, b: a << (b & 63),
    Opcode.SRL: lambda a, b: a >> (b & 63),
    Opcode.CMPEQ: operator.eq,
    Opcode.CMPLT: _signed_less,
    Opcode.CMPLE: _signed_less_equal,
    Opcode.MULQ: operator.mul,
}


def _fp_divide(a: float, b: float) -> float:
    return a / b if b else 0.0


def _fp_sqrt(a: float, _b: float) -> float:
    return abs(a) ** 0.5


_FP_OPS: Dict[Opcode, Callable[[float, float], float]] = {
    Opcode.ADDT: operator.add,
    Opcode.SUBT: operator.sub,
    Opcode.MULT: operator.mul,
    Opcode.DIVS: _fp_divide,
    Opcode.DIVT: _fp_divide,
    Opcode.SQRTS: _fp_sqrt,
    Opcode.SQRTT: _fp_sqrt,
}

#: Conditional branches as ``test(value ^ _SIGN64, _SIGN64)``: the
#: signed comparison of the register with zero.
_BRANCH_TESTS: Dict[Opcode, Callable[[int, int], bool]] = {
    Opcode.BEQ: operator.eq,
    Opcode.BNE: operator.ne,
    Opcode.BLT: operator.lt,
    Opcode.BGE: operator.ge,
    Opcode.BLE: operator.le,
    Opcode.BGT: operator.gt,
}


class _Site(NamedTuple):
    """The static fields of one instruction's trace records."""

    index: int
    pc: int
    opcode: Opcode
    dest: Optional[str]
    #: The registers the timing models see as sources, the address
    #: base included.
    srcs: Tuple[str, ...]
    slot: int
    next_index: int
    #: The fall-through ``next_pc``.
    next_pc: int


class _StepCompiler:
    """Compiles the static instructions of one run into steps."""

    def __init__(self, machine: FunctionalMachine):
        self.program = machine.program
        self.state = machine.state
        self.append = machine.trace.append

    def compile(self, index: int) -> Step:
        """The step of the instruction at ``index``."""
        program = self.program
        instr = program.instructions[index]
        srcs = instr.srcs if instr.base is None else instr.srcs + (instr.base,)
        pc = program.pc_of(index)
        site = _Site(index, pc, instr.opcode, instr.dest, srcs,
                     program.slot_in_octaword(index), index + 1,
                     pc + INSTRUCTION_BYTES)
        return self._BUILDERS[instr.opcode.klass](self, instr, site)

    def _int_file(self, dest: Optional[str]) -> dict:
        """Where a step writes integer register ``dest``: a write to the
        zero register goes to a dict that nothing reads."""
        return {} if dest == ZERO_INT else self.state.iregs

    def _fp_file(self, dest: Optional[str]) -> dict:
        return {} if dest == ZERO_FP else self.state.fregs

    def _target(self, index: int) -> Tuple[int, int]:
        """Index and pc of the direct target of the instruction at
        ``index``."""
        target = self.program.target_index(index)
        return target, self.program.pc_of(target)

    # ------------------------------------------------------------------

    def _int_operate(self, instr: Instruction, site: _Site) -> Step:
        index, pc, opcode, dest, srcs, slot, next_index, next_pc = site
        if instr.imm is not None and len(instr.srcs) > 1:
            # Alpha operate instructions take rb XOR a literal, never
            # both; silently dropping one would mis-time and
            # mis-compute, so fail loudly.
            error = ValueError(
                f"{instr}: integer operate takes two register "
                "sources or one source plus an immediate, not both"
            )

            def fail(seq: int) -> int:
                raise error

            return fail
        operands = [_int_operand(name) for name in instr.srcs]
        if instr.imm is not None:
            operands.append((_CONSTANT, instr.imm & _MASK64))
        operands += [(_CONSTANT, 0)] * 2
        (ra, a), (rb, b) = operands[:2]
        get = self.state.iregs.get
        out = self._int_file(dest)
        append = self.append

        if opcode.reads_dest:
            # A conditional move that does not move writes the old
            # value back.
            moves = operator.not_ if opcode is Opcode.CMOVEQ else operator.truth

            def step(seq: int) -> int:
                out[dest] = get(rb, b) if moves(get(ra, a)) else get(dest, 0)
                append(DynInstr(seq, index, pc, opcode, dest, srcs, False,
                                next_pc, None, 8, slot))
                return next_index

            return step

        op = _INT_OPS[opcode]

        def step(seq: int) -> int:
            out[dest] = op(get(ra, a), get(rb, b)) & _MASK64
            append(DynInstr(seq, index, pc, opcode, dest, srcs, False,
                            next_pc, None, 8, slot))
            return next_index

        return step

    def _fp_operate(self, instr: Instruction, site: _Site) -> Step:
        index, pc, opcode, dest, srcs, slot, next_index, next_pc = site
        operands = [_fp_operand(name) for name in instr.srcs[:2]]
        operands += [(_CONSTANT, 0.0)] * 2
        (ra, a), (rb, b) = operands[:2]
        op = _FP_OPS[opcode]
        get = self.state.fregs.get
        out = self._fp_file(dest)
        append = self.append

        def step(seq: int) -> int:
            out[dest] = op(get(ra, a), get(rb, b))
            append(DynInstr(seq, index, pc, opcode, dest, srcs, False,
                            next_pc, None, 8, slot))
            return next_index

        return step

    def _load(self, instr: Instruction, site: _Site) -> Step:
        index, pc, opcode, dest, srcs, slot, next_index, next_pc = site
        base, base_value = _int_operand(instr.base)
        disp = instr.disp
        get = self.state.iregs.get
        memory = self.state.memory
        size = 1 if opcode is Opcode.LDBU else 8
        if opcode is Opcode.LDT:
            out = self._fp_file(dest)
            load_word = memory.load_word

            def read(address: int) -> float:
                return _bits_to_float(load_word(address))
        else:
            out = self._int_file(dest)
            read = memory.load_byte if size == 1 else memory.load_word
        append = self.append

        def step(seq: int) -> int:
            eaddr = (get(base, base_value) + disp) & _MASK64
            out[dest] = read(eaddr)
            append(DynInstr(seq, index, pc, opcode, dest, srcs, False,
                            next_pc, eaddr, size, slot))
            return next_index

        return step

    def _store(self, instr: Instruction, site: _Site) -> Step:
        index, pc, opcode, dest, srcs, slot, next_index, next_pc = site
        base, base_value = _int_operand(instr.base)
        disp = instr.disp
        get = self.state.iregs.get
        memory = self.state.memory
        size = 1 if opcode is Opcode.STB else 8
        if opcode is Opcode.STT:
            src, src_value = _fp_operand(instr.srcs[0])
            get_src = self.state.fregs.get
            store_word = memory.store_word

            def write(address: int, value: float) -> None:
                store_word(address, _float_to_bits(value))
        else:
            src, src_value = _int_operand(instr.srcs[0])
            get_src = get
            write = memory.store_byte if size == 1 else memory.store_word
        append = self.append

        def step(seq: int) -> int:
            eaddr = (get(base, base_value) + disp) & _MASK64
            write(eaddr, get_src(src, src_value))
            append(DynInstr(seq, index, pc, opcode, dest, srcs, False,
                            next_pc, eaddr, size, slot))
            return next_index

        return step

    def _cond_branch(self, instr: Instruction, site: _Site) -> Step:
        index, pc, opcode, dest, srcs, slot, next_index, next_pc = site
        src, value = _int_operand(instr.srcs[0])
        taken_index, taken_pc = self._target(index)
        test = _BRANCH_TESTS[opcode]
        get = self.state.iregs.get
        append = self.append

        def step(seq: int) -> int:
            if test(get(src, value) ^ _SIGN64, _SIGN64):
                append(DynInstr(seq, index, pc, opcode, dest, srcs, True,
                                taken_pc, None, 8, slot))
                return taken_index
            append(DynInstr(seq, index, pc, opcode, dest, srcs, False,
                            next_pc, None, 8, slot))
            return next_index

        return step

    def _branch(self, instr: Instruction, site: _Site) -> Step:
        index, pc, opcode, dest, srcs, slot, _, _ = site
        taken_index, taken_pc = self._target(index)
        append = self.append

        def step(seq: int) -> int:
            append(DynInstr(seq, index, pc, opcode, dest, srcs, True,
                            taken_pc, None, 8, slot))
            return taken_index

        return step

    def _call(self, instr: Instruction, site: _Site) -> Step:
        if instr.target is None:
            return self._jump(instr, site)
        index, pc, opcode, dest, srcs, slot, _, next_pc = site
        link = instr.dest or RA
        out = self._int_file(link)
        taken_index, taken_pc = self._target(index)
        append = self.append

        def step(seq: int) -> int:
            out[link] = next_pc
            append(DynInstr(seq, index, pc, opcode, dest, srcs, True,
                            taken_pc, None, 8, slot))
            return taken_index

        return step

    def _jump(self, instr: Instruction, site: _Site) -> Step:
        """``jmp``, ``ret`` and ``jsr``: to the pc a register holds."""
        index, pc, opcode, dest, srcs, slot, _, next_pc = site
        src, value = _int_operand(instr.srcs[0])
        get = self.state.iregs.get
        index_of = self.program.index_of
        append = self.append

        if opcode.klass is InstrClass.CALL:
            link = instr.dest or RA
            out = self._int_file(link)

            def step(seq: int) -> int:
                # The link is written before the source is read.
                out[link] = next_pc
                target_pc = get(src, value)
                target = index_of(target_pc)
                append(DynInstr(seq, index, pc, opcode, dest, srcs, True,
                                target_pc, None, 8, slot))
                return target

            return step

        def step(seq: int) -> int:
            target_pc = get(src, value)
            target = index_of(target_pc)
            append(DynInstr(seq, index, pc, opcode, dest, srcs, True,
                            target_pc, None, 8, slot))
            return target

        return step

    def _nop(self, instr: Instruction, site: _Site) -> Step:
        index, pc, opcode, dest, srcs, slot, next_index, next_pc = site
        append = self.append

        def step(seq: int) -> int:
            append(DynInstr(seq, index, pc, opcode, dest, srcs, False,
                            next_pc, None, 8, slot))
            return next_index

        return step

    def _halt(self, instr: Instruction, site: _Site) -> Step:
        index, pc, opcode, _, _, slot, _, next_pc = site
        append = self.append

        def step(seq: int) -> int:
            append(DynInstr(seq, index, pc, opcode, None, (), False,
                            next_pc, None, 8, slot))
            raise _Halt

        return step

    _BUILDERS = {
        InstrClass.INT_ALU: _int_operate,
        InstrClass.INT_MUL: _int_operate,
        InstrClass.INT_LOAD: _load,
        InstrClass.INT_STORE: _store,
        InstrClass.FP_ADD: _fp_operate,
        InstrClass.FP_MUL: _fp_operate,
        InstrClass.FP_DIV_S: _fp_operate,
        InstrClass.FP_DIV_D: _fp_operate,
        InstrClass.FP_SQRT_S: _fp_operate,
        InstrClass.FP_SQRT_D: _fp_operate,
        InstrClass.FP_LOAD: _load,
        InstrClass.FP_STORE: _store,
        InstrClass.COND_BRANCH: _cond_branch,
        InstrClass.UNCOND_BRANCH: _branch,
        InstrClass.CALL: _call,
        InstrClass.RETURN: _jump,
        InstrClass.JUMP: _jump,
        InstrClass.NOP: _nop,
        InstrClass.HALT: _halt,
    }


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & _MASK64))[0]


def _float_to_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def run_program(program: Program, *, limit: int = FunctionalMachine.DEFAULT_LIMIT):
    """Convenience: execute ``program`` and return its dynamic trace."""
    return FunctionalMachine(program, limit=limit).run()
