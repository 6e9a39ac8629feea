"""The compiled functional machine equals the interpreter it replaced.

:class:`~repro.functional.machine.FunctionalMachine` compiles each
static instruction into a step closure; ``reference_machine.py`` keeps
the interpreter it replaced as the oracle.  On generated programs that
draw from every :class:`~repro.isa.instructions.Opcode` and on the
shipped ones, both must produce the same records (every
``DynInstr.__slots__`` value), the same ``instructions_retired``, the
same registers and memory (compared as checkpoint snapshots, so the
set of written registers counts too) and, when the program fails, the
same exception type and message after the same partial trace.

The generated programs extend ``small_programs`` from
``tests/core/test_engine_properties.py`` with what an interpreter and a
compiler are most likely to disagree on: the zero registers as source
and destination, operates with no register source, shift counts of 64
or more, unaligned byte accesses, FP division by zero and square roots
of negative numbers, ``bsr``/``jsr``/``ret``/``jmp`` through a data
table, a jump outside the program, an operate with two register
sources and an immediate, and a dynamic instruction limit the program
can exceed.  ``REPRO_FULL=1`` deepens the example budget and checks
all 44 built-in workloads instead of LOCK-ALL and ``--quick``'s seven
micro kernels.
"""

import json
import os
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.functional.checkpoint import snapshot
from repro.functional.machine import (
    ExecutionLimitExceeded,
    FunctionalMachine,
)
from repro.functional.trace import DynInstr
from repro.isa.instructions import InstrClass, Opcode
from repro.isa.program import Program, ProgramBuilder
from repro.validation.cli import _QUICK_MICRO
from repro.workloads.suite import WorkloadSet
from tests.functional.reference_machine import ReferenceMachine
from tests.test_canonical_lock import all_classes_kernel

pytestmark = pytest.mark.fuzz

FULL = bool(os.environ.get("REPRO_FULL"))
EXAMPLES = 3000 if FULL else 300

#: Register pools the generated instructions draw from.  The loop
#: counter (r10), the data base (r9), the jump-table registers (r13,
#: r14) and the link (r26) stay out of them, so most programs run to
#: their HALT.  r6 and f4 start unwritten.
_INT = ("r1", "r2", "r3", "r4", "r6", "r31")
_FP = ("f1", "f2", "f3", "f4", "f31")
_BASES = ("r9", "r9", "r31", "r1")

_IMMEDIATES = st.one_of(
    st.integers(-300, 300),
    st.sampled_from([63, 64, 65, 127, 200, 2**63, 2**64 - 8, -2**63,
                     6364136223846793005]),
    st.integers(0, 2**64 - 1),
)


def _float_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


#: Data words: raw 64-bit patterns and doubles an FP load turns into
#: negative, zero, huge and non-finite operands.
_WORDS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([_float_bits(v) for v in (
        -2.5, 3.0, 0.0, -0.0, 1e308, -1e-310, float("inf"), float("nan"),
    )]),
)

#: Operand shapes of an operate: r = a register source, i = an
#: immediate.  "rri" cannot execute and ends the program with the
#: machine's ValueError, so it is drawn rarely.
_SHAPES = ("rr",) * 12 + ("ri",) * 12 + ("i", "r", "") * 3 + ("rri",)


def _emit(draw, b: ProgramBuilder, opcode: Opcode, tables: list) -> None:
    """Append one instruction of ``opcode`` (with the labels and table
    loads a control instruction needs)."""
    klass = opcode.klass
    if klass in (InstrClass.INT_ALU, InstrClass.INT_MUL):
        shape = draw(st.sampled_from(_SHAPES))
        srcs = tuple(draw(st.sampled_from(_INT)) for c in shape if c == "r")
        imm = draw(_IMMEDIATES) if "i" in shape else None
        b.emit(opcode, dest=draw(st.sampled_from(_INT)), srcs=srcs, imm=imm)
    elif klass.is_fp_operate:
        srcs = tuple(draw(st.lists(st.sampled_from(_FP), max_size=2)))
        b.emit(opcode, dest=draw(st.sampled_from(_FP)), srcs=srcs)
    elif klass.is_memory:
        regs = _FP if klass.is_fp else _INT
        reg = draw(st.sampled_from(regs))
        base = draw(st.sampled_from(_BASES))
        disp = draw(st.integers(-20, 80))
        if klass.is_load:
            b.emit(opcode, dest=reg, base=base, disp=disp)
        else:
            b.emit(opcode, srcs=(reg,), base=base, disp=disp)
    elif klass is InstrClass.COND_BRANCH:
        skip = b.fresh_label()
        b.branch(opcode, draw(st.sampled_from(_INT)), skip)
        b.emit(Opcode.ADDQ, dest="r4", srcs=("r4",), imm=1)
        b.label(skip)
    elif klass is InstrClass.UNCOND_BRANCH:
        skip = b.fresh_label()
        b.jump(skip)
        b.emit(Opcode.ADDQ, dest="r4", srcs=("r4",), imm=3)
        b.label(skip)
    elif opcode is Opcode.BSR:
        b.emit(opcode, dest=draw(st.sampled_from(["r26", "r26", None])),
               target="sub")
    elif opcode is Opcode.JSR:
        # Through a table entry holding the subroutine's pc; through
        # r26 itself, the link is written before the jump reads it.
        _load_table_entry(b, tables, "sub")
        b.emit(opcode, dest="r26",
               srcs=(draw(st.sampled_from(["r14", "r14", "r26"])),))
    elif opcode is Opcode.JMP:
        join = b.fresh_label()
        # A bad entry (misaligned, or outside the program) makes the
        # jump fail the way Program.index_of says.
        _load_table_entry(b, tables, draw(st.sampled_from(
            [join] * 4 + ["misaligned", "outside"]
        )))
        b.jmp_indirect("r14")
        b.emit(Opcode.ADDQ, dest="r4", srcs=("r4",), imm=5)
        b.label(join)
    elif opcode is Opcode.RET:
        # Mostly to a table entry's label; otherwise to the last link,
        # or to pc 0 (outside the program) before any call.
        join = b.fresh_label()
        if draw(st.integers(0, 3)):
            _load_table_entry(b, tables, join)
            b.emit(Opcode.OR, dest="r26", srcs=("r14", "r31"))
        b.ret()
        b.emit(Opcode.ADDQ, dest="r4", srcs=("r4",), imm=7)
        b.label(join)
    else:  # UNOP, HALT
        b.emit(opcode)


def _load_table_entry(b: ProgramBuilder, tables: list, target: str) -> None:
    slot = b.alloc_words([0])
    tables.append((slot, target))
    b.load_imm("r13", slot)
    b.emit(Opcode.LDQ, dest="r14", base="r13", disp=0)


@st.composite
def programs(draw):
    """A loop over instructions drawn from every opcode, a subroutine
    after the HALT, and jump tables patched once the layout is known."""
    b = ProgramBuilder("fuzz")
    data = b.alloc_words(draw(st.lists(_WORDS, min_size=12, max_size=12)))
    tables: list = []
    b.load_imm("r9", data)
    b.load_imm("r10", 0)
    for reg, disp in (("r1", 0), ("r2", 8), ("r3", 16)):
        b.emit(Opcode.LDQ, dest=reg, base="r9", disp=disp)
    for reg, disp in (("f1", 24), ("f2", 32), ("f3", 40)):
        b.emit(Opcode.LDT, dest=reg, base="r9", disp=disp)
    b.label("loop")
    for opcode in draw(st.lists(st.sampled_from(list(Opcode)),
                                min_size=1, max_size=24)):
        _emit(draw, b, opcode, tables)
    b.emit(Opcode.ADDQ, dest="r10", srcs=("r10",), imm=1)
    b.emit(Opcode.CMPLT, dest="r12", srcs=("r10",),
           imm=draw(st.integers(1, 8)))
    b.branch(Opcode.BNE, "r12", "loop")
    b.halt()
    b.label("sub")
    b.emit(Opcode.ADDQ, dest="r5", srcs=("r5", "r1"))
    b.ret()
    program = b.build()
    for slot, target in tables:
        if target == "misaligned":
            program.data[slot] = program.pc_of(0) + 2
        elif target == "outside":
            program.data[slot] = program.pc_of(len(program))
        else:
            program.data[slot] = program.pc_of(program.labels[target])
    return program


def _run(machine):
    """(exception type, message) of the run, or None if it halted."""
    try:
        machine.run()
    except Exception as error:  # every failure must match the oracle's
        return type(error), str(error)
    return None


def assert_equivalent(program: Program, limit: int) -> None:
    compiled = FunctionalMachine(program, limit=limit)
    reference = ReferenceMachine(program, limit=limit)
    assert _run(compiled) == _run(reference)
    assert len(compiled.trace) == len(reference.trace)
    for got, want in zip(compiled.trace, reference.trace):
        for name in DynInstr.__slots__:
            assert getattr(got, name) == getattr(want, name), (
                f"record {want.seq} ({want!r}) differs in {name}"
            )
    assert compiled.instructions_retired == reference.instructions_retired
    assert json.dumps(snapshot(compiled.state)) == json.dumps(
        snapshot(reference.state)
    )


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.sampled_from([2_000] * 7 + [40]))
def test_generated_programs_match_the_interpreter(program, limit):
    assert_equivalent(program, limit)


def _shipped():
    workloads = WorkloadSet()
    workloads.register(all_classes_kernel())
    names = workloads.names() if FULL else ["LOCK-ALL", *_QUICK_MICRO]
    return workloads, names


_WORKLOADS, _NAMES = _shipped()


@pytest.mark.parametrize("name", _NAMES)
def test_shipped_programs_match_the_interpreter(name):
    assert_equivalent(_WORKLOADS.program(name), FunctionalMachine.DEFAULT_LIMIT)


def _edge_case(kind: str) -> Program:
    """A small program for one rule that compiling an interpreter can
    easily break, or one way a program fails."""
    b = ProgramBuilder(kind)
    tables: list = []
    b.load_imm("r1", 5)
    if kind == "cmov-that-does-not-move":
        # Writes the old (unwritten, so 0) destination back: r6 joins
        # the written registers.
        b.emit(Opcode.CMOVEQ, dest="r6", srcs=("r1", "r1"))
    elif kind == "operate-without-register-source":
        b.emit(Opcode.SUBQ, dest="r2", imm=5)  # op(5, 0), not op(0, 5)
    elif kind == "jsr-through-its-own-link":
        # The link is written before the source is read: falls through.
        b.emit(Opcode.JSR, dest="r26", srcs=("r26",))
    elif kind == "two-sources-and-immediate":
        b.emit(Opcode.ADDQ, dest="r2", srcs=("r1", "r1"), imm=1)
    elif kind == "return-before-any-call":
        b.ret()
    else:
        _load_table_entry(b, tables, kind)
        b.jmp_indirect("r14")
    b.halt()
    program = b.build()
    for slot, _ in tables:
        program.data[slot] = {
            "misaligned": program.pc_of(0) + 2,
            "outside": program.pc_of(len(program)),
        }[kind]
    return program


@pytest.mark.parametrize("kind", [
    "cmov-that-does-not-move", "operate-without-register-source",
    "jsr-through-its-own-link", "two-sources-and-immediate",
    "return-before-any-call", "misaligned", "outside",
])
def test_edge_cases_match_the_interpreter(kind):
    assert_equivalent(_edge_case(kind), FunctionalMachine.DEFAULT_LIMIT)


def test_limit_is_hit_at_the_same_record():
    """HALT counts: a limit one short of the program's length fails."""
    program = all_classes_kernel(iterations=1)
    length = len(ReferenceMachine(program).run())
    with pytest.raises(ExecutionLimitExceeded):
        FunctionalMachine(program, limit=length - 1).run()
    for limit in (0, 1, 57, length - 1, length):
        assert_equivalent(program, limit)
