"""Byte-identity lock over every simulator and every instruction class.

``test_golden.py`` pins nine cycle counts; this pins *every* simulated
number.  Each registered simulator runs a small grid whose kernels
together execute every :class:`~repro.isa.instructions.InstrClass`,
and the SHA-256 of the grid's ``to_json(canonical=True)`` must match
the digest recorded here: cycles, instruction counts, every event
counter, CPI stacks and provenance config hashes.  A performance
change to the timing core, the memory system, the predictors or the
functional machine must leave all of them untouched.

The digests were recorded before the timing core read precomputed
per-class facts, so they also lock that refactor.  Provenance carries
the package version, so a version bump moves them too.  If a
deliberate change moves them, regenerate with::

    PYTHONPATH=src python -m tests.test_canonical_lock
"""

import hashlib

import pytest

from repro.exec import spec
from repro.exec.spec import simulator_registry
from repro.isa.instructions import InstrClass, Opcode
from repro.isa.program import Program, ProgramBuilder
from repro.validation.harness import Harness
from repro.workloads.suite import WorkloadSet

#: Registered name (``native`` builds the DS-10L reference machine)
#: -> SHA-256 of its grid's canonical JSON.
LOCKED = {
    "sim-alpha": (
        "98e1abebe43e15921bf732a2adf35389"
        "7c7e642d0858e9ce0f747bbbf3220b9d"
    ),
    "sim-initial": (
        "7046a39ae6f5d8550c8f318fffbc552c"
        "3fa72c35535096b0e7dfd699485b5084"
    ),
    "sim-stripped": (
        "872e8c4fdb94a5231b076431b82e9ec8"
        "db494b101e21952d73441a5b7a6eee1d"
    ),
    "sim-outorder": (
        "8136bb8995aea16331b1b027f38f8213"
        "f2f25df93d63a1a0f2bebe3e3e416c9f"
    ),
    "8-way": (
        "df354f7d5c0c7df5d1c84baaa2e358da"
        "0b26a43a7555bbf94263f852425e8350"
    ),
    "native": (
        "3db744edb73ed285fdf09d4a1fdfb245"
        "42ff293420f8aa86ab47cdf816f255d4"
    ),
}

#: The custom kernel below plus two shipped microbenchmarks: one that
#: goes steady (the blockcache replays it) and one DRAM-bound.
KERNELS = ("LOCK-ALL", "E-DM1", "M-BANK")


def all_classes_kernel(iterations: int = 300) -> Program:
    """A loop that executes every instruction class.

    A 64-bit LCG drives random loads over 2 MB (L1/L2/TLB misses and
    DRAM traffic), a store then load to the same word (store-wait and
    replay traps), data-dependent branches, an indirect ``jmp`` through
    a two-entry table, ``bsr``/``jsr`` calls with returns, conditional
    moves and the whole FP pipe (add, multiply, both divides and square
    roots, FP loads and stores).
    """
    b = ProgramBuilder("LOCK-ALL")
    region = b.alloc(2 * 1024 * 1024, align=8192)
    table = b.alloc_words([0, 0])
    callee = b.alloc_words([0])
    slot = b.alloc_words([0])
    b.load_imm("r1", 0)
    b.load_imm("r2", iterations)
    b.load_imm("r3", 12345)
    b.load_imm("r9", region)
    b.load_imm("r10", table)
    b.load_imm("r22", callee)
    b.load_imm("r11", slot)
    b.load_imm("r12", 0)
    b.align_octaword()
    b.label("loop")
    # LCG step; r4 = a random 64-byte line inside the region.
    b.emit(Opcode.MULQ, dest="r3", srcs=("r3",), imm=6364136223846793005)
    b.emit(Opcode.ADDQ, dest="r3", srcs=("r3",), imm=1442695040888963407)
    b.emit(Opcode.SRL, dest="r4", srcs=("r3",), imm=33)
    b.emit(Opcode.AND, dest="r4", srcs=("r4",), imm=(1 << 15) - 1)
    b.emit(Opcode.SLL, dest="r4", srcs=("r4",), imm=6)
    b.emit(Opcode.ADDQ, dest="r6", srcs=("r4", "r9"))
    b.emit(Opcode.LDQ, dest="r5", base="r6", disp=0)
    b.emit(Opcode.ADDQ, dest="r5", srcs=("r5", "r1"))
    b.emit(Opcode.STQ, srcs=("r5",), base="r11", disp=0)
    b.emit(Opcode.LDQ, dest="r7", base="r11", disp=0)
    b.emit(Opcode.STB, srcs=("r7",), base="r6", disp=8)
    b.emit(Opcode.LDBU, dest="r8", base="r6", disp=8)
    b.emit(Opcode.CMPEQ, dest="r13", srcs=("r8",), imm=0)
    b.emit(Opcode.CMOVEQ, dest="r12", srcs=("r13", "r8"))
    b.emit(Opcode.CMOVNE, dest="r12", srcs=("r13", "r7"))
    # FP pipe.
    b.emit(Opcode.LDT, dest="f1", base="r6", disp=16)
    b.emit(Opcode.ADDT, dest="f2", srcs=("f1", "f2"))
    b.emit(Opcode.SUBT, dest="f3", srcs=("f2", "f1"))
    b.emit(Opcode.MULT, dest="f4", srcs=("f3", "f2"))
    b.emit(Opcode.DIVS, dest="f5", srcs=("f4", "f2"))
    b.emit(Opcode.DIVT, dest="f6", srcs=("f5", "f3"))
    b.emit(Opcode.SQRTS, dest="f7", srcs=("f6",))
    b.emit(Opcode.SQRTT, dest="f8", srcs=("f7",))
    b.emit(Opcode.STT, srcs=("f8",), base="r6", disp=24)
    # Data-dependent branch over a call.
    b.emit(Opcode.SRL, dest="r14", srcs=("r3",), imm=40)
    b.emit(Opcode.AND, dest="r14", srcs=("r14",), imm=1)
    b.branch(Opcode.BEQ, "r14", "skip_call")
    b.call("sub_a")
    b.label("skip_call")
    # Indirect call through a register, then an indirect jump.
    b.emit(Opcode.LDQ, dest="r27", base="r22", disp=0)
    b.emit(Opcode.JSR, dest="r26", srcs=("r27",))
    b.emit(Opcode.SLL, dest="r15", srcs=("r14",), imm=3)
    b.emit(Opcode.ADDQ, dest="r15", srcs=("r15", "r10"))
    b.emit(Opcode.LDQ, dest="r16", base="r15", disp=0)
    b.jmp_indirect("r16")
    b.align_octaword()
    b.label("case0")
    b.emit(Opcode.XOR, dest="r17", srcs=("r17", "r3"))
    b.jump("joined")
    b.align_octaword()
    b.label("case1")
    b.emit(Opcode.OR, dest="r17", srcs=("r17", "r4"))
    b.unop(2)
    b.label("joined")
    b.emit(Opcode.ADDQ, dest="r1", srcs=("r1",), imm=1)
    b.emit(Opcode.CMPLT, dest="r18", srcs=("r1", "r2"))
    b.branch(Opcode.BNE, "r18", "loop")
    b.halt()
    b.align_octaword()
    b.label("sub_a")
    b.emit(Opcode.SUBQ, dest="r19", srcs=("r19", "r1"))
    b.emit(Opcode.CMPLE, dest="r20", srcs=("r19", "r1"))
    b.ret()
    b.align_octaword()
    b.label("sub_b")
    b.emit(Opcode.LDA, dest="r21", srcs=("r21",), imm=3)
    b.emit(Opcode.CMPLT, dest="r20", srcs=("r21", "r19"))
    b.ret()
    program = b.build()
    program.data[table] = program.pc_of(program.labels["case0"])
    program.data[table + 8] = program.pc_of(program.labels["case1"])
    program.data[callee] = program.pc_of(program.labels["sub_b"])
    return program


def _workloads() -> WorkloadSet:
    workloads = WorkloadSet()
    workloads.register(all_classes_kernel())
    return workloads


def grid_digests(workloads: WorkloadSet) -> dict:
    """Registered simulator name -> SHA-256 of its canonical grid."""
    registry = simulator_registry()
    harness = Harness(workloads)
    return {
        name: hashlib.sha256(
            harness.run_grid([registry[name]], KERNELS)
            .to_json(canonical=True).encode()
        ).hexdigest()
        for name in LOCKED
    }


@pytest.fixture(scope="module")
def workloads():
    return _workloads()


def test_kernels_cover_every_instruction_class(workloads):
    seen = {
        dyn.klass for name in KERNELS for dyn in workloads.trace(name)
    }
    assert seen == set(InstrClass)


def test_every_builtin_simulator_is_locked():
    builtin = set(simulator_registry()) - set(spec._EXTRA_SIMULATORS)
    assert builtin == set(LOCKED)


def test_canonical_output_is_locked(workloads):
    assert grid_digests(workloads) == LOCKED


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for name, digest in grid_digests(_workloads()).items():
        print(f'    "{name}": "{digest}",')
