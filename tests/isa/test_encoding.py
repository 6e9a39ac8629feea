"""Round-trip tests for the binary instruction encoding."""

import pytest

from repro.functional.machine import FunctionalMachine, run_program
from repro.isa.assembler import assemble
from repro.isa.encoding import (
    EncodingError,
    decode_instruction,
    decode_program,
    encode_instruction,
    encode_program,
)
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.workloads.kernels import bubble_sort, checksum
from repro.workloads.micro import control_switch, execute_dependent


def _roundtrip(instr, target=None, pool=None):
    pool = pool if pool is not None else []
    word = encode_instruction(instr, target, pool=pool)
    assert 0 <= word < (1 << 32)
    decoded, decoded_target = decode_instruction(word, pool=pool)
    return decoded, decoded_target


class TestInstructionRoundtrip:
    def test_operate_two_regs(self):
        decoded, _ = _roundtrip(
            Instruction(Opcode.ADDQ, dest="r1", srcs=("r2", "r3"))
        )
        assert decoded.opcode is Opcode.ADDQ
        assert decoded.dest == "r1"
        assert decoded.srcs == ("r2", "r3")

    def test_operate_small_literal(self):
        decoded, _ = _roundtrip(
            Instruction(Opcode.SUBQ, dest="r4", srcs=("r5",), imm=100)
        )
        assert decoded.imm == 100

    def test_operate_negative_literal(self):
        decoded, _ = _roundtrip(
            Instruction(Opcode.LDA, dest="r30", srcs=("r30",), imm=-16)
        )
        assert decoded.imm == -16

    def test_large_literal_uses_pool(self):
        # An immediate in [2^63, 2^64) is pooled as its signed pattern.
        for imm, pooled in ((0x10000000, 0x10000000), (2**64 - 8, -8)):
            instr = Instruction(Opcode.LDA, dest="r9", srcs=("r31",),
                                imm=imm)
            pool = []
            decoded, _ = _roundtrip(instr, pool=pool)
            assert pool == [pooled]
            image = encode_program(
                Program([instr, Instruction(Opcode.HALT)])
            )
            # The machine masks an immediate to 64 bits, so the pattern
            # is what must survive.
            for got in (decoded, decode_program(image).instructions[0]):
                assert got.imm & (2**64 - 1) == imm

    def test_fp_operate(self):
        for opcode in (op for op in Opcode if op.klass.is_fp_operate):
            decoded, _ = _roundtrip(
                Instruction(opcode, dest="f1", srcs=("f2", "f3"))
            )
            assert decoded.opcode is opcode
            assert decoded.dest == "f1"
            assert decoded.srcs == ("f2", "f3")

    def test_load_store(self):
        load, _ = _roundtrip(
            Instruction(Opcode.LDQ, dest="r1", base="r2", disp=-8)
        )
        assert load.dest == "r1" and load.base == "r2" and load.disp == -8
        store, _ = _roundtrip(
            Instruction(Opcode.STQ, srcs=("r3",), base="r4", disp=24)
        )
        assert store.srcs == ("r3",) and store.disp == 24

    def test_fp_load(self):
        for instr in (
            Instruction(Opcode.LDT, dest="f7", base="r2", disp=0),
            Instruction(Opcode.STT, srcs=("f6",), base="r2", disp=8),
        ):
            decoded, _ = _roundtrip(instr)
            assert decoded == instr

    def test_branch_carries_target(self):
        decoded, target = _roundtrip(
            Instruction(Opcode.BNE, srcs=("r5",), target="loop"),
            target=42,
        )
        assert decoded.opcode is Opcode.BNE
        assert decoded.srcs == ("r5",)
        assert target == 42

    def test_indirect_jump(self):
        decoded, target = _roundtrip(
            Instruction(Opcode.JMP, srcs=("r7",))
        )
        assert decoded.srcs == ("r7",)
        assert target is None

    def test_ret(self):
        decoded, _ = _roundtrip(Instruction(Opcode.RET, srcs=("r26",)))
        assert decoded.opcode is Opcode.RET

    def test_nop_and_halt(self):
        assert _roundtrip(Instruction(Opcode.UNOP))[0].opcode is Opcode.UNOP
        assert _roundtrip(Instruction(Opcode.HALT))[0].opcode is Opcode.HALT

    def test_branch_without_target_rejected(self):
        with pytest.raises(EncodingError, match="target"):
            encode_instruction(
                Instruction(Opcode.BR, target="x"), None, pool=[]
            )

    def test_oversized_displacement_rejected(self):
        with pytest.raises(EncodingError, match="displacement"):
            encode_instruction(
                Instruction(Opcode.LDQ, dest="r1", base="r2",
                            disp=1 << 20),
                pool=[],
            )

    def test_unknown_opcode_number_rejected(self):
        with pytest.raises(EncodingError, match="unknown opcode"):
            decode_instruction(63 << 26)


class TestProgramRoundtrip:
    @pytest.mark.parametrize("builder", [
        lambda: assemble("lda r1, #7\naddq r2, r1, r1\nhalt"),
        lambda: control_switch(2, iterations=40),
        lambda: execute_dependent(3, iterations=10),
        bubble_sort,
        lambda: checksum(words=64),
    ])
    def test_identical_execution(self, builder):
        """The reloaded program produces a byte-identical trace."""
        original = builder()
        blob = encode_program(original)
        reloaded = decode_program(blob)
        assert reloaded.name == original.name
        assert len(reloaded.instructions) == len(original.instructions)
        trace_a = run_program(original)
        trace_b = run_program(reloaded)
        assert len(trace_a) == len(trace_b)
        for a, b in zip(trace_a, trace_b):
            assert a.pc == b.pc and a.opcode is b.opcode
            assert a.taken == b.taken and a.eaddr == b.eaddr

    def test_architectural_state_identical(self):
        program = bubble_sort(size=16)
        reloaded = decode_program(encode_program(program))
        machine_a = FunctionalMachine(program)
        machine_a.run()
        machine_b = FunctionalMachine(reloaded)
        machine_b.run()
        assert dict(machine_a.state.memory.words()) == dict(
            machine_b.state.memory.words()
        )

    def test_bad_magic_rejected(self):
        with pytest.raises(EncodingError, match="magic"):
            decode_program(b"NOPE" + b"\x00" * 64)
