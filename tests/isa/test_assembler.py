"""Tests for the text assembler."""

import pytest

from repro.isa.assembler import AssemblerError, assemble
from repro.isa.instructions import Opcode


def test_simple_program():
    program = assemble("""
        lda r1, #5
        addq r2, r1, r1
        halt
    """)
    assert [i.opcode for i in program.instructions] == [
        Opcode.LDA, Opcode.ADDQ, Opcode.HALT
    ]
    assert program.instructions[0].imm == 5


def test_labels_and_branches():
    program = assemble("""
    top:
        subq r1, r1, #1
        bne r1, top
        halt
    """)
    assert program.labels["top"] == 0
    assert program.target_index(1) == 0


def test_label_on_same_line():
    program = assemble("here: halt")
    assert program.labels["here"] == 0


def test_comments_ignored():
    program = assemble("""
        ; full-line comment
        lda r1, #1   ; trailing comment
        halt         // another style
    """)
    assert len(program.instructions) == 2


def test_memory_operands():
    program = assemble("""
        ldq r1, 8(r2)
        stq r1, -16(r3)
        halt
    """)
    load, store, _ = program.instructions
    assert load.base == "r2" and load.disp == 8
    assert store.base == "r3" and store.disp == -16
    assert store.srcs == ("r1",)


def test_hex_immediates():
    program = assemble("lda r1, #0x10\nhalt")
    assert program.instructions[0].imm == 16


def test_indirect_jump_and_ret():
    program = assemble("""
        jmp (r5)
        ret
    """)
    assert program.instructions[0].opcode is Opcode.JMP
    assert program.instructions[0].srcs == ("r5",)
    assert program.instructions[1].opcode is Opcode.RET


def test_call_forms():
    program = assemble("""
        bsr fn
        jsr (r4)
    fn:
        ret
    """)
    assert program.instructions[0].target == "fn"
    assert program.instructions[1].srcs == ("r4",)


def test_align_directive():
    program = assemble("""
        lda r1, #0
        .align 0
        halt
    """)
    # Three unops pad index 1..3; halt lands at index 4.
    assert program.instructions[-1].opcode is Opcode.HALT
    assert len(program.instructions) == 5


def test_word_directive_and_symbol():
    program = assemble("""
        .word table 11, 22, 33
        lda r1, =table
        ldq r2, 0(r1)
        halt
    """)
    base = program.instructions[0].imm
    assert program.data[base] == 11
    assert program.data[base + 16] == 33


def test_space_directive():
    program = assemble("""
        .space buffer 128
        lda r1, =buffer
        halt
    """)
    assert program.instructions[0].imm is not None


def test_unknown_mnemonic_reports_line():
    with pytest.raises(AssemblerError, match="line 2"):
        assemble("lda r1, #1\nbogus r1, r2")


def test_bad_memory_operand():
    with pytest.raises(AssemblerError, match="bad memory operand"):
        assemble("ldq r1, 8[r2]")


def test_undefined_data_symbol():
    with pytest.raises(ValueError, match="undefined data symbol"):
        assemble("lda r1, =missing\nhalt")


def test_bad_directive():
    with pytest.raises(AssemblerError, match="unknown directive"):
        assemble(".bogus 3")


def test_immediate_only_form_reads_zero_register():
    program = assemble("lda r1, #7\nhalt")
    assert program.instructions[0].srcs == ("r31",)


@pytest.mark.parametrize("line", [
    "addq r3, r1, r2, #5",    # two register sources and an immediate
    "addq r3, r1, #5, #6",    # two immediates
    "lda r3, =table, #6",
    "addq r3, r1, r2, r4",    # three register sources
    "subq r3, #5, r1",        # an immediate before a register source
])
def test_operate_the_machine_cannot_honour_is_rejected(line):
    with pytest.raises(AssemblerError, match=r"line 3: bad operands"):
        assemble(f".word table 1\nlda r9, #1\n{line}\nhalt")
