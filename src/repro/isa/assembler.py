"""A small text assembler for the Alpha-like ISA.

The microbenchmark and workload builders normally construct programs
with :class:`repro.isa.program.ProgramBuilder`, but a text syntax is
convenient for examples, tests, and quick experiments::

    ; increment r1 one thousand times
        lda   r1, #0
        lda   r2, #1000
    loop:
        addq  r1, r1, #1
        cmplt r3, r1, r2
        bne   r3, loop
        halt

Syntax summary:

* ``label:`` defines a label (may share a line with an instruction).
* Comments start with ``;`` or ``#`` at a token boundary.
* Operand order is ``dest, src1, src2`` with immediates written
  ``#value`` (decimal or ``0x`` hex).
* Memory operands are written ``disp(base)``, e.g. ``ldq r1, 8(r2)``.
* Indirect jumps are written ``jmp (r5)``; ``ret`` takes no operands.
* Directives: ``.align N`` pads with unops to octaword slot ``N``;
  ``.word name v1, v2, ...`` allocates and initialises 64-bit data
  words whose base address can be loaded with ``lda rX, =name``.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import InstrClass, Opcode, opcode_for_mnemonic
from repro.isa.program import Program, ProgramBuilder
from repro.isa.registers import ALL_REGS

__all__ = ["assemble", "AssemblerError"]


class AssemblerError(ValueError):
    """Raised for malformed assembly input, with the offending line."""

    def __init__(self, lineno: int, line: str, message: str):
        super().__init__(f"line {lineno}: {message}: {line.strip()!r}")
        self.lineno = lineno
        self.line = line


_MEM_RE = re.compile(r"^(-?\d+|0x[0-9a-fA-F]+)?\(([rf]\d+)\)$")
_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")


def _parse_int(text: str) -> int:
    return int(text, 0)


def _strip_comment(line: str) -> str:
    for marker in (";", "//"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def assemble(source: str, *, name: str = "asm") -> Program:
    """Assemble ``source`` text into a linked :class:`Program`."""
    builder = ProgramBuilder(name)
    symbol_uses: List[Tuple[int, str]] = []  # (instruction index, data symbol)
    data_symbols: Dict[str, int] = {}

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        # Peel off any leading labels.
        while True:
            match = _LABEL_RE.match(line)
            if not match:
                break
            builder.label(match.group(1))
            line = line[match.end():].strip()
        if not line:
            continue
        if line.startswith("."):
            _directive(builder, data_symbols, lineno, line)
            continue
        _instruction(builder, symbol_uses, lineno, line)

    program = builder.build()
    _patch_symbols(program, data_symbols, symbol_uses)
    return program


def _directive(
    builder: ProgramBuilder,
    data_symbols: Dict[str, int],
    lineno: int,
    line: str,
) -> None:
    parts = line.split(None, 2)
    directive = parts[0]
    if directive == ".align":
        if len(parts) < 2:
            raise AssemblerError(lineno, line, ".align needs a slot number")
        builder.align_octaword(offset=_parse_int(parts[1]))
    elif directive == ".word":
        if len(parts) < 3:
            raise AssemblerError(lineno, line, ".word needs a name and values")
        symbol = parts[1]
        values = [_parse_int(v.strip()) for v in parts[2].split(",")]
        data_symbols[symbol] = builder.alloc_words(values)
    elif directive == ".space":
        if len(parts) < 3:
            raise AssemblerError(lineno, line, ".space needs a name and size")
        symbol = parts[1]
        data_symbols[symbol] = builder.alloc(_parse_int(parts[2]))
    else:
        raise AssemblerError(lineno, line, f"unknown directive {directive}")


def _instruction(
    builder: ProgramBuilder,
    symbol_uses: List[Tuple[int, str]],
    lineno: int,
    line: str,
) -> None:
    parts = line.split(None, 1)
    mnemonic = parts[0]
    try:
        opcode = opcode_for_mnemonic(mnemonic)
    except KeyError as exc:
        raise AssemblerError(lineno, line, str(exc)) from None
    operands = (
        [tok.strip() for tok in parts[1].split(",")] if len(parts) > 1 else []
    )

    klass = opcode.klass
    try:
        if klass in (InstrClass.NOP, InstrClass.HALT):
            builder.emit(opcode)
        elif klass is InstrClass.RETURN:
            builder.ret()
        elif klass is InstrClass.JUMP:
            reg = operands[0].strip("()")
            builder.emit(opcode, srcs=(reg,))
        elif klass is InstrClass.CALL:
            if operands[0].startswith("("):
                builder.emit(opcode, dest="r26", srcs=(operands[0].strip("()"),))
            else:
                builder.emit(opcode, dest="r26", target=operands[0])
        elif klass is InstrClass.UNCOND_BRANCH:
            builder.emit(opcode, target=operands[0])
        elif klass is InstrClass.COND_BRANCH:
            builder.emit(opcode, srcs=(operands[0],), target=operands[1])
        elif klass.is_load:
            dest, mem = operands
            disp, base = _parse_mem(lineno, line, mem)
            builder.emit(opcode, dest=dest, base=base, disp=disp)
        elif klass.is_store:
            src, mem = operands
            disp, base = _parse_mem(lineno, line, mem)
            builder.emit(opcode, srcs=(src,), base=base, disp=disp)
        else:
            _alu(builder, symbol_uses, opcode, operands)
    except (IndexError, ValueError) as exc:
        if isinstance(exc, AssemblerError):
            raise
        raise AssemblerError(lineno, line, f"bad operands ({exc})") from None


def _parse_mem(lineno: int, line: str, text: str) -> Tuple[int, str]:
    match = _MEM_RE.match(text)
    if not match:
        raise AssemblerError(lineno, line, f"bad memory operand {text!r}")
    disp = _parse_int(match.group(1)) if match.group(1) else 0
    return disp, match.group(2)


def _alu(
    builder: ProgramBuilder,
    symbol_uses: List[Tuple[int, str]],
    opcode: Opcode,
    operands: List[str],
) -> None:
    dest = operands[0]
    srcs: List[str] = []
    imm: Optional[int] = None
    symbol: Optional[str] = None
    for operand in operands[1:]:
        if operand.startswith(("#", "=")) and imm is not None:
            raise ValueError("an operate takes at most one immediate")
        if operand.startswith("#"):
            imm = _parse_int(operand[1:])
        elif operand.startswith("="):
            symbol = operand[1:]
            imm = 0  # patched after data layout is known
        elif operand in ALL_REGS:
            srcs.append(operand)
        else:
            raise ValueError(f"unknown operand {operand!r}")
    if len(srcs) + (imm is not None) > 2:
        # The machine and the encoding honour rb XOR a literal.
        raise ValueError(
            "an operate takes two register sources or one source plus "
            "an immediate"
        )
    if not srcs:
        srcs = ["r31"]  # immediate-only forms read the zero register
    index = builder.emit(opcode, dest=dest, srcs=tuple(srcs), imm=imm)
    if symbol is not None:
        symbol_uses.append((index, symbol))


def _patch_symbols(
    program: Program,
    data_symbols: Dict[str, int],
    symbol_uses: List[Tuple[int, str]],
) -> None:
    from dataclasses import replace

    for index, symbol in symbol_uses:
        if symbol not in data_symbols:
            raise ValueError(f"undefined data symbol {symbol!r}")
        old = program.instructions[index]
        program.instructions[index] = replace(old, imm=data_symbols[symbol])
