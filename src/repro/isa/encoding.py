"""Binary instruction encoding (32-bit, Alpha-format-inspired).

The paper's sim-alpha reused SimpleScalar's "Alpha ISA definition
file" and loader; our equivalent is a compact binary format so
programs can be stored, hashed, and reloaded byte-exactly.  The layout
follows the Alpha's three main formats in spirit:

* operate:   ``op[31:26] ra[25:21] rb[20:16] lit-flag[15] func/lit``
* memory:    ``op[31:26] ra[25:21] rb[20:16] disp[15:0]``
* branch:    ``op[31:26] ra[25:21] disp[20:0]``

Large immediates (beyond the 13-bit literal field) spill into a
constant pool that trails the code in the image — the price of a
fixed-width encoding, handled transparently by encode/decode.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro.isa.instructions import Instruction, InstrClass, Opcode
from repro.isa.program import Program
from repro.isa.registers import ALL_REGS

__all__ = [
    "encode_instruction",
    "decode_instruction",
    "encode_program",
    "decode_program",
    "EncodingError",
]


class EncodingError(ValueError):
    """Raised when an instruction cannot be encoded or decoded."""


_OPCODE_NUMBERS: Dict[Opcode, int] = {
    op: index for index, op in enumerate(Opcode)
}
_NUMBER_OPCODES: Dict[int, Opcode] = {
    index: op for op, index in _OPCODE_NUMBERS.items()
}

_REG_NUMBERS: Dict[str, int] = {}
for _name in ALL_REGS:
    _REG_NUMBERS[_name] = int(_name[1:]) + (32 if _name[0] == "f" else 0)
_NUMBER_REGS = {number: name for name, number in _REG_NUMBERS.items()}

_LIT_BITS = 13
_LIT_MAX = (1 << (_LIT_BITS - 1)) - 1
_LIT_MIN = -(1 << (_LIT_BITS - 1))
_DISP_BITS = 16
_DISP_MAX = (1 << (_DISP_BITS - 1)) - 1
_DISP_MIN = -(1 << (_DISP_BITS - 1))
_BDISP_BITS = 21
_MASK64 = (1 << 64) - 1


def _reg_number(name: str | None) -> int:
    """The 5-bit field of register ``name``: its number within its own
    file (the opcode says which file)."""
    if name is None:
        return 31  # encodes as the zero register
    try:
        return _REG_NUMBERS[name] & 31
    except KeyError:
        raise EncodingError(f"not an encodable register: {name!r}") from None


def encode_instruction(
    instr: Instruction,
    target_index: int | None = None,
    *,
    pool: List[int] | None = None,
) -> int:
    """Encode one instruction to a 32-bit word.

    Control instructions need their resolved ``target_index``.
    Immediates outside the 13-bit literal range are appended to
    ``pool`` and referenced by index (bit 14 set).
    """
    op_number = _OPCODE_NUMBERS[instr.opcode]
    klass = instr.klass
    word = op_number << 26

    if klass.is_memory:
        if not _DISP_MIN <= instr.disp <= _DISP_MAX:
            raise EncodingError(
                f"displacement {instr.disp} exceeds {_DISP_BITS} bits"
            )
        ra = _reg_number(instr.dest if klass.is_load else instr.srcs[0])
        rb = _reg_number(instr.base)
        return word | (ra << 21) | (rb << 16) | (
            instr.disp & ((1 << _DISP_BITS) - 1)
        )

    if klass.is_control:
        if klass in (InstrClass.JUMP, InstrClass.RETURN) or (
            klass is InstrClass.CALL and instr.target is None
        ):
            ra = _reg_number(instr.dest)
            rb = _reg_number(instr.srcs[0] if instr.srcs else None)
            return word | (ra << 21) | (rb << 16)
        if target_index is None:
            raise EncodingError(
                f"{instr} needs a resolved target index to encode"
            )
        if target_index >= (1 << _BDISP_BITS):
            raise EncodingError("branch target index exceeds 21 bits")
        ra = _reg_number(
            instr.srcs[0] if instr.srcs else instr.dest
        )
        return word | (ra << 21) | target_index

    if klass in (InstrClass.NOP, InstrClass.HALT):
        return word

    # Operate format.
    ra = _reg_number(instr.dest)
    word |= ra << 21
    if instr.imm is not None:
        if len(instr.srcs) > 1:
            raise EncodingError(
                f"{instr}: operate takes registers or a literal, not both"
            )
        rb = _reg_number(instr.srcs[0] if instr.srcs else None)
        word |= rb << 16
        word |= 1 << 15  # literal flag
        if _LIT_MIN <= instr.imm <= _LIT_MAX:
            return word | (instr.imm & ((1 << _LIT_BITS) - 1))
        if pool is None:
            raise EncodingError(
                f"immediate {instr.imm} needs a constant pool"
            )
        # The machine uses an immediate as a 64-bit pattern; pool that
        # pattern, signed, so every immediate fits the pool's "<q".
        value = instr.imm & _MASK64
        pool.append(value - (1 << 64) if value >> 63 else value)
        index = len(pool) - 1
        if index >= (1 << (_LIT_BITS - 1)):
            raise EncodingError("constant pool overflow")
        return word | (1 << 14) | index
    rb = _reg_number(instr.srcs[0] if instr.srcs else None)
    rc = _reg_number(instr.srcs[1] if len(instr.srcs) > 1 else None)
    return word | (rb << 16) | (rc << 8)


def decode_instruction(
    word: int, *, pool: List[int] | None = None
) -> Tuple[Instruction, int | None]:
    """Decode a 32-bit word back to (Instruction, target_index|None)."""
    op_number = (word >> 26) & 63
    try:
        opcode = _NUMBER_OPCODES[op_number]
    except KeyError:
        raise EncodingError(f"unknown opcode number {op_number}") from None
    klass = opcode.klass

    ra_num = (word >> 21) & 31
    rb_num = (word >> 16) & 31

    if klass.is_memory:
        disp = word & 0xFFFF
        if disp >= 1 << 15:
            disp -= 1 << 16
        fp = klass.is_fp
        ra = _NUMBER_REGS[ra_num + (32 if fp else 0)]
        base = _NUMBER_REGS[rb_num]
        if klass.is_load:
            return Instruction(opcode, dest=ra, base=base, disp=disp), None
        return Instruction(opcode, srcs=(ra,), base=base, disp=disp), None

    if klass.is_control:
        if klass in (InstrClass.JUMP, InstrClass.RETURN):
            return Instruction(
                opcode,
                dest=None if klass is InstrClass.RETURN else None,
                srcs=(_NUMBER_REGS[rb_num],),
            ), None
        if klass is InstrClass.CALL and opcode is Opcode.JSR:
            return Instruction(
                opcode, dest=_NUMBER_REGS[ra_num],
                srcs=(_NUMBER_REGS[rb_num],),
            ), None
        target_index = word & ((1 << _BDISP_BITS) - 1)
        if klass is InstrClass.COND_BRANCH:
            return Instruction(
                opcode, srcs=(_NUMBER_REGS[ra_num],), target="?"
            ), target_index
        if klass is InstrClass.CALL:
            return Instruction(
                opcode, dest=_NUMBER_REGS[ra_num], target="?"
            ), target_index
        return Instruction(opcode, target="?"), target_index

    if klass in (InstrClass.NOP, InstrClass.HALT):
        return Instruction(opcode), None

    fp = klass.is_fp
    dest = _NUMBER_REGS[ra_num + (32 if fp else 0)]
    rb = _NUMBER_REGS[rb_num + (32 if fp else 0)]
    if word & (1 << 15):
        if word & (1 << 14):
            if pool is None:
                raise EncodingError("pooled literal without a pool")
            imm = pool[word & ((1 << (_LIT_BITS - 1)) - 1)]
        else:
            imm = word & ((1 << _LIT_BITS) - 1)
            if imm > _LIT_MAX:
                imm -= 1 << _LIT_BITS
        return Instruction(opcode, dest=dest, srcs=(rb,), imm=imm), None
    rc_num = (word >> 8) & 31
    rc = _NUMBER_REGS[rc_num + (32 if fp else 0)]
    if rc_num == 31 and not fp:
        return Instruction(opcode, dest=dest, srcs=(rb,)), None
    return Instruction(opcode, dest=dest, srcs=(rb, rc)), None


_MAGIC = b"RPRO"
_VERSION = 3


def encode_program(program: Program) -> bytes:
    """Serialise a program (code, labels for targets, data image)."""
    pool: List[int] = []
    words = []
    for index, instr in enumerate(program.instructions):
        target = None
        if instr.target is not None:
            target = program.target_index(index)
        words.append(encode_instruction(instr, target, pool=pool))

    out = bytearray()
    out += _MAGIC
    out += struct.pack(
        "<HIQII", _VERSION, program.entry, program.code_base,
        len(words), len(pool),
    )
    name_bytes = program.name.encode()
    out += struct.pack("<I", len(name_bytes)) + name_bytes
    for word in words:
        out += struct.pack("<I", word)
    for value in pool:
        out += struct.pack("<q", value)
    data_items = sorted(program.data.items())
    out += struct.pack("<I", len(data_items))
    for address, value in data_items:
        out += struct.pack("<QQ", address, value & ((1 << 64) - 1))
    return bytes(out)


def decode_program(blob: bytes) -> Program:
    """Reload a program serialised with :func:`encode_program`.

    Labels are regenerated as ``L<index>`` at every branch target.
    """
    if blob[:4] != _MAGIC:
        raise EncodingError("bad magic; not an encoded program")
    offset = 4
    version, entry, code_base, word_count, pool_count = struct.unpack_from(
        "<HIQII", blob, offset
    )
    if version != _VERSION:
        raise EncodingError(f"unsupported version {version}")
    offset += struct.calcsize("<HIQII")
    (name_length,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    name = blob[offset:offset + name_length].decode()
    offset += name_length
    words = list(struct.unpack_from(f"<{word_count}I", blob, offset))
    offset += 4 * word_count
    pool = list(struct.unpack_from(f"<{pool_count}q", blob, offset))
    offset += 8 * pool_count
    (data_count,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    data = {}
    for _ in range(data_count):
        address, value = struct.unpack_from("<QQ", blob, offset)
        offset += 16
        data[address] = value

    decoded: List[Tuple[Instruction, int | None]] = [
        decode_instruction(word, pool=pool) for word in words
    ]
    labels = {}
    for _, target in decoded:
        if target is not None and target not in labels.values():
            labels[f"L{target}"] = target
    label_at = {index: name_ for name_, index in labels.items()}

    instructions: List[Instruction] = []
    for instr, target in decoded:
        if target is not None:
            from dataclasses import replace as dc_replace

            instr = dc_replace(instr, target=label_at[target])
        instructions.append(instr)
    return Program(
        instructions=instructions,
        labels=labels,
        data=data,
        entry=entry,
        code_base=code_base,
        name=name,
    )
