"""Instruction decoder: 32-bit word -> :class:`DecodedInstr` (or ``None``)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.isa import fields
from repro.isa.instructions import (
    DECODE_TABLE,
    FMT_AMO,
    FMT_B,
    FMT_CSR,
    FMT_CSR_IMM,
    FMT_I,
    FMT_I_SHIFT32,
    FMT_I_SHIFT64,
    FMT_J,
    FMT_LR,
    FMT_R,
    FMT_S,
    FMT_U,
    InstrSpec,
)


@dataclass(frozen=True)
class DecodedInstr:
    """A fully-decoded instruction.

    ``imm`` is the sign-extended semantic immediate (branch/jump offsets are
    byte offsets relative to the instruction's own PC).  Fields not present
    in the instruction's format decode to 0.
    """

    spec: InstrSpec
    raw: int
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    csr: int = 0
    zimm: int = 0
    shamt: int = 0
    aq: int = 0
    rl: int = 0

    @property
    def mnemonic(self) -> str:
        return self.spec.mnemonic

    def __str__(self) -> str:  # delegated to the disassembler for one format
        from repro.isa.disassembler import format_instr

        return format_instr(self)


def _decode_uncached(word: int) -> DecodedInstr | None:
    word &= 0xFFFF_FFFF
    candidates = DECODE_TABLE.get(word & 0x7F)
    if not candidates:
        return None
    for spec in candidates:
        if word & spec.mask != spec.match:
            continue
        fmt = spec.fmt
        rd = fields.bits(word, 11, 7)
        rs1 = fields.bits(word, 19, 15)
        rs2 = fields.bits(word, 24, 20)
        if fmt == FMT_R:
            return DecodedInstr(spec, word, rd=rd, rs1=rs1, rs2=rs2)
        if fmt == FMT_I:
            return DecodedInstr(spec, word, rd=rd, rs1=rs1, imm=fields.i_imm_decode(word))
        if fmt == FMT_I_SHIFT64:
            return DecodedInstr(spec, word, rd=rd, rs1=rs1, shamt=fields.bits(word, 25, 20))
        if fmt == FMT_I_SHIFT32:
            return DecodedInstr(spec, word, rd=rd, rs1=rs1, shamt=fields.bits(word, 24, 20))
        if fmt == FMT_S:
            return DecodedInstr(spec, word, rs1=rs1, rs2=rs2, imm=fields.s_imm_decode(word))
        if fmt == FMT_B:
            return DecodedInstr(spec, word, rs1=rs1, rs2=rs2, imm=fields.b_imm_decode(word))
        if fmt == FMT_U:
            return DecodedInstr(spec, word, rd=rd, imm=fields.u_imm_decode(word))
        if fmt == FMT_J:
            return DecodedInstr(spec, word, rd=rd, imm=fields.j_imm_decode(word))
        if fmt == FMT_CSR:
            return DecodedInstr(spec, word, rd=rd, rs1=rs1, csr=fields.bits(word, 31, 20))
        if fmt == FMT_CSR_IMM:
            return DecodedInstr(
                spec, word, rd=rd, zimm=rs1, csr=fields.bits(word, 31, 20)
            )
        if fmt in (FMT_AMO, FMT_LR):
            return DecodedInstr(
                spec,
                word,
                rd=rd,
                rs1=rs1,
                rs2=rs2 if fmt == FMT_AMO else 0,
                aq=fields.bit(word, 26),
                rl=fields.bit(word, 25),
            )
        # FENCE / SYS carry no operands.
        return DecodedInstr(spec, word, rd=0, rs1=0)
    return None


@lru_cache(maxsize=65536)
def decode(word: int) -> DecodedInstr | None:
    """Decode a 32-bit instruction word.

    Returns ``None`` when no implemented instruction matches — the caller
    decides whether that is an illegal-instruction trap (golden model / DUT)
    or a reward penalty (disassembler agent).

    Decoding is memoised: fuzzing campaigns decode the same hot words
    millions of times.
    """
    return _decode_uncached(word)
