"""Instruction encoder: mnemonic + operands -> 32-bit word."""

from __future__ import annotations

from repro.isa import fields
from repro.isa.instructions import (
    FMT_AMO,
    FMT_B,
    FMT_CSR,
    FMT_CSR_IMM,
    FMT_FENCE,
    FMT_I,
    FMT_I_SHIFT32,
    FMT_I_SHIFT64,
    FMT_J,
    FMT_LR,
    FMT_R,
    FMT_S,
    FMT_SYS,
    FMT_U,
    INSTRUCTIONS,
)


class EncodingError(ValueError):
    """Raised for unknown mnemonics or out-of-range operands."""


def _check_reg(name: str, value: int) -> int:
    if not 0 <= value < 32:
        raise EncodingError(f"{name}={value} is not a valid register number")
    return value


def encode(
    mnemonic: str,
    rd: int = 0,
    rs1: int = 0,
    rs2: int = 0,
    imm: int = 0,
    csr: int = 0,
    zimm: int = 0,
    shamt: int = 0,
    aq: int = 0,
    rl: int = 0,
) -> int:
    """Assemble one instruction into its 32-bit encoding.

    Only the operands belonging to the instruction's format are consulted;
    the rest are ignored so callers can pass a uniform operand record.

    Raises
    ------
    EncodingError
        For unknown mnemonics, bad register numbers or immediates that do not
        fit the format's field.
    """
    spec = INSTRUCTIONS.get(mnemonic)
    if spec is None:
        raise EncodingError(f"unknown mnemonic {mnemonic!r}")

    word = spec.match  # fixed fields (opcode/funct*) are already in `match`
    fmt = spec.fmt
    try:
        if fmt == FMT_R:
            word |= (_check_reg("rd", rd) << 7) | (_check_reg("rs1", rs1) << 15)
            word |= _check_reg("rs2", rs2) << 20
        elif fmt == FMT_I:
            word |= (_check_reg("rd", rd) << 7) | (_check_reg("rs1", rs1) << 15)
            word |= fields.i_imm_encode(imm)
        elif fmt == FMT_I_SHIFT64:
            if not 0 <= shamt < 64:
                raise EncodingError(f"shamt={shamt} out of range for RV64 shift")
            word |= (_check_reg("rd", rd) << 7) | (_check_reg("rs1", rs1) << 15)
            word |= shamt << 20
        elif fmt == FMT_I_SHIFT32:
            if not 0 <= shamt < 32:
                raise EncodingError(f"shamt={shamt} out of range for *W shift")
            word |= (_check_reg("rd", rd) << 7) | (_check_reg("rs1", rs1) << 15)
            word |= shamt << 20
        elif fmt == FMT_S:
            word |= (_check_reg("rs1", rs1) << 15) | (_check_reg("rs2", rs2) << 20)
            word |= fields.s_imm_encode(imm)
        elif fmt == FMT_B:
            word |= (_check_reg("rs1", rs1) << 15) | (_check_reg("rs2", rs2) << 20)
            word |= fields.b_imm_encode(imm)
        elif fmt == FMT_U:
            word |= _check_reg("rd", rd) << 7
            word |= fields.u_imm_encode(imm)
        elif fmt == FMT_J:
            word |= _check_reg("rd", rd) << 7
            word |= fields.j_imm_encode(imm)
        elif fmt == FMT_CSR:
            word |= (_check_reg("rd", rd) << 7) | (_check_reg("rs1", rs1) << 15)
            word |= (csr & 0xFFF) << 20
        elif fmt == FMT_CSR_IMM:
            if not 0 <= zimm < 32:
                raise EncodingError(f"zimm={zimm} out of range")
            word |= (_check_reg("rd", rd) << 7) | (zimm << 15)
            word |= (csr & 0xFFF) << 20
        elif fmt == FMT_AMO:
            word |= (_check_reg("rd", rd) << 7) | (_check_reg("rs1", rs1) << 15)
            word |= _check_reg("rs2", rs2) << 20
            word |= ((aq & 1) << 26) | ((rl & 1) << 25)
        elif fmt == FMT_LR:
            word |= (_check_reg("rd", rd) << 7) | (_check_reg("rs1", rs1) << 15)
            word |= ((aq & 1) << 26) | ((rl & 1) << 25)
        elif fmt in (FMT_FENCE, FMT_SYS):
            pass  # encoding is fully fixed
        else:  # pragma: no cover - table is closed
            raise EncodingError(f"unhandled format {fmt}")
    except ValueError as exc:  # immediate range errors from fields.*
        raise EncodingError(str(exc)) from exc
    return word & 0xFFFF_FFFF
