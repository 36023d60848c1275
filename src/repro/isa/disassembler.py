"""Disassembler: textual rendering and legality scoring of raw words.

Besides producing human-readable listings, this module is the *deterministic
reward agent* of ChatFuzz's step-2 PPO training (paper §III-B2): it counts
how many words of a generated test vector fail to decode, feeding the reward
``f(GenText_i) = N_i - 5 * Invalid_i`` (Eq. 1).  The scoring logic lives here
so the ML package depends on the ISA layer, never the other way round.
"""

from __future__ import annotations

from repro.isa.decoder import DecodedInstr, decode
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
)
from repro.isa.spec import ABI_NAMES, CSR_ADDR_TO_NAME


def _reg(n: int) -> str:
    return ABI_NAMES[n]


def _csr(addr: int) -> str:
    return CSR_ADDR_TO_NAME.get(addr, f"{addr:#x}")


def format_instr(instr: DecodedInstr) -> str:
    """Render one decoded instruction in conventional assembler syntax."""
    spec = instr.spec
    m = spec.mnemonic
    fmt = spec.fmt
    if fmt == FMT_R:
        return f"{m} {_reg(instr.rd)}, {_reg(instr.rs1)}, {_reg(instr.rs2)}"
    if fmt == FMT_I:
        if spec.is_load:
            return f"{m} {_reg(instr.rd)}, {instr.imm}({_reg(instr.rs1)})"
        if m == "jalr":
            return f"{m} {_reg(instr.rd)}, {instr.imm}({_reg(instr.rs1)})"
        return f"{m} {_reg(instr.rd)}, {_reg(instr.rs1)}, {instr.imm}"
    if fmt in (FMT_I_SHIFT64, FMT_I_SHIFT32):
        return f"{m} {_reg(instr.rd)}, {_reg(instr.rs1)}, {instr.shamt}"
    if fmt == FMT_S:
        return f"{m} {_reg(instr.rs2)}, {instr.imm}({_reg(instr.rs1)})"
    if fmt == FMT_B:
        return f"{m} {_reg(instr.rs1)}, {_reg(instr.rs2)}, {instr.imm}"
    if fmt in (FMT_U, FMT_J):
        return f"{m} {_reg(instr.rd)}, {instr.imm:#x}" if fmt == FMT_U else (
            f"{m} {_reg(instr.rd)}, {instr.imm}"
        )
    if fmt == FMT_CSR:
        return f"{m} {_reg(instr.rd)}, {_csr(instr.csr)}, {_reg(instr.rs1)}"
    if fmt == FMT_CSR_IMM:
        return f"{m} {_reg(instr.rd)}, {_csr(instr.csr)}, {instr.zimm}"
    if fmt == FMT_AMO:
        suffix = ".aq" * instr.aq + ".rl" * instr.rl
        return f"{m}{suffix} {_reg(instr.rd)}, {_reg(instr.rs2)}, ({_reg(instr.rs1)})"
    if fmt == FMT_LR:
        suffix = ".aq" * instr.aq + ".rl" * instr.rl
        return f"{m}{suffix} {_reg(instr.rd)}, ({_reg(instr.rs1)})"
    if fmt in (FMT_FENCE, FMT_SYS):
        return m
    raise AssertionError(f"unhandled format {fmt}")  # pragma: no cover


class Disassembler:
    """Stateless disassembler over 32-bit instruction word streams.

    Parameters
    ----------
    invalid_marker:
        Text emitted for undecodable words (mirrors objdump's ``.word``).
    """

    def __init__(self, invalid_marker: str = ".word") -> None:
        self.invalid_marker = invalid_marker

    def disassemble_word(self, word: int) -> str:
        """Disassemble one word; undecodable words render as raw data."""
        instr = decode(word)
        if instr is None:
            return f"{self.invalid_marker} {word & 0xFFFFFFFF:#010x}"
        return format_instr(instr)

    def count_invalid(self, words: list[int]) -> int:
        """Number of words in the stream that do not decode."""
        return sum(1 for word in words if decode(word) is None)

    def listing(self, words: list[int], base: int = 0) -> str:
        """Full objdump-style listing with addresses, for reports/examples."""
        rows = []
        for i, word in enumerate(words):
            rows.append(f"{base + 4 * i:#010x}:  {word & 0xFFFFFFFF:08x}  "
                        f"{self.disassemble_word(word)}")
        return "\n".join(rows)
