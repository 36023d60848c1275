"""Architectural state: register file, PC, privilege, LR/SC reservation."""

from __future__ import annotations

from repro.golden.csr import CSRFile
from repro.isa.spec import DRAM_BASE, NUM_REGS, PRV_M, WORD_MASK


class ArchState:
    """The complete architectural state of one hart.

    x0 is hardwired to zero: writes are accepted and discarded, matching the
    ISA.  (Finding3 in the paper is RocketCore's *trace log* showing x0
    writes — the golden model never emits them.)
    """

    def __init__(self, pc: int = DRAM_BASE) -> None:
        self.regs = [0] * NUM_REGS
        self.pc = pc & WORD_MASK
        self.priv = PRV_M
        self.csr = CSRFile()
        #: LR/SC reservation address, or None when no reservation is held.
        self.reservation: int | None = None

    def read_reg(self, idx: int) -> int:
        return self.regs[idx]

    def write_reg(self, idx: int, value: int) -> None:
        if idx != 0:
            self.regs[idx] = value & WORD_MASK

    def __repr__(self) -> str:
        return f"ArchState(pc={self.pc:#x}, priv={self.priv})"
