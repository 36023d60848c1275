"""Executor control flow, CSR instructions, privilege and system ops."""

import pytest

from repro.golden.csr import MSTATUS_MPP_MASK
from repro.golden.exceptions import Trap
from repro.golden.executor import execute
from repro.golden.memory import SparseMemory
from repro.golden.state import ArchState
from repro.isa.decoder import decode
from repro.isa.encoder import encode
from repro.isa.fields import to_unsigned
from repro.isa.spec import (
    CSR_MEPC,
    CSR_MSCRATCH,
    CSR_MSTATUS,
    DRAM_BASE,
    EXC_BREAKPOINT,
    EXC_ECALL_FROM_M,
    EXC_ECALL_FROM_U,
    EXC_ILLEGAL_INSTRUCTION,
    EXC_INSTR_MISALIGNED,
    PRV_M,
    PRV_U,
)


def step(state, mnemonic, pc=DRAM_BASE, memory=None, **operands):
    instr = decode(encode(mnemonic, **operands))
    return execute(state, memory or SparseMemory(), instr, pc)


class TestBranches:
    @pytest.mark.parametrize("mnemonic,a,b,taken", [
        ("beq", 5, 5, True), ("beq", 5, 6, False),
        ("bne", 5, 6, True), ("bne", 5, 5, False),
        ("blt", to_unsigned(-1), 0, True), ("blt", 0, to_unsigned(-1), False),
        ("bge", 0, to_unsigned(-1), True), ("bge", to_unsigned(-1), 0, False),
        ("bltu", 0, to_unsigned(-1), True), ("bltu", to_unsigned(-1), 0, False),
        ("bgeu", to_unsigned(-1), 0, True), ("bgeu", 0, to_unsigned(-1), False),
    ])
    def test_taken_semantics(self, mnemonic, a, b, taken):
        state = ArchState()
        state.write_reg(1, a)
        state.write_reg(2, b)
        result = step(state, mnemonic, rs1=1, rs2=2, imm=16)
        expected = DRAM_BASE + (16 if taken else 4)
        assert result.next_pc == expected

    def test_backward_branch(self):
        state = ArchState()
        result = step(state, "beq", rs1=0, rs2=0, imm=-8)
        assert result.next_pc == DRAM_BASE - 8

    def test_taken_branch_to_misaligned_target_traps(self):
        state = ArchState()
        with pytest.raises(Trap) as excinfo:
            step(state, "beq", rs1=0, rs2=0, imm=2)
        assert excinfo.value.cause == EXC_INSTR_MISALIGNED
        assert excinfo.value.tval == DRAM_BASE + 2

    def test_not_taken_branch_to_misaligned_target_ok(self):
        state = ArchState()
        state.write_reg(1, 1)
        # beq x0, x1 with x1=1 is not taken; the misaligned target (pc+2)
        # must not trap because the branch does not transfer control.
        result = step(state, "beq", rs1=0, rs2=1, imm=2)
        assert result.next_pc == DRAM_BASE + 4


class TestJumps:
    def test_jal_links_and_jumps(self):
        state = ArchState()
        result = step(state, "jal", rd=1, imm=0x100)
        assert result.next_pc == DRAM_BASE + 0x100
        assert state.read_reg(1) == DRAM_BASE + 4

    def test_jalr_clears_low_bit(self):
        state = ArchState()
        state.write_reg(5, DRAM_BASE + 9)
        result = step(state, "jalr", rd=1, rs1=5, imm=0)
        assert result.next_pc == DRAM_BASE + 8

    def test_jalr_misaligned_target_traps(self):
        state = ArchState()
        state.write_reg(5, DRAM_BASE + 6)
        with pytest.raises(Trap) as excinfo:
            step(state, "jalr", rd=0, rs1=5, imm=0)
        assert excinfo.value.cause == EXC_INSTR_MISALIGNED

    def test_jal_x0_is_plain_jump(self):
        state = ArchState()
        result = step(state, "jal", rd=0, imm=8)
        assert result.next_pc == DRAM_BASE + 8
        assert state.read_reg(0) == 0


class TestCsrInstructions:
    def test_csrrw_swaps(self):
        state = ArchState()
        state.write_reg(1, 0xABC)
        step(state, "csrrw", rd=2, csr=CSR_MSCRATCH, rs1=1)
        assert state.read_reg(2) == 0                       # old value
        assert state.csr.raw_read(CSR_MSCRATCH) == 0xABC    # new value

    def test_csrrs_sets_bits(self):
        state = ArchState()
        state.csr.values[CSR_MSCRATCH] = 0b0011
        state.write_reg(1, 0b0110)
        step(state, "csrrs", rd=2, csr=CSR_MSCRATCH, rs1=1)
        assert state.read_reg(2) == 0b0011
        assert state.csr.raw_read(CSR_MSCRATCH) == 0b0111

    def test_csrrc_clears_bits(self):
        state = ArchState()
        state.csr.values[CSR_MSCRATCH] = 0b1111
        state.write_reg(1, 0b0101)
        step(state, "csrrc", rd=2, csr=CSR_MSCRATCH, rs1=1)
        assert state.csr.raw_read(CSR_MSCRATCH) == 0b1010

    def test_csrrs_x0_does_not_write(self):
        """csrrs with rs1=x0 must not perform a write (so reading read-only
        CSRs with csrr works)."""
        state = ArchState()
        result = step(state, "csrrs", rd=2, csr=0xF14, rs1=0)  # mhartid
        assert result.csr_write is None

    def test_csrrw_to_read_only_traps_even_with_x0(self):
        state = ArchState()
        with pytest.raises(Trap):
            step(state, "csrrw", rd=0, csr=0xF14, rs1=0)

    def test_csrrwi_uses_zimm(self):
        state = ArchState()
        step(state, "csrrwi", rd=0, csr=CSR_MSCRATCH, zimm=21)
        assert state.csr.raw_read(CSR_MSCRATCH) == 21

    def test_csrrci_zero_zimm_skips_write(self):
        state = ArchState()
        result = step(state, "csrrci", rd=2, csr=CSR_MSCRATCH, zimm=0)
        assert result.csr_write is None

    def test_user_mode_machine_csr_traps(self):
        state = ArchState()
        state.priv = PRV_U
        with pytest.raises(Trap) as excinfo:
            step(state, "csrrs", rd=1, csr=CSR_MSTATUS, rs1=0)
        assert excinfo.value.cause == EXC_ILLEGAL_INSTRUCTION


class TestSystem:
    def test_ecall_machine(self):
        state = ArchState()
        with pytest.raises(Trap) as excinfo:
            step(state, "ecall")
        assert excinfo.value.cause == EXC_ECALL_FROM_M

    def test_ecall_user(self):
        state = ArchState()
        state.priv = PRV_U
        with pytest.raises(Trap) as excinfo:
            step(state, "ecall")
        assert excinfo.value.cause == EXC_ECALL_FROM_U

    def test_ebreak(self):
        state = ArchState()
        with pytest.raises(Trap) as excinfo:
            step(state, "ebreak")
        assert excinfo.value.cause == EXC_BREAKPOINT

    def test_wfi_halts(self):
        state = ArchState()
        assert step(state, "wfi").halt

    def test_fence_is_noop(self):
        state = ArchState()
        result = step(state, "fence")
        assert result.next_pc == DRAM_BASE + 4
        assert not result.halt

    def test_mret_returns_to_mepc_with_mpp(self):
        state = ArchState()
        state.csr.enter_trap(cause=8, epc=0x8000_0040, tval=0, priv=PRV_U)
        result = step(state, "mret")
        assert result.next_pc == 0x8000_0040
        assert state.priv == PRV_U

    def test_mret_in_user_mode_is_illegal(self):
        state = ArchState()
        state.priv = PRV_U
        with pytest.raises(Trap) as excinfo:
            step(state, "mret")
        assert excinfo.value.cause == EXC_ILLEGAL_INSTRUCTION

