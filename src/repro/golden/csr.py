"""Machine-mode CSR file with privilege and writability checking."""

from __future__ import annotations

from repro.golden.exceptions import Trap
from repro.isa import spec
from repro.isa.spec import EXC_ILLEGAL_INSTRUCTION

# mstatus bit positions we model (RV64, M/U profile).
MSTATUS_MIE = 1 << 3
MSTATUS_MPIE = 1 << 7
MSTATUS_MPP_SHIFT = 11
MSTATUS_MPP_MASK = 0b11 << MSTATUS_MPP_SHIFT

#: Writable bits of mstatus in this profile (WARL — all else reads zero).
MSTATUS_WRITE_MASK = MSTATUS_MIE | MSTATUS_MPIE | MSTATUS_MPP_MASK


class CSRFile:
    """The implemented CSRs with spec-conformant access rules.

    Reads/writes go through :meth:`read` / :meth:`write`, which raise
    illegal-instruction traps for unimplemented CSRs, insufficient privilege
    or writes to read-only registers — exactly the behaviour that generates
    architectural trap activity during fuzzing.
    """

    def __init__(self) -> None:
        #: Raw value of each implemented CSR, by address.  The trap
        #: machinery below, an interpreter step retiring an instruction
        #: (which advances mcycle/minstret in place) and the lane engines
        #: read and write it without the access checks.
        self.values: dict[int, int] = {
            spec.CSR_MSTATUS: MSTATUS_MPP_MASK,  # MPP=M out of reset
            spec.CSR_MISA: spec.MISA_RESET,
            spec.CSR_MIE: 0,
            spec.CSR_MTVEC: spec.TRAP_VECTOR,
            spec.CSR_MCOUNTEREN: 0b111,
            spec.CSR_MSCRATCH: 0,
            spec.CSR_MEPC: 0,
            spec.CSR_MCAUSE: 0,
            spec.CSR_MTVAL: 0,
            spec.CSR_MIP: 0,
            spec.CSR_MCYCLE: 0,
            spec.CSR_MINSTRET: 0,
            spec.CSR_MVENDORID: spec.MVENDORID_RESET,
            spec.CSR_MARCHID: spec.MARCHID_RESET,
            spec.CSR_MIMPID: spec.MIMPID_RESET,
            spec.CSR_MHARTID: 0,
        }

    # -- raw access for the trap machinery (no privilege checks) ------------

    def raw_read(self, addr: int) -> int:
        return self.values.get(addr, 0)

    # -- architectural access -------------------------------------------------

    def read(self, addr: int, priv: int, instr_bits: int = 0) -> int:
        """CSR read with privilege / existence checks."""
        self._check_access(addr, priv, instr_bits, for_write=False)
        if addr == spec.CSR_CYCLE:
            return self.values[spec.CSR_MCYCLE]
        if addr == spec.CSR_INSTRET:
            return self.values[spec.CSR_MINSTRET]
        if addr == spec.CSR_TIME:
            return self.values[spec.CSR_MCYCLE]  # time == cycle in simulation
        return self.values[addr]

    def write(self, addr: int, value: int, priv: int, instr_bits: int = 0) -> None:
        """CSR write with privilege / read-only / WARL handling."""
        self._check_access(addr, priv, instr_bits, for_write=True)
        value &= spec.WORD_MASK
        if addr == spec.CSR_MSTATUS:
            value &= MSTATUS_WRITE_MASK
            # WARL: MPP can only hold M (0b11) or U (0b00) in this profile.
            mpp = (value & MSTATUS_MPP_MASK) >> MSTATUS_MPP_SHIFT
            if mpp not in (spec.PRV_U, spec.PRV_M):
                value = (value & ~MSTATUS_MPP_MASK) | (
                    spec.PRV_M << MSTATUS_MPP_SHIFT
                )
        elif addr == spec.CSR_MISA:
            return  # WARL: writes ignored, extensions fixed
        elif addr == spec.CSR_MTVEC:
            value &= ~0b11  # direct mode only
        elif addr == spec.CSR_MEPC:
            value &= ~0b1  # IALIGN=32: low bit always zero
        self.values[addr] = value

    def _check_access(self, addr: int, priv: int, instr_bits: int, for_write: bool):
        implemented = addr in spec.IMPLEMENTED_CSRS or addr in (
            spec.CSR_CYCLE,
            spec.CSR_TIME,
            spec.CSR_INSTRET,
        )
        if not implemented:
            raise Trap(EXC_ILLEGAL_INSTRUCTION, tval=instr_bits)
        if priv < spec.csr_min_privilege(addr):
            raise Trap(EXC_ILLEGAL_INSTRUCTION, tval=instr_bits)
        if for_write and spec.csr_is_read_only(addr):
            raise Trap(EXC_ILLEGAL_INSTRUCTION, tval=instr_bits)
        if addr in (spec.CSR_CYCLE, spec.CSR_TIME, spec.CSR_INSTRET):
            if priv < spec.PRV_M and not self.values[spec.CSR_MCOUNTEREN] & 1:
                raise Trap(EXC_ILLEGAL_INSTRUCTION, tval=instr_bits)

    # -- counters ------------------------------------------------------------

    def tick(self, cycles: int = 1, instret: int = 1) -> None:
        """Advance the hardware counters.  Trap entries call this; a
        retiring step adds one to each in :attr:`values` itself."""
        self.values[spec.CSR_MCYCLE] = (
            self.values[spec.CSR_MCYCLE] + cycles
        ) & spec.WORD_MASK
        self.values[spec.CSR_MINSTRET] = (
            self.values[spec.CSR_MINSTRET] + instret
        ) & spec.WORD_MASK

    # -- trap entry / return --------------------------------------------------

    def enter_trap(self, cause: int, epc: int, tval: int, priv: int) -> int:
        """Record a trap and return the handler PC. Updates mstatus stack."""
        self.values[spec.CSR_MCAUSE] = cause
        self.values[spec.CSR_MEPC] = epc & ~0b1 & spec.WORD_MASK
        self.values[spec.CSR_MTVAL] = tval & spec.WORD_MASK
        mstatus = self.values[spec.CSR_MSTATUS]
        mie = bool(mstatus & MSTATUS_MIE)
        mstatus &= ~(MSTATUS_MIE | MSTATUS_MPIE | MSTATUS_MPP_MASK)
        if mie:
            mstatus |= MSTATUS_MPIE
        mstatus |= priv << MSTATUS_MPP_SHIFT
        self.values[spec.CSR_MSTATUS] = mstatus
        return self.values[spec.CSR_MTVEC] & ~0b11

    def leave_trap(self) -> tuple[int, int]:
        """Execute the mstatus side of MRET; returns (new_priv, return_pc)."""
        mstatus = self.values[spec.CSR_MSTATUS]
        new_priv = (mstatus & MSTATUS_MPP_MASK) >> MSTATUS_MPP_SHIFT
        mpie = bool(mstatus & MSTATUS_MPIE)
        mstatus &= ~(MSTATUS_MIE | MSTATUS_MPIE | MSTATUS_MPP_MASK)
        if mpie:
            mstatus |= MSTATUS_MIE
        mstatus |= MSTATUS_MPIE  # MPIE set to 1 on mret
        # MPP set to least-privileged mode (U) after mret.
        self.values[spec.CSR_MSTATUS] = mstatus
        return new_priv, self.values[spec.CSR_MEPC]
