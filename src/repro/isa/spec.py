"""Architectural constants for RV64IMA_Zicsr.

Names follow the RISC-V unprivileged/privileged specifications (the paper's
reference [15]).  Everything downstream — encoder, golden model, SoC models —
imports these constants instead of re-declaring magic numbers.
"""

XLEN = 64
WORD_MASK = (1 << XLEN) - 1
INSTR_BYTES = 4

# ---------------------------------------------------------------------------
# Register file
# ---------------------------------------------------------------------------

NUM_REGS = 32

#: ABI names indexed by register number (x0..x31).
ABI_NAMES = (
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
)

#: Map from every accepted register spelling ("x13", "a3", "fp") to number.
REG_NUMBERS = {f"x{i}": i for i in range(NUM_REGS)}
REG_NUMBERS.update({name: i for i, name in enumerate(ABI_NAMES)})
REG_NUMBERS["fp"] = 8  # alias of s0

#: Callee-saved registers under the standard calling convention.
CALLEE_SAVED = (2, 8, 9, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27)
#: Argument/return registers a0-a7.
ARG_REGS = (10, 11, 12, 13, 14, 15, 16, 17)
#: Temporaries t0-t6.
TEMP_REGS = (5, 6, 7, 28, 29, 30, 31)

# ---------------------------------------------------------------------------
# Privilege levels
# ---------------------------------------------------------------------------

PRV_U = 0
PRV_S = 1
PRV_M = 3

# ---------------------------------------------------------------------------
# Control and status registers (machine + user-counter subset)
# ---------------------------------------------------------------------------

CSR_MSTATUS = 0x300
CSR_MISA = 0x301
CSR_MIE = 0x304
CSR_MTVEC = 0x305
CSR_MCOUNTEREN = 0x306
CSR_MSCRATCH = 0x340
CSR_MEPC = 0x341
CSR_MCAUSE = 0x342
CSR_MTVAL = 0x343
CSR_MIP = 0x344
CSR_MCYCLE = 0xB00
CSR_MINSTRET = 0xB02
CSR_CYCLE = 0xC00
CSR_TIME = 0xC01
CSR_INSTRET = 0xC02
CSR_MVENDORID = 0xF11
CSR_MARCHID = 0xF12
CSR_MIMPID = 0xF13
CSR_MHARTID = 0xF14

#: Accepted CSR name spellings for the assembler / disassembler.
CSR_NAMES = {
    "mstatus": CSR_MSTATUS,
    "misa": CSR_MISA,
    "mie": CSR_MIE,
    "mtvec": CSR_MTVEC,
    "mcounteren": CSR_MCOUNTEREN,
    "mscratch": CSR_MSCRATCH,
    "mepc": CSR_MEPC,
    "mcause": CSR_MCAUSE,
    "mtval": CSR_MTVAL,
    "mip": CSR_MIP,
    "mcycle": CSR_MCYCLE,
    "minstret": CSR_MINSTRET,
    "cycle": CSR_CYCLE,
    "time": CSR_TIME,
    "instret": CSR_INSTRET,
    "mvendorid": CSR_MVENDORID,
    "marchid": CSR_MARCHID,
    "mimpid": CSR_MIMPID,
    "mhartid": CSR_MHARTID,
}

CSR_ADDR_TO_NAME = {addr: name for name, addr in CSR_NAMES.items()}

#: CSRs that exist in this profile (reads of others raise illegal instr).
IMPLEMENTED_CSRS = frozenset(CSR_NAMES.values())

#: Read-only CSR address range check: top two bits of the 12-bit address.
def csr_is_read_only(addr: int) -> bool:
    """True when the CSR address is architecturally read-only (bits [11:10]==0b11)."""
    return (addr >> 10) & 0b11 == 0b11


def csr_min_privilege(addr: int) -> int:
    """Lowest privilege allowed to access the CSR (bits [9:8] of the address)."""
    return (addr >> 8) & 0b11


# ---------------------------------------------------------------------------
# Exception causes (mcause values, interrupt bit clear)
# ---------------------------------------------------------------------------

EXC_INSTR_MISALIGNED = 0
EXC_INSTR_ACCESS_FAULT = 1
EXC_ILLEGAL_INSTRUCTION = 2
EXC_BREAKPOINT = 3
EXC_LOAD_MISALIGNED = 4
EXC_LOAD_ACCESS_FAULT = 5
EXC_STORE_MISALIGNED = 6
EXC_STORE_ACCESS_FAULT = 7
EXC_ECALL_FROM_U = 8
EXC_ECALL_FROM_S = 9
EXC_ECALL_FROM_M = 11

EXC_NAMES = {
    EXC_INSTR_MISALIGNED: "instruction address misaligned",
    EXC_INSTR_ACCESS_FAULT: "instruction access fault",
    EXC_ILLEGAL_INSTRUCTION: "illegal instruction",
    EXC_BREAKPOINT: "breakpoint",
    EXC_LOAD_MISALIGNED: "load address misaligned",
    EXC_LOAD_ACCESS_FAULT: "load access fault",
    EXC_STORE_MISALIGNED: "store/AMO address misaligned",
    EXC_STORE_ACCESS_FAULT: "store/AMO access fault",
    EXC_ECALL_FROM_U: "environment call from U-mode",
    EXC_ECALL_FROM_S: "environment call from S-mode",
    EXC_ECALL_FROM_M: "environment call from M-mode",
}

# ---------------------------------------------------------------------------
# Default memory map used across golden model, SoC harness and dataset
# ---------------------------------------------------------------------------

#: Reset / program load address (RocketCore's DRAM base in Chipyard).
DRAM_BASE = 0x8000_0000
#: Size of the simulated main memory window in bytes.
DRAM_SIZE = 1 << 20
#: Default data scratch region (inside DRAM, away from code).
DATA_BASE = DRAM_BASE + (DRAM_SIZE // 2)
#: Reset value of mtvec: trap handler location (harness installs a stub).
TRAP_VECTOR = DRAM_BASE + DRAM_SIZE - 0x1000

MISA_RESET = (2 << 62) | (1 << 0) | (1 << 8) | (1 << 12)  # RV64 A, I, M
MVENDORID_RESET = 0
MARCHID_RESET = 0x5EED
MIMPID_RESET = 0x1
