"""Spec-faithful execution semantics for every implemented instruction.

:func:`execute` runs one decoded instruction against an
(:class:`~repro.golden.state.ArchState`, memory) pair and returns the
architectural effects as an :class:`ExecResult`.  It raises
:class:`~repro.golden.exceptions.Trap` for synchronous exceptions, resolving
simultaneous candidates with the privileged-spec priority (misaligned above
access-fault — the ordering the paper's Finding1 shows RocketCore violating).

The SoC models reuse these semantics for functional execution and wrap them
with microarchitectural state machines, so ISA correctness lives in exactly
one place (see the :mod:`repro.soc` docstring).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.golden.exceptions import Trap, select_trap
from repro.golden.memory import SparseMemory
from repro.golden.state import ArchState
from repro.golden.trace import MemOp
from repro.isa.decoder import DecodedInstr
from repro.isa.fields import sign_extend, to_unsigned
from repro.isa.spec import (
    EXC_BREAKPOINT,
    EXC_ECALL_FROM_M,
    EXC_ECALL_FROM_U,
    EXC_ILLEGAL_INSTRUCTION,
    EXC_INSTR_MISALIGNED,
    EXC_LOAD_ACCESS_FAULT,
    EXC_LOAD_MISALIGNED,
    EXC_STORE_ACCESS_FAULT,
    EXC_STORE_MISALIGNED,
    PRV_M,
    PRV_U,
    WORD_MASK,
)

_S64 = lambda v: sign_extend(v, 64)  # noqa: E731 - local shorthand
_S32 = lambda v: sign_extend(v, 32)  # noqa: E731


@dataclass
class ExecResult:
    """Architectural effects of one executed instruction."""

    next_pc: int
    rd: int | None = None
    rd_value: int = 0
    mem: MemOp | None = None
    csr_write: tuple[int, int] | None = None
    halt: bool = False  # wfi: treated as end-of-test by the harness


# Load/store width and signedness per mnemonic.
_LOAD_WIDTH = {
    "lb": (1, True), "lh": (2, True), "lw": (4, True), "ld": (8, True),
    "lbu": (1, False), "lhu": (2, False), "lwu": (4, False),
}
_STORE_WIDTH = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}


def _check_data_addr(memory: SparseMemory, addr: int, size: int, is_store: bool):
    """Raise the highest-priority trap for a bad data address, if any."""
    candidates = []
    if addr % size:
        candidates.append(
            Trap(EXC_STORE_MISALIGNED if is_store else EXC_LOAD_MISALIGNED, tval=addr)
        )
    if not memory.is_mapped(addr, size):
        candidates.append(
            Trap(
                EXC_STORE_ACCESS_FAULT if is_store else EXC_LOAD_ACCESS_FAULT,
                tval=addr,
            )
        )
    if candidates:
        raise select_trap(candidates)


def _alu_op(mnemonic: str, a: int, b: int, shamt: int | None = None) -> int:
    """Integer ALU semantics; ``a``/``b`` are 64-bit unsigned operands."""
    if mnemonic in ("add", "addi"):
        return (a + b) & WORD_MASK
    if mnemonic == "sub":
        return (a - b) & WORD_MASK
    if mnemonic in ("xor", "xori"):
        return a ^ b
    if mnemonic in ("or", "ori"):
        return a | b
    if mnemonic in ("and", "andi"):
        return a & b
    if mnemonic in ("slt", "slti"):
        return 1 if _S64(a) < _S64(b) else 0
    if mnemonic in ("sltu", "sltiu"):
        return 1 if a < b else 0
    if mnemonic in ("sll", "slli"):
        sh = shamt if shamt is not None else b & 0x3F
        return (a << sh) & WORD_MASK
    if mnemonic in ("srl", "srli"):
        sh = shamt if shamt is not None else b & 0x3F
        return a >> sh
    if mnemonic in ("sra", "srai"):
        sh = shamt if shamt is not None else b & 0x3F
        return to_unsigned(_S64(a) >> sh)
    if mnemonic in ("addw", "addiw"):
        return to_unsigned(_S32((a + b) & 0xFFFF_FFFF))
    if mnemonic == "subw":
        return to_unsigned(_S32((a - b) & 0xFFFF_FFFF))
    if mnemonic in ("sllw", "slliw"):
        sh = shamt if shamt is not None else b & 0x1F
        return to_unsigned(_S32((a << sh) & 0xFFFF_FFFF))
    if mnemonic in ("srlw", "srliw"):
        sh = shamt if shamt is not None else b & 0x1F
        return to_unsigned(_S32((a & 0xFFFF_FFFF) >> sh))
    if mnemonic in ("sraw", "sraiw"):
        sh = shamt if shamt is not None else b & 0x1F
        return to_unsigned(_S32(to_unsigned(_S32(a) >> sh, 32)))
    raise AssertionError(f"not an ALU op: {mnemonic}")  # pragma: no cover


def _muldiv_op(mnemonic: str, a: int, b: int) -> int:
    """M-extension semantics, including the spec's div-by-zero/overflow rules."""
    sa, sb = _S64(a), _S64(b)
    if mnemonic == "mul":
        return (a * b) & WORD_MASK
    if mnemonic == "mulh":
        return to_unsigned((sa * sb) >> 64)
    if mnemonic == "mulhsu":
        return to_unsigned((sa * b) >> 64)
    if mnemonic == "mulhu":
        return (a * b) >> 64
    if mnemonic == "div":
        if sb == 0:
            return WORD_MASK  # quotient = -1
        if sa == -(1 << 63) and sb == -1:
            return a  # overflow: quotient = dividend
        return to_unsigned(int(abs(sa) // abs(sb)) * (1 if (sa < 0) == (sb < 0) else -1))
    if mnemonic == "divu":
        return WORD_MASK if b == 0 else a // b
    if mnemonic == "rem":
        if sb == 0:
            return a
        if sa == -(1 << 63) and sb == -1:
            return 0
        return to_unsigned(abs(sa) % abs(sb) * (1 if sa >= 0 else -1))
    if mnemonic == "remu":
        return a if b == 0 else a % b
    # 32-bit word variants: compute in 32 bits, sign-extend the result.
    wa, wb = a & 0xFFFF_FFFF, b & 0xFFFF_FFFF
    swa, swb = _S32(wa), _S32(wb)
    if mnemonic == "mulw":
        return to_unsigned(_S32((wa * wb) & 0xFFFF_FFFF))
    if mnemonic == "divw":
        if swb == 0:
            return WORD_MASK
        if swa == -(1 << 31) and swb == -1:
            return to_unsigned(_S32(wa))
        q = int(abs(swa) // abs(swb)) * (1 if (swa < 0) == (swb < 0) else -1)
        return to_unsigned(_S32(to_unsigned(q, 32)))
    if mnemonic == "divuw":
        return WORD_MASK if wb == 0 else to_unsigned(_S32(wa // wb))
    if mnemonic == "remw":
        if swb == 0:
            return to_unsigned(_S32(wa))
        if swa == -(1 << 31) and swb == -1:
            return 0
        r = abs(swa) % abs(swb) * (1 if swa >= 0 else -1)
        return to_unsigned(_S32(to_unsigned(r, 32)))
    if mnemonic == "remuw":
        return to_unsigned(_S32(wa)) if wb == 0 else to_unsigned(_S32(wa % wb))
    raise AssertionError(f"not a muldiv op: {mnemonic}")  # pragma: no cover


_AMO_FN = {
    "amoswap": lambda old, src, _s64: src,
    "amoadd": lambda old, src, w: (old + src) & ((1 << (8 * w)) - 1),
    "amoxor": lambda old, src, _w: old ^ src,
    "amoand": lambda old, src, _w: old & src,
    "amoor": lambda old, src, _w: old | src,
    "amomin": lambda old, src, w: old if sign_extend(old, 8 * w) <= sign_extend(src, 8 * w) else src,
    "amomax": lambda old, src, w: old if sign_extend(old, 8 * w) >= sign_extend(src, 8 * w) else src,
    "amominu": lambda old, src, _w: min(old, src),
    "amomaxu": lambda old, src, _w: max(old, src),
}

_BRANCH_TAKEN = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _S64(a) < _S64(b),
    "bge": lambda a, b: _S64(a) >= _S64(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}


def execute(
    state: ArchState,
    memory: SparseMemory,
    instr: DecodedInstr,
    pc: int,
) -> ExecResult:
    """Execute one instruction; mutates ``state``/``memory`` and reports effects.

    The caller (golden simulator or SoC model) is responsible for fetch,
    trap entry and tracing; this function only performs the instruction's own
    architectural semantics.
    """
    spec_ = instr.spec
    m = spec_.mnemonic
    seq_pc = (pc + 4) & WORD_MASK

    # --- control flow -------------------------------------------------------
    if m == "jal":
        target = (pc + instr.imm) & WORD_MASK
        if target % 4:
            raise Trap(EXC_INSTR_MISALIGNED, tval=target)
        state.write_reg(instr.rd, seq_pc)
        return ExecResult(target, rd=instr.rd, rd_value=seq_pc)
    if m == "jalr":
        target = (state.read_reg(instr.rs1) + instr.imm) & WORD_MASK & ~1
        if target % 4:
            raise Trap(EXC_INSTR_MISALIGNED, tval=target)
        state.write_reg(instr.rd, seq_pc)
        return ExecResult(target, rd=instr.rd, rd_value=seq_pc)
    if spec_.is_branch:
        taken = _BRANCH_TAKEN[m](state.read_reg(instr.rs1), state.read_reg(instr.rs2))
        if not taken:
            return ExecResult(seq_pc)
        target = (pc + instr.imm) & WORD_MASK
        if target % 4:
            raise Trap(EXC_INSTR_MISALIGNED, tval=target)
        return ExecResult(target)

    # --- loads / stores -------------------------------------------------------
    if spec_.is_load:
        width, signed = _LOAD_WIDTH[m]
        addr = (state.read_reg(instr.rs1) + instr.imm) & WORD_MASK
        _check_data_addr(memory, addr, width, is_store=False)
        raw = memory.load(addr, width)
        value = to_unsigned(sign_extend(raw, 8 * width)) if signed else raw
        state.write_reg(instr.rd, value)
        return ExecResult(
            seq_pc,
            rd=instr.rd,
            rd_value=state.read_reg(instr.rd) if instr.rd else value,
            mem=MemOp(addr, width, is_store=False, data=value),
        )
    if spec_.is_store:
        width = _STORE_WIDTH[m]
        addr = (state.read_reg(instr.rs1) + instr.imm) & WORD_MASK
        _check_data_addr(memory, addr, width, is_store=True)
        value = state.read_reg(instr.rs2) & ((1 << (8 * width)) - 1)
        memory.store(addr, value, width)
        if state.reservation is not None and addr == state.reservation:
            state.reservation = None  # stores break a matching reservation
        return ExecResult(seq_pc, mem=MemOp(addr, width, is_store=True, data=value))

    # --- atomics ---------------------------------------------------------------
    if spec_.is_amo:
        width = 4 if m.endswith(".w") else 8
        addr = state.read_reg(instr.rs1)
        if m.startswith("lr."):
            _check_data_addr(memory, addr, width, is_store=False)
            raw = memory.load(addr, width)
            value = to_unsigned(sign_extend(raw, 8 * width))
            state.write_reg(instr.rd, value)
            state.reservation = addr
            return ExecResult(
                seq_pc, rd=instr.rd, rd_value=value,
                mem=MemOp(addr, width, is_store=False, data=value),
            )
        if m.startswith("sc."):
            _check_data_addr(memory, addr, width, is_store=True)
            if state.reservation == addr:
                src = state.read_reg(instr.rs2) & ((1 << (8 * width)) - 1)
                memory.store(addr, src, width)
                state.reservation = None
                state.write_reg(instr.rd, 0)
                return ExecResult(
                    seq_pc, rd=instr.rd, rd_value=0,
                    mem=MemOp(addr, width, is_store=True, data=src),
                )
            state.reservation = None
            state.write_reg(instr.rd, 1)
            return ExecResult(seq_pc, rd=instr.rd, rd_value=1)
        # read-modify-write AMOs
        _check_data_addr(memory, addr, width, is_store=True)
        old_raw = memory.load(addr, width)
        src = state.read_reg(instr.rs2) & ((1 << (8 * width)) - 1)
        fn = _AMO_FN[m.split(".")[0]]
        new_raw = fn(old_raw, src, width) & ((1 << (8 * width)) - 1)
        memory.store(addr, new_raw, width)
        old_value = to_unsigned(sign_extend(old_raw, 8 * width))
        state.write_reg(instr.rd, old_value)
        return ExecResult(
            seq_pc, rd=instr.rd, rd_value=old_value,
            mem=MemOp(addr, width, is_store=True, data=new_raw),
        )

    # --- CSR ----------------------------------------------------------------
    if spec_.is_csr:
        csr_addr = instr.csr
        write_val: int | None
        if m in ("csrrw", "csrrs", "csrrc"):
            operand = state.read_reg(instr.rs1)
            skip_write = m != "csrrw" and instr.rs1 == 0
        else:
            operand = instr.zimm
            skip_write = m != "csrrwi" and instr.zimm == 0
        old = state.csr.read(csr_addr, state.priv, instr.raw)
        if skip_write:
            write_val = None
        elif m in ("csrrw", "csrrwi"):
            write_val = operand
        elif m in ("csrrs", "csrrsi"):
            write_val = old | operand
        else:  # csrrc / csrrci
            write_val = old & ~operand
        csr_write = None
        if write_val is not None:
            state.csr.write(csr_addr, write_val, state.priv, instr.raw)
            csr_write = (csr_addr, state.csr.raw_read(csr_addr))
        state.write_reg(instr.rd, old)
        return ExecResult(
            seq_pc, rd=instr.rd, rd_value=old, csr_write=csr_write
        )

    # --- system / fence -------------------------------------------------------
    if m == "ecall":
        raise Trap(EXC_ECALL_FROM_M if state.priv == PRV_M else EXC_ECALL_FROM_U)
    if m == "ebreak":
        raise Trap(EXC_BREAKPOINT, tval=pc)
    if m == "mret":
        if state.priv != PRV_M:
            raise Trap(EXC_ILLEGAL_INSTRUCTION, tval=instr.raw)
        new_priv, return_pc = state.csr.leave_trap()
        state.priv = new_priv
        return ExecResult(return_pc & WORD_MASK)
    if m == "wfi":
        return ExecResult(seq_pc, halt=True)
    if m in ("fence", "fence.i"):
        return ExecResult(seq_pc)

    # --- plain ALU -------------------------------------------------------------
    a = state.read_reg(instr.rs1)
    if spec_.is_muldiv:
        value = _muldiv_op(m, a, state.read_reg(instr.rs2))
    elif m == "lui":
        value = to_unsigned(instr.imm)
    elif m == "auipc":
        value = (pc + instr.imm) & WORD_MASK
    elif spec_.fmt in ("I_SHIFT64", "I_SHIFT32"):
        value = _alu_op(m, a, 0, shamt=instr.shamt)
    elif spec_.fmt == "I":
        value = _alu_op(m, a, to_unsigned(instr.imm))
    else:  # R-format ALU
        value = _alu_op(m, a, state.read_reg(instr.rs2))
    state.write_reg(instr.rd, value)
    return ExecResult(seq_pc, rd=instr.rd, rd_value=value if instr.rd else 0)
