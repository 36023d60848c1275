"""Spec-faithful execution semantics for every implemented instruction.

:func:`execute` runs one decoded instruction against an
(:class:`~repro.golden.state.ArchState`, memory) pair and returns the
architectural effects as an :class:`ExecResult`.  It raises
:class:`~repro.golden.exceptions.Trap` for synchronous exceptions, resolving
simultaneous candidates with the privileged-spec priority (misaligned above
access-fault — the ordering the paper's Finding1 shows RocketCore violating).

Dispatch is one lookup in ``_HANDLERS``, a table from mnemonic to a
handler that holds that instruction's whole semantics, in the style of
Spike's per-instruction functions.  The handlers are built per instruction
class by small factories (register-register, register-immediate, load,
store, AMO, CSR) around the operation itself, so a step pays one dict
lookup instead of walking a chain of mnemonic compares.  The table is
keyed by mnemonic rather than by instruction word: a per-word table of
closures over the decoded fields costs memory for every distinct word a
campaign fetches and is no faster.

The SoC models reuse these semantics for functional execution and wrap them
with microarchitectural state machines, so ISA correctness lives in exactly
one place (see the :mod:`repro.soc` docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.golden.exceptions import Trap
from repro.golden.memory import SparseMemory
from repro.golden.state import ArchState
from repro.golden.trace import MemOp
from repro.isa.decoder import DecodedInstr
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
    WORD_MASK,
)

#: The sign bit of a 64-bit value: ``(v ^ _SIGN) - _SIGN`` reads ``v`` as
#: two's complement, and XOR with it turns signed order into unsigned order.
_SIGN = 1 << 63
_W32 = 0xFFFF_FFFF
_SIGN32 = 1 << 31


@dataclass
class ExecResult:
    """Architectural effects of one executed instruction."""

    next_pc: int
    rd: int | None = None
    rd_value: int = 0
    mem: MemOp | None = None
    csr_write: tuple[int, int] | None = None
    halt: bool = False  # wfi: treated as end-of-test by the harness


Handler = Callable[[ArchState, SparseMemory, DecodedInstr, int], ExecResult]


def _check_data_addr(memory: SparseMemory, addr: int, size: int, is_store: bool):
    """Raise the highest-priority trap for a bad data address, if any.

    The privileged spec ranks misaligned above access-fault, so the checks
    run in that order.  Each trap is raised where it is built: a local that
    still held it would form a cycle with its traceback (trap -> traceback
    -> this frame -> trap), keeping every frame on the stack, each with its
    ArchState and memory, alive until the cyclic GC ran.
    """
    if addr % size:
        raise Trap(EXC_STORE_MISALIGNED if is_store else EXC_LOAD_MISALIGNED,
                   tval=addr)
    if not memory.is_mapped(addr, size):
        raise Trap(EXC_STORE_ACCESS_FAULT if is_store else EXC_LOAD_ACCESS_FAULT,
                   tval=addr)


def _sext(width: int) -> Callable[[int], int]:
    """Sign-extend a ``width``-byte unsigned value to 64 unsigned bits."""
    sign = 1 << (8 * width - 1)
    high = WORD_MASK ^ ((sign << 1) - 1)
    return lambda v: v | high if v & sign else v


def _w(v: int) -> int:
    """Sign-extend the low 32 bits of ``v`` to 64 unsigned bits."""
    return (((v & _W32) ^ _SIGN32) - _SIGN32) & WORD_MASK


# -- integer operations: (a, b) -> 64-bit unsigned result -----------------------
#
# ``a`` is rs1's value, ``b`` is rs2's value, the immediate (as 64 unsigned
# bits) or the shift amount; shifts mask ``b`` themselves, which leaves a
# decoded shamt unchanged.


def _div(a: int, b: int) -> int:
    sa, sb = (a ^ _SIGN) - _SIGN, (b ^ _SIGN) - _SIGN
    if sb == 0:
        return WORD_MASK  # quotient = -1
    if sa == -_SIGN and sb == -1:
        return a  # overflow: quotient = dividend
    q = abs(sa) // abs(sb)
    return (q if (sa < 0) == (sb < 0) else -q) & WORD_MASK


def _rem(a: int, b: int) -> int:
    sa, sb = (a ^ _SIGN) - _SIGN, (b ^ _SIGN) - _SIGN
    if sb == 0:
        return a
    if sa == -_SIGN and sb == -1:
        return 0
    r = abs(sa) % abs(sb)
    return (r if sa >= 0 else -r) & WORD_MASK


def _divw(a: int, b: int) -> int:
    sa, sb = ((a & _W32) ^ _SIGN32) - _SIGN32, ((b & _W32) ^ _SIGN32) - _SIGN32
    if sb == 0:
        return WORD_MASK
    if sa == -_SIGN32 and sb == -1:
        return sa & WORD_MASK
    q = abs(sa) // abs(sb)
    return _w(q if (sa < 0) == (sb < 0) else -q)


def _remw(a: int, b: int) -> int:
    sa, sb = ((a & _W32) ^ _SIGN32) - _SIGN32, ((b & _W32) ^ _SIGN32) - _SIGN32
    if sb == 0:
        return sa & WORD_MASK
    if sa == -_SIGN32 and sb == -1:
        return 0
    r = abs(sa) % abs(sb)
    return _w(r if sa >= 0 else -r)


_OPS: dict[str, Callable[[int, int], int]] = {
    "add": lambda a, b: (a + b) & WORD_MASK,
    "sub": lambda a, b: (a - b) & WORD_MASK,
    "xor": lambda a, b: a ^ b,
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "slt": lambda a, b: 1 if (a ^ _SIGN) < (b ^ _SIGN) else 0,
    "sltu": lambda a, b: 1 if a < b else 0,
    "sll": lambda a, b: (a << (b & 0x3F)) & WORD_MASK,
    "srl": lambda a, b: a >> (b & 0x3F),
    "sra": lambda a, b: (((a ^ _SIGN) - _SIGN) >> (b & 0x3F)) & WORD_MASK,
    "addw": lambda a, b: _w(a + b),
    "subw": lambda a, b: _w(a - b),
    "sllw": lambda a, b: _w(a << (b & 0x1F)),
    "srlw": lambda a, b: _w((a & _W32) >> (b & 0x1F)),
    "sraw": lambda a, b: ((((a & _W32) ^ _SIGN32) - _SIGN32) >> (b & 0x1F))
    & WORD_MASK,
    # M extension, with the spec's div-by-zero and overflow results.
    "mul": lambda a, b: (a * b) & WORD_MASK,
    "mulh": lambda a, b: ((((a ^ _SIGN) - _SIGN) * ((b ^ _SIGN) - _SIGN)) >> 64)
    & WORD_MASK,
    "mulhsu": lambda a, b: ((((a ^ _SIGN) - _SIGN) * b) >> 64) & WORD_MASK,
    "mulhu": lambda a, b: (a * b) >> 64,
    "div": _div,
    "divu": lambda a, b: WORD_MASK if b == 0 else a // b,
    "rem": _rem,
    "remu": lambda a, b: a if b == 0 else a % b,
    "mulw": lambda a, b: _w((a & _W32) * (b & _W32)),
    "divw": _divw,
    "divuw": lambda a, b: WORD_MASK if b & _W32 == 0
    else _w((a & _W32) // (b & _W32)),
    "remw": _remw,
    "remuw": lambda a, b: _w(a) if b & _W32 == 0 else _w((a & _W32) % (b & _W32)),
}

#: Register-immediate mnemonics and the operation each shares with its
#: register-register form.
_IMM_OPS = {
    "addi": "add", "xori": "xor", "ori": "or", "andi": "and", "slti": "slt",
    "sltiu": "sltu", "addiw": "addw",
}
_SHIFT_IMM_OPS = {
    "slli": "sll", "srli": "srl", "srai": "sra",
    "slliw": "sllw", "srliw": "srlw", "sraiw": "sraw",
}

_AMO_FN = {
    "amoswap": lambda old, src, sext: src,
    "amoadd": lambda old, src, sext: old + src,
    "amoxor": lambda old, src, sext: old ^ src,
    "amoand": lambda old, src, sext: old & src,
    "amoor": lambda old, src, sext: old | src,
    "amomin": lambda old, src, sext: old if sext(old) ^ _SIGN <= sext(src) ^ _SIGN
    else src,
    "amomax": lambda old, src, sext: old if sext(old) ^ _SIGN >= sext(src) ^ _SIGN
    else src,
    "amominu": lambda old, src, sext: min(old, src),
    "amomaxu": lambda old, src, sext: max(old, src),
}

_BRANCH_TAKEN = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: (a ^ _SIGN) < (b ^ _SIGN),
    "bge": lambda a, b: (a ^ _SIGN) >= (b ^ _SIGN),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}


# -- handler factories -------------------------------------------------------------


def _reg_reg(op: Callable[[int, int], int]) -> Handler:
    def run(state, memory, instr, pc):
        regs = state.regs
        value = op(regs[instr.rs1], regs[instr.rs2])
        rd = instr.rd
        if rd:
            regs[rd] = value
            return ExecResult((pc + 4) & WORD_MASK, rd, value)
        return ExecResult((pc + 4) & WORD_MASK, rd)
    return run


def _reg_imm(op: Callable[[int, int], int]) -> Handler:
    def run(state, memory, instr, pc):
        regs = state.regs
        value = op(regs[instr.rs1], instr.imm & WORD_MASK)
        rd = instr.rd
        if rd:
            regs[rd] = value
            return ExecResult((pc + 4) & WORD_MASK, rd, value)
        return ExecResult((pc + 4) & WORD_MASK, rd)
    return run


def _shift_imm(op: Callable[[int, int], int]) -> Handler:
    def run(state, memory, instr, pc):
        regs = state.regs
        value = op(regs[instr.rs1], instr.shamt)
        rd = instr.rd
        if rd:
            regs[rd] = value
            return ExecResult((pc + 4) & WORD_MASK, rd, value)
        return ExecResult((pc + 4) & WORD_MASK, rd)
    return run


def _auipc(state, memory, instr, pc):
    value = (pc + instr.imm) & WORD_MASK
    rd = instr.rd
    if rd:
        state.regs[rd] = value
        return ExecResult((pc + 4) & WORD_MASK, rd, value)
    return ExecResult((pc + 4) & WORD_MASK, rd)


def _jal(state, memory, instr, pc):
    target = (pc + instr.imm) & WORD_MASK
    if target & 3:
        raise Trap(EXC_INSTR_MISALIGNED, tval=target)
    link = (pc + 4) & WORD_MASK
    rd = instr.rd
    if rd:
        state.regs[rd] = link
    return ExecResult(target, rd, link)


def _jalr(state, memory, instr, pc):
    target = (state.regs[instr.rs1] + instr.imm) & WORD_MASK & ~1
    if target & 3:
        raise Trap(EXC_INSTR_MISALIGNED, tval=target)
    link = (pc + 4) & WORD_MASK
    rd = instr.rd
    if rd:
        state.regs[rd] = link
    return ExecResult(target, rd, link)


def _branch(taken: Callable[[int, int], bool]) -> Handler:
    def run(state, memory, instr, pc):
        regs = state.regs
        if not taken(regs[instr.rs1], regs[instr.rs2]):
            return ExecResult((pc + 4) & WORD_MASK)
        target = (pc + instr.imm) & WORD_MASK
        if target & 3:
            raise Trap(EXC_INSTR_MISALIGNED, tval=target)
        return ExecResult(target)
    return run


def _load(width: int, signed: bool) -> Handler:
    extend = _sext(width) if signed else None

    def run(state, memory, instr, pc):
        addr = (state.regs[instr.rs1] + instr.imm) & WORD_MASK
        _check_data_addr(memory, addr, width, False)
        value = int.from_bytes(memory.read_bytes(addr, width), "little")
        if extend is not None:
            value = extend(value)
        rd = instr.rd
        if rd:
            state.regs[rd] = value
        return ExecResult((pc + 4) & WORD_MASK, rd, value,
                          MemOp(addr, width, False, value))
    return run


def _store(width: int) -> Handler:
    mask = (1 << (8 * width)) - 1

    def run(state, memory, instr, pc):
        regs = state.regs
        addr = (regs[instr.rs1] + instr.imm) & WORD_MASK
        _check_data_addr(memory, addr, width, True)
        value = regs[instr.rs2] & mask
        memory.write_bytes(addr, value.to_bytes(width, "little"))
        if addr == state.reservation:
            state.reservation = None  # stores break a matching reservation
        return ExecResult((pc + 4) & WORD_MASK, None, 0,
                          MemOp(addr, width, True, value))
    return run


def _load_reserved(width: int) -> Handler:
    extend = _sext(width)

    def run(state, memory, instr, pc):
        addr = state.regs[instr.rs1]
        _check_data_addr(memory, addr, width, False)
        value = extend(int.from_bytes(memory.read_bytes(addr, width), "little"))
        rd = instr.rd
        if rd:
            state.regs[rd] = value
        state.reservation = addr
        return ExecResult((pc + 4) & WORD_MASK, rd, value,
                          MemOp(addr, width, False, value))
    return run


def _store_conditional(width: int) -> Handler:
    mask = (1 << (8 * width)) - 1

    def run(state, memory, instr, pc):
        regs = state.regs
        addr = regs[instr.rs1]
        _check_data_addr(memory, addr, width, True)
        rd = instr.rd
        if state.reservation == addr:
            src = regs[instr.rs2] & mask
            memory.write_bytes(addr, src.to_bytes(width, "little"))
            state.reservation = None
            if rd:
                regs[rd] = 0
            return ExecResult((pc + 4) & WORD_MASK, rd, 0,
                              MemOp(addr, width, True, src))
        state.reservation = None
        if rd:
            regs[rd] = 1
        return ExecResult((pc + 4) & WORD_MASK, rd, 1)
    return run


def _amo(width: int, fn) -> Handler:
    """Read-modify-write AMO: ``rd`` gets the old value, memory ``fn``'s."""
    mask = (1 << (8 * width)) - 1
    extend = _sext(width)

    def run(state, memory, instr, pc):
        regs = state.regs
        addr = regs[instr.rs1]
        _check_data_addr(memory, addr, width, True)
        old_raw = int.from_bytes(memory.read_bytes(addr, width), "little")
        new_raw = fn(old_raw, regs[instr.rs2] & mask, extend) & mask
        memory.write_bytes(addr, new_raw.to_bytes(width, "little"))
        old_value = extend(old_raw)
        rd = instr.rd
        if rd:
            regs[rd] = old_value
        return ExecResult((pc + 4) & WORD_MASK, rd, old_value,
                          MemOp(addr, width, True, new_raw))
    return run


def _csr_access(kind: str, immediate: bool) -> Handler:
    """csrrw/csrrs/csrrc (``kind`` w/s/c), from rs1 or from the zimm field.

    The CSR is always read; only csrrw/csrrwi write unconditionally, the
    set/clear forms skip the write when their operand register (or zimm)
    is zero.
    """
    def run(state, memory, instr, pc):
        if immediate:
            operand = instr.zimm
            skip_write = kind != "w" and operand == 0
        else:
            operand = state.regs[instr.rs1]
            skip_write = kind != "w" and instr.rs1 == 0
        csr = state.csr
        addr = instr.csr
        old = csr.read(addr, state.priv, instr.raw)
        csr_write = None
        if not skip_write:
            if kind == "w":
                value = operand
            elif kind == "s":
                value = old | operand
            else:
                value = old & ~operand
            csr.write(addr, value, state.priv, instr.raw)
            csr_write = (addr, csr.raw_read(addr))
        rd = instr.rd
        if rd:
            state.regs[rd] = old
        return ExecResult((pc + 4) & WORD_MASK, rd, old, None, csr_write)
    return run


def _ecall(state, memory, instr, pc):
    raise Trap(EXC_ECALL_FROM_M if state.priv == PRV_M else EXC_ECALL_FROM_U)


def _ebreak(state, memory, instr, pc):
    raise Trap(EXC_BREAKPOINT, tval=pc)


def _mret(state, memory, instr, pc):
    if state.priv != PRV_M:
        raise Trap(EXC_ILLEGAL_INSTRUCTION, tval=instr.raw)
    new_priv, return_pc = state.csr.leave_trap()
    state.priv = new_priv
    return ExecResult(return_pc & WORD_MASK)


def _wfi(state, memory, instr, pc):
    return ExecResult((pc + 4) & WORD_MASK, halt=True)


def _fence(state, memory, instr, pc):
    return ExecResult((pc + 4) & WORD_MASK)


def _handlers() -> dict[str, Handler]:
    table: dict[str, Handler] = {
        # U-format decodes rs1 as x0, so lui is "add the immediate to x0".
        "lui": _reg_imm(_OPS["add"]), "auipc": _auipc,
        "jal": _jal, "jalr": _jalr,
        "ecall": _ecall, "ebreak": _ebreak, "mret": _mret, "wfi": _wfi,
        "fence": _fence, "fence.i": _fence,
    }
    table.update((m, _reg_reg(op)) for m, op in _OPS.items())
    table.update((m, _reg_imm(_OPS[op])) for m, op in _IMM_OPS.items())
    table.update((m, _shift_imm(_OPS[op])) for m, op in _SHIFT_IMM_OPS.items())
    table.update((m, _branch(taken)) for m, taken in _BRANCH_TAKEN.items())
    for m, (width, signed) in {
        "lb": (1, True), "lh": (2, True), "lw": (4, True), "ld": (8, True),
        "lbu": (1, False), "lhu": (2, False), "lwu": (4, False),
    }.items():
        table[m] = _load(width, signed)
    for m, width in {"sb": 1, "sh": 2, "sw": 4, "sd": 8}.items():
        table[m] = _store(width)
    for suffix, width in ((".w", 4), (".d", 8)):
        table["lr" + suffix] = _load_reserved(width)
        table["sc" + suffix] = _store_conditional(width)
        for name, fn in _AMO_FN.items():
            table[name + suffix] = _amo(width, fn)
    for kind in "wsc":
        table["csrr" + kind] = _csr_access(kind, immediate=False)
        table["csrr" + kind + "i"] = _csr_access(kind, immediate=True)
    return table


#: Mnemonic -> handler, one entry per implemented instruction.
_HANDLERS: dict[str, Handler] = _handlers()


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
    return _HANDLERS[instr.spec.mnemonic](state, memory, instr, pc)
