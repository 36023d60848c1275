"""Digest pins for the scalar :class:`GoldenSimulator`.

The golden counterpart of ``tests/soc/test_rocket_pin.py``.  Every case
runs a fixed set of bodies (wrapped by ``build_program``) and hashes, per
body, every trace entry, the stop reason and the retired-instruction
count.  The expected digests were recorded on the interpreter as it stood
before its step was reworked (record construction, instruction dispatch,
fetch and counter updates), so any later optimisation of the step must
leave them unchanged; a digest moves only when the model's behaviour is
meant to change.

The bodies are the Rocket pin's sets plus the shapes that touch the trap
handler's machinery: stores into the handler image, ``mtvec`` retargets,
``mscratch``/``mepc`` writes (including an ``mret`` to a pc that is 2 mod
4), and step budgets that run out inside the handler.  Each set runs with
the harness limits and with a small trap budget.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.golden.simulator import (GoldenSimulator, SimConfig, load_image,
                                    step_instruction)
from repro.golden.state import ArchState
from repro.isa.assembler import Assembler
from repro.isa.encoder import encode
from repro.isa.spec import DRAM_BASE, TRAP_VECTOR
from repro.soc.harness import build_program

from soc.test_rocket_pin import BODY_SETS as ROCKET_BODY_SETS

CONFIGS = {
    "default": SimConfig(),
    "few_traps": SimConfig(max_traps=3),
}


def _asm(text: str) -> list[int]:
    return Assembler().assemble(text)


def _li32(reg: str, value: int) -> str:
    """``lui``/``addiw`` pair loading a 32-bit ``value`` into ``reg``."""
    hi = ((value + 0x800) >> 12) & 0xFFFFF
    lo = value - ((value + 0x800) >> 12 << 12)
    return f"lui {reg}, {hi:#x}\n    addiw {reg}, {reg}, {lo}"


# t5 = TRAP_VECTOR (gp sits at DRAM_BASE + 0x80000 after the preamble).
_T5_HANDLER = f"lui t5, {(TRAP_VECTOR - 0x8008_0000) >> 12:#x}\n    add t5, gp, t5"

HANDLER_STORES = [
    # The handler's "addi x31, x31, 4" becomes "+ 8": every trap now skips
    # the instruction after the faulting one, the terminator included.
    f"""
    {_T5_HANDLER}
    {_li32("t0", encode("addi", rd=31, rs1=31, imm=8))}
    sw t0, 8(t5)
    ecall
    addi a0, a0, 1
    addi a1, a1, 1
    .word 0xFFFFFFFF
    addi a2, a2, 1
    ebreak
    """,
    # The mret loses its low byte and becomes illegal: a trap inside the
    # handler re-enters it until the trap budget runs out.
    f"""
    {_T5_HANDLER}
    sb x0, 20(t5)
    addi a0, a0, 1
    ecall
    addi a0, a0, 2
    """,
    # The mret becomes wfi: the first trap ends the run inside the handler.
    f"""
    {_T5_HANDLER}
    {_li32("t0", encode("wfi"))}
    sw t0, 20(t5)
    ld t1, 1(gp)
    addi a0, a0, 1
    """,
    # The handler's first word becomes mret: it returns to the faulting
    # instruction, which faults again.
    f"""
    {_T5_HANDLER}
    {_li32("t0", encode("mret"))}
    sw t0, 0(t5)
    .word 0
    """,
    # A halfword store turns "addi x31, x31, 4" into "addi x31, ra, 0":
    # the trap returns to ra, which is the terminator.
    f"""
    {_T5_HANDLER}
    sh x0, 10(t5)
    ld t1, 0(t5)
    ecall
    """,
]

MTVEC_WRITES = [
    # A handler inside the body: traced, since it is outside the stub.
    """
    jal t0, setup
    csrr t6, mepc
    addi t6, t6, 4
    csrw mepc, t6
    mret
setup:
    csrw mtvec, t0
    ecall
    addi a0, a0, 1
    .word 0
    ebreak
    csrw mtvec, t3
    """,
    # An unmapped vector: every trap entry faults on its fetch.
    """
    li t0, 16
    csrw mtvec, t0
    ecall
    """,
    # The low mode bits are dropped (direct mode only); then a vector into
    # the middle of the stub, which skips saving x31.
    f"""
    {_T5_HANDLER}
    ori t0, t5, 3
    csrw mtvec, t0
    ecall
    addi t0, t5, 8
    csrw mtvec, t0
    li x31, 64
    ecall
    addi a0, a0, 1
    ebreak
    """,
]

EPC_SCRATCH_WRITES = [
    # mscratch holds a value across traps (the stub swaps x31 through it).
    """
    li t0, 99
    csrw mscratch, t0
    ecall
    csrr t1, mscratch
    li x31, 7
    ebreak
    csrrw t2, mscratch, x31
    addi t2, t2, 1
    """,
    # mret to a written mepc (the next instruction), then to a pc that is
    # 2 mod 4 (mepc clears bit 0 only): each fetch there reads across two
    # words, and the run stays misaligned until the trap budget runs out.
    """
    auipc t0, 0
    addi t0, t0, 16
    csrw mepc, t0
    mret
    addi a0, a0, 1
    auipc t0, 0
    addi t0, t0, 18
    csrw mepc, t0
    mret
    addi a1, a1, 1
    addi a2, a2, 1
    addi a3, a3, 1
    """,
    # mret to an odd mepc (bit 0 is cleared), then to an unmapped one.
    """
    auipc t0, 0
    addi t0, t0, 21
    csrw mepc, t0
    mret
    addi a0, a0, 1
    li t0, 4
    csrw mepc, t0
    mret
    """,
    # mepc written inside a trapping loop: the stub overwrites it.
    """
    li t2, 3
loop:
    csrw mepc, x0
    ecall
    addi t2, t2, -1
    bnez t2, loop
    """,
]

BODY_SETS = {
    **ROCKET_BODY_SETS,
    "handler_stores": lambda: [_asm(text) for text in HANDLER_STORES],
    "mtvec": lambda: [_asm(text) for text in MTVEC_WRITES],
    "epc_scratch": lambda: [_asm(text) for text in EPC_SCRATCH_WRITES],
}

EXPECTED = {
    ("atomics", "default"): "97dd445b63e2275c",
    ("atomics", "few_traps"): "dac05aaf3df2dd63",
    ("epc_scratch", "default"): "e683596aaf1e04be",
    ("epc_scratch", "few_traps"): "6cadc513b4ec8fe6",
    ("fencei", "default"): "76bf7d411b84f335",
    ("fencei", "few_traps"): "76bf7d411b84f335",
    ("handler_stores", "default"): "925fc0a234bf4bed",
    ("handler_stores", "few_traps"): "102e4ce0fabb9a93",
    ("loops", "default"): "d5a884195ee4cad3",
    ("loops", "few_traps"): "a1efb7e8cf597524",
    ("mtvec", "default"): "cfad20d2d79166a2",
    ("mtvec", "few_traps"): "6bcd95621e9f9c8a",
    ("random24", "default"): "90e4300c9461670d",
    ("random24", "few_traps"): "248357b6b90d29d7",
    ("random4", "default"): "34c24de4fa59cf9b",
    ("random4", "few_traps"): "8b44eab02bd22248",
    ("random64", "default"): "6d578c0a80a5def1",
    ("random64", "few_traps"): "ec808bf816a98396",
    ("thehuzz", "default"): "e738e60a5a8b7ddf",
    ("thehuzz", "few_traps"): "3bfea6a747af899b",
    ("trap_storm", "default"): "a4d57544de7babec",
    ("trap_storm", "few_traps"): "42a2daf69fcd35ee",
    ("budget", "default"): "1b279f6ce7aefc98",
}


def _digest(sim: GoldenSimulator, programs) -> str:
    h = hashlib.sha256()
    for program in programs:
        trace = sim.run(program)
        for e in trace.entries:
            mem = e.mem and (e.mem.addr, e.mem.size, e.mem.is_store,
                             e.mem.data)
            h.update(repr((e.pc, e.instr, e.priv, e.rd, e.rd_value, mem,
                           e.trap_cause, e.trap_tval, e.csr_write)).encode())
        h.update(repr((trace.stop_reason, trace.instret)).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("bodies", sorted(BODY_SETS))
def test_digest(bodies, config):
    sim = GoldenSimulator(CONFIGS[config])
    programs = [build_program(body) for body in BODY_SETS[bodies]()]
    assert _digest(sim, programs) == EXPECTED[bodies, config]


def test_handler_shapes_reach_their_ends():
    """The handler bodies end the ways their comments say."""
    sim = GoldenSimulator()
    reasons = {name: [sim.run(build_program(b)).stop_reason
                      for b in BODY_SETS[name]()]
               for name in ("handler_stores", "mtvec", "epc_scratch")}
    assert reasons == {
        "handler_stores": ["max_traps", "max_traps", "wfi", "max_traps",
                           "wfi"],
        "mtvec": ["wfi", "max_traps", "wfi"],
        "epc_scratch": ["wfi", "max_traps", "max_traps", "wfi"],
    }


# A trap every second instruction: the handler is entered over and over.
TRAP_LOOP = """
loop:
    ecall
    .word 0xFFFFFFFF
    lw t0, 1(gp)
    j loop
"""


def _budget_programs() -> list[list[int]]:
    return [build_program(_asm(TRAP_LOOP))]


def _last_pc(program: list[int], max_steps: int) -> int:
    """The pc of the last step of ``program`` under ``max_steps``, found by
    stepping :func:`step_instruction`, which also takes handler steps."""
    state = ArchState(pc=DRAM_BASE)
    memory = load_image(program, DRAM_BASE)
    config = SimConfig(max_steps=max_steps)
    traps = 0
    for _ in range(max_steps):
        pc = state.pc
        traps, stop = step_instruction(state, memory, config, traps)[1:]
        if stop is not None:
            break
    return pc


def test_budget_runs_out_inside_the_handler():
    """Step budgets that end at every position of the handler stub."""
    program = _budget_programs()[0]
    first_trap = len(program) - len(_asm(TRAP_LOOP)) - 1
    handler = range(TRAP_VECTOR, TRAP_VECTOR + 24)
    h = hashlib.sha256()
    ends_in_handler = []
    for max_steps in range(first_trap, first_trap + 40):
        last = _last_pc(program, max_steps)
        if last in handler:
            ends_in_handler.append(last)
        limits = SimConfig(max_steps=max_steps)
        h.update(repr(_digest(GoldenSimulator(limits), [program])).encode())
    assert len(ends_in_handler) >= 24
    assert set(ends_in_handler) == set(handler[::4])
    assert h.hexdigest()[:16] == EXPECTED["budget", "default"]
