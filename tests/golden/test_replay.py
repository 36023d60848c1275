"""Steady-loop replay in :meth:`GoldenSimulator.run` against plain stepping.

``run`` appends the rest of a run once it settles into a loop whose state
repeats (see the :mod:`repro.golden.simulator` docstring).  The reference
here is the loop it replaced: :func:`step_instruction` called until a stop
reason or ``max_steps``.  Every body must give the same trace entries, stop
reason and ``instret`` both ways.

The hand-written loops cover what a period may and may not hold: stores of
the same and of a changing value, stores into the loop's own code, mul/div,
counter CSR reads, a CSR write, a trap every pass, LR/SC, calls, a loop
whose key repeats while memory does not, a counting loop that fills the
loop-head table, and loops whose microarchitectural state settles late or
never (``tests/soc/test_rocket_replay.py`` runs the same bodies on Rocket).
``REPLAYED`` names the loops that must replay, so a change that silently
stops replaying, or starts replaying a period the rule excludes, fails
here too.  ``LOOP_STEPS`` and ``GENERATED_STEPS`` pin how many steps each
body interprets, so a replay that starts a period early or late fails
even when its trace matches.
"""

from __future__ import annotations

import pytest

import repro.golden.simulator as simulator
from repro.baselines.random_regression import RandomRegressionGenerator
from repro.baselines.thehuzz import TheHuzzGenerator
from repro.golden.memory import SparseMemory
from repro.golden.simulator import (HEADS_CAP, GoldenSimulator, SimConfig,
                                    SteadyReplay, step_instruction,
                                    trap_handler_image)
from repro.golden.state import ArchState
from repro.golden.trace import CommitTrace
from repro.isa.assembler import Assembler
from repro.isa.encoder import encode
from repro.isa.spec import DRAM_BASE, TRAP_VECTOR
from repro.soc.harness import build_program

CONFIGS = {
    "default": SimConfig(),
}


def _patch_word() -> str:
    """``t0`` = ``xori t2, t2, 3``, the word the self-modifying loop stores."""
    word = encode("xori", rd=7, rs1=7, imm=3)
    return f"lui t0, {word >> 12:#x}\n    addi t0, t0, {word & 0xFFF}"


# gp points at data (DRAM_BASE + 0x80000); with 2-way, 8-set, 32-byte
# caches, gp, gp+256 and gp+512 fall in one D$ set.
LOOPS = {
    "spin": """
    spin:
        j spin
    """,
    # t0 counts 0..7 and t1 XORs it in: the state repeats every 8 passes.
    "alu": """
    loop:
        addi t0, t0, 1
        andi t0, t0, 7
        xor t1, t1, t0
        j loop
    """,
    "load": """
    loop:
        ld t0, 0(gp)
        add t1, t0, t0
        j loop
    """,
    "store_same": """
    loop:
        sd a1, 8(gp)
        ld t1, 8(gp)
        j loop
    """,
    # The stored value alternates, so the state repeats every two passes.
    "store_toggle": """
    loop:
        xori t0, t0, 1
        sw t0, 16(gp)
        lw t1, 16(gp)
        j loop
    """,
    # The registers at the head repeat every pass, memory never does.
    "memory_counter": """
    loop:
        ld t1, 24(gp)
        addi t1, t1, 1
        sd t1, 24(gp)
        li t1, 0
        j loop
    """,
    # Runs its own 'xori t2, t2, 1' once, then patches it into 'xori t2,
    # t2, 3' every pass.  Under Bug1 Rocket keeps serving the stale line
    # from its I$.
    "self_modifying": f"""
        auipc t1, 0
        {_patch_word()}
        j target
    loop:
        sw t0, 20(t1)
    target:
        xori t2, t2, 1
        j loop
    """,
    "muldiv": """
    loop:
        mul t3, a0, a1
        div t4, t3, a1
        rem t5, t3, a0
        mulh t6, t3, a2
        j loop
    """,
    "mcycle_to_reg": """
    loop:
        csrr t0, mcycle
        csrr t1, minstret
        j loop
    """,
    "mcycle_to_x0": """
    loop:
        csrrs x0, mcycle, x0
        csrrs x0, minstret, x0
        j loop
    """,
    "csr_write": """
    loop:
        csrw mscratch, a1
        j loop
    """,
    "trap_every_pass": """
    loop:
        addi t0, t0, 0
        ecall
        j loop
    """,
    "lr_sc": """
    loop:
        lr.w t0, (gp)
        sc.w t1, t0, (gp)
        j loop
    """,
    # s1 = the address of 'jal ra, f', so the jalr closes the loop
    # through a register.
    "call": """
        auipc s1, 0
        addi s1, s1, 8
    loop:
        jal ra, f
        jalr x0, 0(s1)
    f:
        addi a3, a0, 1
        ret
    """,
    # A taken branch warms the predictor over two passes, the two lines of
    # one D$ set reach their reuse count after three and the hit streak
    # after two.
    "settles_late": """
    loop:
        ld t0, 0(gp)
        ld t1, 256(gp)
        sd t0, 0(gp)
        beq t0, t0, next
        nop
    next:
        addi t3, t1, 0
        j loop
    """,
    # 300 passes of a counting loop fill the loop-head table (HEADS_CAP),
    # which starts over, before the spin loop.
    "count_then_spin": """
        li t0, 300
    count:
        addi t0, t0, -1
        bnez t0, count
    spin:
        j spin
    """,
    # Three lines of one set in a 2-way D$: the ways they land in rotate
    # with a period of three passes.
    "thrash": """
    loop:
        ld t0, 0(gp)
        ld t1, 256(gp)
        ld t3, 512(gp)
        j loop
    """,
}

#: Loops whose run must skip steps under the default limits.
REPLAYED = {"spin", "alu", "load", "store_same", "store_toggle",
            "self_modifying", "muldiv", "call", "settles_late", "thrash",
            "count_then_spin"}

#: Steps ``GoldenSimulator.run`` interprets per loop, and per generated
#: body in order, under the default limits.  Recorded when the golden
#: model and Rocket each kept their own loop-head bookkeeping.
LOOP_STEPS = {
    "alu": 96, "call": 32, "count_then_spin": 622, "csr_write": 4096,
    "load": 28, "lr_sc": 4096, "mcycle_to_reg": 4096, "mcycle_to_x0": 4096,
    "memory_counter": 4096, "muldiv": 36, "self_modifying": 40,
    "settles_late": 40, "spin": 21, "store_same": 28, "store_toggle": 40,
    "thrash": 32, "trap_every_pass": 587,
}
GENERATED_STEPS = [
    473, 511, 98, 467, 33, 469, 469, 31, 79, 463, 461, 462, 103, 474, 462,
    97, 91, 35, 462, 58, 21, 465, 469, 127, 19, 98, 103, 79,
]


def _asm(text: str) -> list[int]:
    return Assembler().assemble(text)


def loop_programs() -> dict[str, list[int]]:
    """Each loop as a full program image."""
    return {name: build_program(_asm(text)) for name, text in LOOPS.items()}


def late_loop_program(name: str, prefix: int) -> list[int]:
    """Loop ``name`` behind ``prefix`` nops."""
    return build_program([encode("addi", rd=0, rs1=0, imm=0)] * prefix
                         + _asm(LOOPS[name]))


def generated_programs() -> list[list[int]]:
    """Random-regression and TheHuzz bodies."""
    random_gen = RandomRegressionGenerator(body_instructions=24, seed=5)
    thehuzz = TheHuzzGenerator(body_instructions=24, seed=6)
    bodies = random_gen.generate_batch(12) + thehuzz.generate_batch(16)
    return [build_program(t.words) for t in bodies]


def stepped(config: SimConfig, program: list[int]) -> CommitTrace:
    """The run as plain stepping: :func:`step_instruction` to the end."""
    memory = SparseMemory()
    memory.load_program(program, DRAM_BASE)
    memory.load_program(trap_handler_image(), TRAP_VECTOR)
    state = ArchState(pc=DRAM_BASE)
    trace = CommitTrace()
    traps = 0
    for _ in range(config.max_steps):
        entry, traps, stop = step_instruction(state, memory, config, traps)
        if entry is not None:
            trace.entries.append(entry)
        if stop is not None:
            trace.stop_reason = stop
            break
    else:
        trace.stop_reason = "max_steps"
    trace.instret = len(trace.entries)
    return trace


def assert_same(trace: CommitTrace, reference: CommitTrace) -> None:
    assert trace.stop_reason == reference.stop_reason
    assert trace.instret == reference.instret
    assert len(trace.entries) == len(reference.entries)
    assert trace.entries == reference.entries


def count_steps(monkeypatch, sim: GoldenSimulator, program) -> tuple:
    """Run ``program``; returns the trace and the steps interpreted."""
    calls = []

    def counted(*args):
        calls.append(None)
        return step_instruction(*args)

    monkeypatch.setattr(simulator, "step_instruction", counted)
    trace = sim.run(program)
    monkeypatch.undo()
    return trace, len(calls)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", sorted(LOOPS))
def test_loop_matches_stepping(name, config):
    program = loop_programs()[name]
    assert_same(GoldenSimulator(CONFIGS[config]).run(program),
                stepped(CONFIGS[config], program))


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_generated_bodies_match_stepping(config):
    sim = GoldenSimulator(CONFIGS[config])
    for program in generated_programs():
        assert_same(sim.run(program), stepped(CONFIGS[config], program))


#: Loops with periods of 1, 4, 6 and 32 steps.
BUDGET_LOOPS = ("spin", "call", "store_toggle", "alu")


@pytest.mark.parametrize("max_steps", [200, 201, 202, 203, 204, 205, 1001])
def test_budget_not_a_multiple_of_the_period(monkeypatch, max_steps):
    sim = GoldenSimulator(SimConfig(max_steps=max_steps))
    for name in BUDGET_LOOPS:
        program = loop_programs()[name]
        trace, steps = count_steps(monkeypatch, sim, program)
        assert steps < max_steps  # replayed, then stepped the tail
        assert_same(trace, stepped(sim.config, program))


@pytest.mark.parametrize("name", ["store_toggle", "alu"])
def test_loop_entered_just_before_the_budget_ends(name):
    """Budgets that end before the loop's third pass, just after it (no
    whole period left to replay) and a few periods later."""
    program = late_loop_program(name, 60)
    head = len(program) - len(_asm(LOOPS[name])) - 1
    for max_steps in range(head, head + 120):
        config = SimConfig(max_steps=max_steps)
        assert_same(GoldenSimulator(config).run(program),
                    stepped(config, program))


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_replays_exactly_the_steady_loops(monkeypatch, name):
    """The loops in REPLAYED skip steps; every other loop steps to its
    end (a period with a CSR access, trap, AMO/LR/SC, or whose stores
    differ, is never replayed).  Replay starts at the pinned step."""
    sim = GoldenSimulator()
    trace, steps = count_steps(monkeypatch, sim, loop_programs()[name])
    replayed = trace.stop_reason == "max_steps" and steps < 4096
    assert replayed == (name in REPLAYED)
    assert steps == LOOP_STEPS[name]


def test_spin_loop_interprets_few_steps(monkeypatch):
    trace, steps = count_steps(monkeypatch, GoldenSimulator(),
                               loop_programs()["spin"])
    assert trace.stop_reason == "max_steps" and trace.instret > 4000
    assert steps < 64


def test_generated_steps_are_pinned(monkeypatch):
    sim = GoldenSimulator()
    assert [count_steps(monkeypatch, sim, program)[1]
            for program in generated_programs()] == GENERATED_STEPS


def test_loop_head_table_is_bounded():
    replay = SteadyReplay(4096)
    state = ArchState()
    for step in range(1, 3 * HEADS_CAP):
        state.pc = 4 * step
        replay.at_head(state, step, 0, [])
        assert len(replay.heads) <= HEADS_CAP
