"""Steady-loop replay in :meth:`RocketCore.run` against plain stepping.

``run`` appends the rest of a run once it settles into a loop whose
architectural and microarchitectural state repeat (see the
:mod:`repro.soc.rocket.core` docstring).  The reference here is the loop
it replaced: :meth:`~RocketCore.begin_run`, :meth:`~RocketCore.step_cycle`
until it returns False, :meth:`~RocketCore.finish_run`.  Every body must
give the same trace entries, stop reason, ``instret``, cycle count and
coverage bitmap both ways, under the default core, the bug-free core,
4-way caches and the timed counter CSR.

The bodies are the golden replay test's (``tests/golden/test_replay.py``).
``LOOP_CYCLES`` and the golden test's ``GENERATED_STEPS`` pin how many
cycles each body steps, so a replay that starts a period early or late
fails even when its trace and coverage match.
"""

from __future__ import annotations

import pytest

from golden.test_replay import (BUDGET_LOOPS, GENERATED_STEPS, LOOPS, _asm,
                                generated_programs, late_loop_program,
                                loop_programs)
from repro.golden.trace import CommitTrace
from repro.rtl.report import CoverageReport
from repro.soc.rocket import RocketCore, RocketParams

PARAMS = {
    "default": RocketParams(),
    "clean": RocketParams.clean(),
    "4way": RocketParams(icache_ways=4, dcache_ways=4),
    "timed": RocketParams(timed_counter_csr=True),
}

#: Loops whose run must skip cycles under the default params.  The thrash
#: loop's D$ ways rotate with three times its period, so its state never
#: equals one period earlier on 2-way caches; it replays on 4-way ones.
REPLAYED = {"spin", "alu", "load", "store_same", "store_toggle",
            "self_modifying", "muldiv", "call", "settles_late",
            "count_then_spin"}

#: How many times ``RocketCore.run`` calls ``step_cycle`` per loop under
#: the default params; a run that reaches ``max_steps`` makes one more
#: call, which finds the budget spent.  Recorded when the golden model and
#: Rocket each kept their own loop-head bookkeeping.  No generated body
#: runs to ``max_steps``, so Rocket steps them as the golden model does.
LOOP_CYCLES = {
    "alu": 129, "call": 37, "count_then_spin": 624, "csr_write": 4097,
    "load": 38, "lr_sc": 4097, "mcycle_to_reg": 4097, "mcycle_to_x0": 4097,
    "memory_counter": 4097, "muldiv": 42, "self_modifying": 47,
    "settles_late": 47, "spin": 23, "store_same": 32, "store_toggle": 49,
    "thrash": 4097, "trap_every_pass": 587,
}


def stepped(core: RocketCore, program: list[int]):
    """The run as plain stepping through the per-cycle hook."""
    rs = core.begin_run(program)
    while core.step_cycle(rs):
        pass
    return core.finish_run(rs)


def assert_same(result: tuple[CommitTrace, CoverageReport],
                reference: tuple[CommitTrace, CoverageReport]) -> None:
    (trace, report), (ref_trace, ref_report) = result, reference
    assert trace.stop_reason == ref_trace.stop_reason
    assert trace.instret == ref_trace.instret
    assert trace.cycles == ref_trace.cycles
    assert len(trace.entries) == len(ref_trace.entries)
    assert trace.entries == ref_trace.entries
    assert report.hits.to_int() == ref_report.hits.to_int()
    assert report.cycles == ref_report.cycles


def count_cycles(core: RocketCore, program) -> tuple:
    """Run ``program``; returns the result and the cycles stepped."""
    calls = []
    step = core.step_cycle

    def counted(rs):
        calls.append(None)
        return step(rs)

    core.step_cycle = counted
    try:
        result = core.run(program)
    finally:
        del core.step_cycle
    return result, len(calls)


@pytest.mark.parametrize("params", sorted(PARAMS))
@pytest.mark.parametrize("name", sorted(LOOPS))
def test_loop_matches_stepping(name, params):
    program = loop_programs()[name]
    core = RocketCore(PARAMS[params])
    assert_same(core.run(program), stepped(core, program))


@pytest.mark.parametrize("params", sorted(PARAMS))
def test_generated_bodies_match_stepping(params):
    core = RocketCore(PARAMS[params])
    for program in generated_programs():
        assert_same(core.run(program), stepped(core, program))


@pytest.mark.parametrize("max_steps", [200, 201, 202, 203, 204, 205, 1001])
def test_budget_not_a_multiple_of_the_period(max_steps):
    core = RocketCore(RocketParams(max_steps=max_steps))
    for name in BUDGET_LOOPS:
        program = loop_programs()[name]
        result, cycles = count_cycles(core, program)
        assert cycles < max_steps  # replayed, then stepped the tail
        assert_same(result, stepped(core, program))


@pytest.mark.parametrize("name", ["store_toggle", "alu"])
def test_loop_entered_just_before_the_budget_ends(name):
    program = late_loop_program(name, 60)
    head = len(program) - len(_asm(LOOPS[name])) - 1
    for max_steps in range(head, head + 120, 3):
        core = RocketCore(RocketParams(max_steps=max_steps))
        assert_same(core.run(program), stepped(core, program))


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_replays_exactly_the_steady_loops(name):
    """The loops in REPLAYED skip cycles; every other loop steps to its
    end.  Replay starts at the pinned cycle."""
    (trace, _), cycles = count_cycles(RocketCore(), loop_programs()[name])
    replayed = trace.stop_reason == "max_steps" and cycles <= 4096
    assert replayed == (name in REPLAYED)
    assert cycles == LOOP_CYCLES[name]


def test_thrash_replays_on_four_ways():
    core = RocketCore(PARAMS["4way"])
    (trace, _), cycles = count_cycles(core, loop_programs()["thrash"])
    assert trace.stop_reason == "max_steps" and cycles < 4096


def test_spin_loop_steps_few_cycles():
    (trace, report), cycles = count_cycles(RocketCore(),
                                           loop_programs()["spin"])
    assert trace.stop_reason == "max_steps" and trace.instret > 4000
    assert report.cycles > 4000
    assert cycles < 64


def test_generated_cycles_are_pinned():
    core = RocketCore()
    assert [count_cycles(core, program)[1]
            for program in generated_programs()] == GENERATED_STEPS
