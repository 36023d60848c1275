"""Digest pins for the scalar :class:`BoomCore`.

The BOOM counterpart of ``test_rocket_pin.py``: the same body sets (random,
TheHuzz, loops, trap storm, atomics, ``fence.i``) plus two bodies that
train the branch predictor, hashed the same way — every trace entry, the
stop reason, the retired-instruction and cycle counts and the packed
coverage bitmap.  The expected digests were recorded on the core as it
stood before its coverage recording became one packed mask per
instruction, so a rewrite of the recording must leave them unchanged; a
digest moves only when the model's behaviour is meant to change (the
``atomics`` and ``random4`` digests moved once, when failed SCs began to
record ``lsu.sc_success:F``).

Each set runs under the default params, 4-way caches and a tight window
(small ROB, issue queue, load/store queues, RAS and free list), which is
what drives the occupancy conditions to both arms.
"""

from __future__ import annotations

import pytest

from repro.isa.assembler import Assembler
from repro.soc.boom import BoomCore, BoomParams
from repro.soc.harness import build_program

from .test_rocket_pin import BODY_SETS as ROCKET_BODY_SETS
from .test_rocket_pin import _digest

PARAMS = {
    "default": BoomParams(),
    "4way": BoomParams(icache_ways=4, dcache_ways=4),
    "tight": BoomParams(rob_entries=6, issue_queue_entries=4, ldq_entries=2,
                        stq_entries=2, ras_entries=1, phys_regs=36),
}

# Two branches 64 bytes apart index the same one of the 16 BTB entries, so
# each evicts the other (btb_alias).
BTB_ALIAS = """
    li t1, 4
loop:
    bne t0, t0, loop
""" + "    nop\n" * 15 + """
    beq t0, t0, next
next:
    addi t1, t1, -1
    bnez t1, loop
"""

# A never-taken branch retired twice drives its counter down to 0.
CTR_SATURATE = """
    li t1, 4
loop:
    bne t0, t0, loop
    addi t1, t1, -1
    bnez t1, loop
"""

BODY_SETS = {
    **ROCKET_BODY_SETS,
    "bpu": lambda: [Assembler().assemble(text)
                    for text in (BTB_ALIAS, CTR_SATURATE)],
}

EXPECTED = {
    ("atomics", "4way"): "c20a014f5b26e50a",
    ("atomics", "default"): "30d84205774ee47f",
    ("atomics", "tight"): "31570c9140b1d6e2",
    ("bpu", "4way"): "d3a61e32d8d43f55",
    ("bpu", "default"): "d3a61e32d8d43f55",
    ("bpu", "tight"): "07f28ea90be87ca0",
    ("fencei", "4way"): "dbae27db63cda6a4",
    ("fencei", "default"): "dbae27db63cda6a4",
    ("fencei", "tight"): "2fd5d3d5b8be6236",
    ("loops", "4way"): "2cd6b52234875b55",
    ("loops", "default"): "68eca66029b2b449",
    ("loops", "tight"): "5e99362d659e50c5",
    ("random24", "4way"): "17115f09d3de5f98",
    ("random24", "default"): "1f4d5f092b1f08ed",
    ("random24", "tight"): "354a1e837d21f4da",
    ("random4", "4way"): "18f1ecea01da2ec9",
    ("random4", "default"): "18f1ecea01da2ec9",
    ("random4", "tight"): "d2587aeff5bc9ad3",
    ("random64", "4way"): "68754c9d3b8bffda",
    ("random64", "default"): "0d62c9b2f2e81bae",
    ("random64", "tight"): "8ea83f6eccf25183",
    ("thehuzz", "4way"): "2de3905818e08765",
    ("thehuzz", "default"): "369c60301407a9a4",
    ("thehuzz", "tight"): "daab60fcb27b082c",
    ("trap_storm", "4way"): "5198881a522f7d27",
    ("trap_storm", "default"): "5198881a522f7d27",
    ("trap_storm", "tight"): "0cf2d31e4006f2ee",
}


@pytest.mark.parametrize("params", sorted(PARAMS))
@pytest.mark.parametrize("bodies", sorted(BODY_SETS))
def test_digest(bodies, params):
    core = BoomCore(PARAMS[params])
    assert _digest(core, BODY_SETS[bodies]()) == EXPECTED[bodies, params]


def test_stop_reasons_cover_every_limit():
    """The body sets reach each way a run can end."""
    core = BoomCore()
    reasons = {name: [core.run(build_program(b))[0].stop_reason
                      for b in BODY_SETS[name]()]
               for name in ("loops", "trap_storm", "fencei", "bpu")}
    assert reasons["loops"] == ["max_steps"] * 4 + ["max_traps"]
    assert reasons["trap_storm"] == ["max_traps"]
    assert reasons["fencei"] == ["wfi"] * 3 + ["max_steps"]
    assert reasons["bpu"] == ["wfi"] * 2


def test_body_sets_reach_every_arm_but_the_debug_module():
    """Across the three param sets the bodies drive every condition both
    ways, except the debug module's, which instruction fuzzing cannot
    reach."""
    hits = 0
    for params in PARAMS.values():
        core = BoomCore(params)
        for make_bodies in BODY_SETS.values():
            for body in make_bodies():
                hits |= core.run(build_program(body))[1].hits.to_int()
    cov = core.cov
    missed = {cov.arm_name(arm) for arm in range(cov.total_arms)
              if not hits >> arm & 1}
    assert missed == {"boom.dm.halt_req:F", "boom.dm.halt_req:T",
                      "boom.dm.single_step:F", "boom.dm.single_step:T"}
