"""Digest pins for the scalar :class:`RocketCore`.

Every case runs a fixed set of bodies (wrapped by ``build_program``) through
one core and hashes, per body, every trace entry, the stop reason, the
retired-instruction and cycle counts and the packed coverage bitmap
(``report.hits.to_int()``).  The expected digests were recorded on the core
as it stood before its per-cycle coverage recording became one packed-mask
fold, so any optimisation of the scalar hot path must leave them unchanged;
a digest moves only when the model's behaviour is meant to change.

The body sets cover the traffic the core sees in campaigns: seeded random
and TheHuzz-mutated bodies, loop-heavy bodies that run to ``max_steps``
(the shape ChatFuzz emits), a trap storm that ends at ``max_traps``,
LR/SC/AMO chains and self-modifying code around ``fence.i`` (Bug1).  Each
runs under the default params, the bug-free core, the timed counter CSR
and 4-way caches; the last geometry never reaches the lane engine
(``DutBatchSimulator`` only batches 2-way caches), so only this file pins
its ways beyond the first two.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines.random_regression import RandomRegressionGenerator
from repro.baselines.thehuzz import TheHuzzGenerator
from repro.isa.assembler import Assembler
from repro.isa.encoder import encode
from repro.soc.harness import build_program
from repro.soc.rocket import RocketCore, RocketParams

PARAMS = {
    "default": RocketParams(),
    "clean": RocketParams.clean(),
    "timed": RocketParams(timed_counter_csr=True),
    "4way": RocketParams(icache_ways=4, dcache_ways=4),
}


def _asm(text: str) -> list[int]:
    return Assembler().assemble(text)


def _random(body_len: int, seed: int, n: int):
    def bodies():
        gen = RandomRegressionGenerator(body_instructions=body_len, seed=seed)
        return [t.words for t in gen.generate_batch(n)]
    return bodies


def _thehuzz() -> list[list[int]]:
    """Two TheHuzz rounds: random seeds, then bodies mutated from the seeds
    whose coverage (on a default core) was new."""
    gen = TheHuzzGenerator(body_instructions=24, seed=24)
    core = RocketCore()
    seeds = gen.generate_batch(10)
    reports = [core.run(build_program(t.words))[1] for t in seeds]
    gen.observe(seeds, [None] * len(seeds), [0.0] * len(seeds),
                reports=reports)
    return [t.words for t in seeds + gen.generate_batch(10)]


# Loop-heavy bodies: the first four run to max_steps; the user-mode one
# traps on every iteration and ends at max_traps.
LOOPS = [
    # Counted accumulator with a stack spill/reload and a compare feeding
    # the back-edge (branch_after_cmp, spill_reload, hit streaks).
    """
        addi sp, sp, -32
        sd ra, 24(sp)
        li a0, 0
    loop:
        lw t0, 0(s0)
        addi t0, t0, 3
        sw t0, 0(s0)
        add a0, a0, t0
        sd a0, 8(sp)
        ld a1, 8(sp)
        slt t1, a1, x0
        beq t1, x0, loop
        ld ra, 24(sp)
        addi sp, sp, 32
        ret
    """,
    # Nested calls with ra spilled, returns through the link, mul/div
    # chains in the callee (call_depth2, call_return_pair, div_after_mul).
    """
    loop:
        jal ra, outer
        j loop
    outer:
        addi sp, sp, -16
        sd ra, 8(sp)
        jal ra, inner
        ld ra, 8(sp)
        addi sp, sp, 16
        ret
    inner:
        mul a0, a0, a1
        mulh a2, a0, a1
        div a3, a0, a2
        rem a4, a1, x0
        divu a5, a0, a0
        mulhu a6, a5, a4
        ret
    """,
    # A branch taken both ways, line-crossing streams and same-set
    # traffic (set_thrash, victim_revisit, cross_line_pair, coalesce).
    """
        li t2, 0
    loop:
        andi t0, t2, 1
        beqz t0, even
        sd t2, 0(gp)
        sd t2, 256(gp)
        sd t2, 256(gp)
        j next
    even:
        ld t1, 512(gp)
        ld t1, 0(gp)
        sb t1, -8(sp)
    next:
        addi t2, t2, 1
        andi t3, t2, 63
        slli t3, t3, 3
        add t4, gp, t3
        sw t2, 0(t4)
        lw t5, 32(t4)
        sltiu t6, t2, 2047
        bnez t6, loop
        j loop
    """,
    # CSR traffic: counters (timed under timed_counter_csr), a scratch
    # round trip, an mstatus write clearing MPP and an mepc write.
    """
    loop:
        csrr t0, mcycle
        csrw mscratch, t0
        csrr t1, mscratch
        csrr t2, cycle
        csrr t3, instret
        csrrs x0, mstatus, x0
        csrrc t4, mstatus, x0
        csrw mepc, t4
        csrrwi x0, mscratch, 5
        csrrsi t5, mscratch, 0
        slli t6, t0, 0
        j loop
    """,
    # Drop to user mode, then ecall / privileged CSR reads from U.
    """
        auipc t0, 0
        addi t0, t0, 20
        csrw mepc, t0
        csrw mstatus, x0
        mret
    user:
        csrr t1, mstatus
        addi t2, t2, 1
        ecall
        j user
    """,
]

TRAP_STORM = """
loop:
    ecall
    .word 0xFFFFFFFF
    ld t0, 1(gp)
    lw t0, 0(x0)
    lw t0, 1(x0)
    sd t0, 3(gp)
    csrw cycle, t0
    ebreak
    j loop
"""

ATOMICS = """
    addi s1, gp, 64
    addi s2, gp, 2
loop:
    lr.w t0, (gp)
    addi t0, t0, 1
    sc.w t1, t0, (gp)
    lr.w t0, (gp)
    sw t0, 0(gp)
    sc.w t1, t0, (gp)
    lr.d a1, (s1)
    lr.d a2, (s1)
    sc.d a3, a2, (s1)
    amoadd.w t2, t1, (gp)
    amoswap.w t3, t2, (gp)
    amoor.d x0, t3, (s1)
    amomax.w a4, t3, (gp)
    amoand.d a5, a4, (s1)
    amoadd.w t4, t2, (s2)
    j loop
"""

# Self-modifying code around the I$.  SMC patches 'addi t2, t2, 2' to
# 'addi t2, t2, 1' after executing it once, then executes it again behind
# {barrier}; the loop re-patches and restores its target every iteration
# with fence.i on every other one, so half the executions can be stale.
SMC = """
    auipc t1, 0
    addi t1, t1, 36
    lui t0, 0x138
    addi t0, t0, 0x393
    addi t3, x0, 0
    j target
patch:
    sw t0, 0(t1)
    {barrier}
    j target
target:
    addi t2, t2, 2
    bne t3, x0, done
    addi t3, x0, 1
    j patch
done:
"""

SMC_LOOP = """
    auipc t1, 0
    addi t1, t1, 36
    lui t0, 0x138
    addi t0, t0, 0x393
    lw t4, 0(t1)
loop:
    sw t0, 0(t1)
    andi a1, t2, 1
    beqz a1, target
    fence.i
target:
    addi t2, t2, 2
    sw t4, 0(t1)
    j loop
"""

BODY_SETS = {
    "random4": _random(4, 21, 12),
    "random24": _random(24, 22, 8),
    "random64": _random(64, 23, 6),
    "thehuzz": _thehuzz,
    "loops": lambda: [_asm(text) for text in LOOPS],
    "trap_storm": lambda: [_asm(TRAP_STORM)],
    "atomics": lambda: [_asm(ATOMICS)],
    "fencei": lambda: [_asm(SMC.format(barrier=b))
                       for b in ("nop", "fence.i", "fence")] + [_asm(SMC_LOOP)],
}

EXPECTED = {
    ("atomics", "4way"): "cc3bc5b5954fdd90",
    ("atomics", "clean"): "77114ad614df6285",
    ("atomics", "default"): "cc3bc5b5954fdd90",
    ("atomics", "timed"): "cc3bc5b5954fdd90",
    ("fencei", "4way"): "fe72ea74366f5fa9",
    ("fencei", "clean"): "3d74f9e70ef27d59",
    ("fencei", "default"): "fe72ea74366f5fa9",
    ("fencei", "timed"): "fe72ea74366f5fa9",
    ("loops", "4way"): "786f25d2e2a17b5e",
    ("loops", "clean"): "d4327cdfde78dfd6",
    ("loops", "default"): "59e6a4ea503ef65f",
    ("loops", "timed"): "e2d25dcf2de8c76d",
    ("random24", "4way"): "53f1819aa142ce08",
    ("random24", "clean"): "fcd376d317f6e9fc",
    ("random24", "default"): "0513e9e1c65c8fd1",
    ("random24", "timed"): "0513e9e1c65c8fd1",
    ("random4", "4way"): "f59a12ffe5233e2a",
    ("random4", "clean"): "27c86558acd45c1f",
    ("random4", "default"): "f59a12ffe5233e2a",
    ("random4", "timed"): "f59a12ffe5233e2a",
    ("random64", "4way"): "505b13d6caf96e84",
    ("random64", "clean"): "7bd86de2d025515f",
    ("random64", "default"): "3d3dc61377f77e17",
    ("random64", "timed"): "3d3dc61377f77e17",
    ("thehuzz", "4way"): "307093cb2e3a781f",
    ("thehuzz", "clean"): "8839a687f470baee",
    ("thehuzz", "default"): "497f756606df351f",
    ("thehuzz", "timed"): "1aaff0ef62274a47",
    ("trap_storm", "4way"): "761bc72bdc05bbc1",
    ("trap_storm", "clean"): "bbb13ff6c4c0f8d1",
    ("trap_storm", "default"): "761bc72bdc05bbc1",
    ("trap_storm", "timed"): "761bc72bdc05bbc1",
    ("distinct_words", "default"): "5ab566c7956903e6",
}


def _digest(core: RocketCore, bodies) -> str:
    h = hashlib.sha256()
    for body in bodies:
        trace, report = core.run(build_program(body))
        for e in trace.entries:
            mem = e.mem and (e.mem.addr, e.mem.size, e.mem.is_store,
                             e.mem.data)
            h.update(repr((e.pc, e.instr, e.priv, e.rd, e.rd_value, mem,
                           e.trap_cause, e.trap_tval, e.csr_write)).encode())
        h.update(repr((trace.stop_reason, trace.instret, trace.cycles,
                       report.cycles, report.hits.to_int())).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("params", sorted(PARAMS))
@pytest.mark.parametrize("bodies", sorted(BODY_SETS))
def test_digest(bodies, params):
    core = RocketCore(PARAMS[params])
    assert _digest(core, BODY_SETS[bodies]()) == EXPECTED[bodies, params]


def test_stop_reasons_cover_every_limit():
    """The body sets reach each way a run can end."""
    core = RocketCore()
    reasons = {name: [core.run(build_program(b))[0].stop_reason
                      for b in BODY_SETS[name]()]
               for name in ("loops", "trap_storm", "fencei")}
    assert reasons["loops"] == ["max_steps"] * 4 + ["max_traps"]
    assert reasons["trap_storm"] == ["max_traps"]
    assert reasons["fencei"] == ["wfi"] * 3 + ["max_steps"]


def _distinct_word_bodies(n_bodies: int = 17, length: int = 4000):
    """Straight-line bodies of pairwise-distinct ALU words, more in total
    than the core's per-word tables hold (65536 words, the decoder's
    cache bound)."""
    ops = ("addi", "xori", "ori", "andi", "slti", "sltiu", "addiw")
    words = (encode(op, rd=rd, rs1=rs1, imm=imm)
             for imm in range(-2048, 2048)
             for op in ops
             for rd in range(1, 32)
             for rs1 in range(32))
    return [[next(words) for _ in range(length)] for _ in range(n_bodies)]


def test_more_distinct_words_than_the_table_holds():
    bodies = _distinct_word_bodies()
    assert len({w for body in bodies for w in body}) > 65536
    assert _digest(RocketCore(), bodies) == EXPECTED["distinct_words",
                                                     "default"]
