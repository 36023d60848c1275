"""Parity suite for the batched golden engine (``repro.golden.batch``).

The scalar :class:`GoldenSimulator` is the pinned reference: every test
asserts the batched engine's ``CommitTrace``s are **bit-identical** to it,
lane for lane — including trap-handler effects, ``max_steps``/``max_traps``
cutoffs and the stop reason — plus the graceful scalar fallbacks (numpy
missing, tiny batches, handler tracing).
"""

from __future__ import annotations

import pytest

from repro.baselines.random_regression import RandomRegressionGenerator
from repro.baselines.thehuzz import TheHuzzGenerator
from repro.golden import batch as batch_mod
from repro.golden.batch import LANE_MIN, GoldenBatchSimulator
from repro.golden.simulator import GoldenSimulator, SimConfig
from repro.isa import spec
from repro.isa.encoder import encode


def assert_parity(bodies, config=None, base=spec.DRAM_BASE, lanes=32):
    """Batched traces must equal scalar traces exactly, in order."""
    cfg = config or SimConfig()
    scalar = GoldenSimulator(cfg)
    expected = [scalar.run(list(b), base) for b in bodies]
    got = GoldenBatchSimulator(cfg, lanes=lanes).run_batch(bodies, base)
    assert len(got) == len(expected)
    for i, (ref, out) in enumerate(zip(expected, got)):
        assert out.stop_reason == ref.stop_reason, f"lane {i}"
        assert len(out.entries) == len(ref.entries), f"lane {i}"
        for j, (re_, oe) in enumerate(zip(ref.entries, out.entries)):
            assert oe == re_, f"lane {i} entry {j}:\n  ref {re_}\n  got {oe}"
        assert out.instret == ref.instret, f"lane {i}"


# -- randomized property sweeps ----------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("body_len", [4, 24, 64])
def test_random_bodies_parity(seed, body_len):
    """Random regression bodies: branches, mem ops, traps, runaway loops."""
    gen = RandomRegressionGenerator(body_instructions=body_len, seed=seed)
    bodies = [t.words for t in gen.generate_batch(16)]
    assert_parity(bodies)


@pytest.mark.parametrize("seed", [0, 3])
def test_thehuzz_bodies_parity(seed):
    """Mutation-shaped bodies exercise a different opcode mix."""
    gen = TheHuzzGenerator(body_instructions=24, seed=seed)
    bodies = [t.words for t in gen.generate_batch(12)]
    assert_parity(bodies)


@pytest.mark.parametrize("max_steps", [20, 23, 25, 4096])
def test_max_steps_cutoffs_parity(max_steps):
    """Cutoffs landing mid-trap-handler must truncate identically."""
    gen = RandomRegressionGenerator(body_instructions=16, seed=4)
    bodies = [t.words for t in gen.generate_batch(12)]
    assert_parity(bodies, SimConfig(max_steps=max_steps))


@pytest.mark.parametrize("max_traps", [1, 3, 64])
def test_max_traps_cutoffs_parity(max_traps):
    gen = RandomRegressionGenerator(body_instructions=16, seed=5)
    bodies = [t.words for t in gen.generate_batch(12)]
    assert_parity(bodies, SimConfig(max_traps=max_traps))


def test_lane_widths_agree():
    """The same batch must produce the same traces at any lane width."""
    gen = RandomRegressionGenerator(body_instructions=24, seed=6)
    bodies = [t.words for t in gen.generate_batch(17)]  # odd: ragged groups
    for lanes in (4, 8, 16, 64):
        assert_parity(bodies, lanes=lanes)


def test_base_override_parity():
    gen = RandomRegressionGenerator(body_instructions=8, seed=7)
    bodies = [t.words for t in gen.generate_batch(8)]
    assert_parity(bodies, base=spec.DRAM_BASE + 0x1000)


# -- targeted hard cases ------------------------------------------------------


def _targeted_bodies() -> list[list[int]]:
    return [
        [],                                              # empty body
        [encode("wfi")],                                 # immediate halt
        [encode("jal", rd=0, imm=0)],                    # tight loop: max_steps
        [encode("jalr", rd=0, rs1=0, imm=0x700)],        # wild jump: trap chain
        [0xFFFFFFFF, encode("addi", rd=1, rs1=0, imm=7)],  # illegal word
        [0, 0, 0],                                       # zero words
        [encode("addi", rd=1, rs1=0, imm=3),             # misaligned load
         encode("lw", rd=2, rs1=1, imm=0)],
        [encode("addi", rd=1, rs1=0, imm=2),             # misaligned jump tgt
         encode("jalr", rd=0, rs1=1, imm=0)],
        [encode("lui", rd=1, imm=0x80000),               # mapped atomic: peel
         encode("amoadd.w", rd=2, rs1=1, rs2=3)],
        [encode("lui", rd=1, imm=0x80000),               # lr/sc pair
         encode("lr.w", rd=2, rs1=1),
         encode("sc.w", rd=3, rs1=1, rs2=2)],
        [encode("ecall"), encode("addi", rd=1, rs1=0, imm=2)],
        [encode("ebreak"), encode("addi", rd=1, rs1=0, imm=2)],
        [encode("csrrs", rd=1, csr=spec.CSR_MCYCLE, rs1=0),   # counter CSRs
         0xFFFFFFFF,                                          # ... over a trap
         encode("csrrs", rd=2, csr=spec.CSR_MCYCLE, rs1=0),
         encode("csrrw", rd=0, csr=spec.CSR_MCYCLE, rs1=2),
         encode("csrrs", rd=3, csr=spec.CSR_MINSTRET, rs1=0)],
        [encode("csrrw", rd=0, csr=spec.CSR_MEPC, rs1=5),     # mret round-trip
         encode("mret"),
         encode("addi", rd=6, rs1=0, imm=1)],
        [encode("lui", rd=1, imm=0x80000),               # self-modifying store
         encode("sw", rd=0, rs1=1, rs2=0, imm=8)],
        [encode("auipc", rd=1, imm=0x100),               # store over handler
         encode("sd", rd=0, rs1=1, rs2=1, imm=0)],
    ]


@pytest.mark.parametrize("config", [
    SimConfig(),
    SimConfig(max_steps=20),
    SimConfig(max_steps=23),
    SimConfig(max_traps=1),
], ids=["default", "steps20", "steps23", "traps1"])
def test_targeted_cases_parity(config):
    assert_parity(_targeted_bodies(), config)


def test_mixed_divergent_batch_parity():
    """One group mixing every targeted case with random filler — lanes
    diverge maximally (halts, chains, peels, cutoffs in one group)."""
    gen = RandomRegressionGenerator(body_instructions=32, seed=8)
    bodies = _targeted_bodies() + [t.words for t in gen.generate_batch(16)]
    assert_parity(bodies, lanes=64)


# -- scalar fallbacks ---------------------------------------------------------


def test_fallback_numpy_unavailable(monkeypatch):
    """Without numpy the batch API still works — via the scalar engine."""
    gen = RandomRegressionGenerator(body_instructions=8, seed=9)
    bodies = [t.words for t in gen.generate_batch(8)]
    monkeypatch.setattr(batch_mod, "_np", None)
    assert_parity(bodies)


def test_fallback_below_lane_minimum():
    bodies = [[encode("addi", rd=1, rs1=0, imm=i)] for i in range(LANE_MIN - 1)]
    assert_parity(bodies)


def test_empty_batch():
    assert GoldenBatchSimulator().run_batch([]) == []


def test_invalid_lanes_rejected():
    with pytest.raises(ValueError):
        GoldenBatchSimulator(lanes=0)
