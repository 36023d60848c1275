"""BOOM model: architectural equivalence and its fast-saturating profile."""

import pytest

from repro.baselines.mutations import MutationEngine
from repro.dataset.corpus import Corpus
from repro.fuzzing.mismatch import compare_traces
from repro.soc.boom import BoomCore, BoomParams
from repro.soc.harness import DutHarness, make_harness


@pytest.fixture(scope="module")
def harness():
    return make_harness("boom")


class TestEquivalence:
    def test_no_injected_bugs_on_corpus(self, harness):
        corpus = Corpus.synthesize(20, seed=9)
        for function in corpus:
            dut, gold, _ = harness.run_differential(list(function))
            assert compare_traces(dut, gold) == [], function

    def test_no_divergence_on_random_streams(self, harness):
        engine = MutationEngine(seed=21)
        for _ in range(15):
            dut, gold, _ = harness.run_differential(engine.random_body(20))
            assert compare_traces(dut, gold) == []

    def test_run_determinism_across_reuse(self):
        """Re-running the same bodies on one core must be bit-identical —
        no caches/predictor/queue state may leak between ``run`` calls
        (the ``SetAssocCache`` LRU-stamp leak class).  Mirrors the Rocket
        coverage-reset pin in ``tests/soc/test_harness.py``."""
        engine = MutationEngine(seed=33)
        bodies = [engine.random_body(24) for _ in range(6)]
        core = BoomCore()
        fresh = [BoomCore().run(list(b)) for b in bodies]
        first = [core.run(list(b)) for b in bodies]
        second = [core.run(list(b)) for b in bodies]
        for (ft, fr), (t1, r1), (t2, r2) in zip(fresh, first, second):
            assert t1.entries == t2.entries == ft.entries
            assert t1.stop_reason == t2.stop_reason == ft.stop_reason
            assert r1.hits == r2.hits == fr.hits
            assert r1.cycles == r2.cycles == fr.cycles


class TestCoverageProfile:
    def test_arm_count(self, harness):
        # BOOM's universe is smaller than Rocket's and saturates quickly.
        assert harness.total_arms == 162

    def test_unreachable_residue_is_small(self, harness):
        """Only the debug-module conditions should be unreachable (~3%)."""
        core = harness.core
        debug_arms = {
            2 * i + arm
            for i, name in enumerate(core.cov.names())
            if name.startswith("boom.dm.")
            for arm in (0, 1)
        }
        assert len(debug_arms) == 4

    def test_single_corpus_function_covers_majority(self, harness):
        corpus = Corpus.synthesize(5, seed=11)
        _, report = harness.run_dut(list(corpus[0]))
        assert report.standalone_fraction > 0.35

    def test_ras_conditions_from_call_pair(self, harness):
        from repro.isa.encoder import encode

        body = [
            encode("jal", rd=1, imm=12),      # call forward
            encode("addi", rd=10, rs1=10, imm=1),
            encode("jal", rd=0, imm=12),      # skip the helper once returned
            encode("addi", rd=11, rs1=11, imm=1),
            encode("jalr", rd=0, rs1=1, imm=0),  # return
        ]
        _, report = harness.run_dut(body)
        names = {harness.core.cov.arm_name(a) for a in report.hits}
        assert "boom.frontend.ras_push:T" in names
        assert "boom.frontend.ras_pop:T" in names


class TestAtomics:
    def test_failed_and_successful_sc_cover_both_arms(self, harness):
        """A failed SC performs no memory access but still evaluates the
        success condition, as on Rocket."""
        from repro.isa.assembler import Assembler

        body = Assembler().assemble("""
            sc.w t1, t0, (gp)
            lr.w t0, (gp)
            sc.w t1, t0, (gp)
        """)
        dut, gold, report = harness.run_differential(body)
        assert [e.rd_value for e in dut if e.instr == body[0]] == [1, 0]
        assert compare_traces(dut, gold) == []
        names = {harness.core.cov.arm_name(a) for a in report.hits}
        assert {"boom.lsu.sc_success:F", "boom.lsu.sc_success:T"} <= names


class TestTiming:
    def test_superscalar_faster_than_rocket_on_warm_loop(self):
        from repro.isa.assembler import Assembler
        from repro.isa.spec import DRAM_BASE
        from repro.soc.harness import make_harness

        # A hot loop of independent ALU ops: once the I$ is warm, the
        # 2-wide BOOM retires roughly twice per cycle.
        body = Assembler(base=DRAM_BASE).assemble("""
            li a0, 40
        loop:
            addi a1, a1, 1
            addi a2, a2, 2
            addi a3, a3, 3
            addi a4, a4, 4
            addi a0, a0, -1
            bnez a0, loop
        """)
        boom = make_harness("boom")
        rocket = make_harness("rocket")
        _, boom_report = boom.run_dut(body)
        _, rocket_report = rocket.run_dut(body)
        assert boom_report.cycles < rocket_report.cycles


class TestDecodeTable:
    def test_bounded_and_transparent(self, monkeypatch):
        """The per-word decode-mask table is cleared at its cap, and a run
        that overflows it reports exactly what a run within it does."""
        from repro.isa.encoder import encode
        from repro.soc.boom import core as boom_core
        from repro.soc.harness import build_program

        program = build_program(
            [encode("addi", rd=5, rs1=5, imm=i) for i in range(40)])
        ref_trace, ref_report = BoomCore().run(program)
        monkeypatch.setattr(boom_core, "DECODE_TABLE_CAP", 8)
        core = BoomCore()
        for _ in range(2):
            trace, report = core.run(program)
            assert len(core._decode_masks) <= 8
            assert trace.entries == ref_trace.entries
            assert report.hits == ref_report.hits
