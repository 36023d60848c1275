"""DUT harness: program image construction and differential running."""

import pytest

from repro.golden.simulator import GoldenSimulator
from repro.isa.decoder import decode
from repro.isa.encoder import encode
from repro.isa.spec import DATA_BASE, DRAM_BASE
from repro.soc.harness import (
    TERMINATOR,
    build_program,
    make_harness,
    preamble_words,
)


class TestBuildProgram:
    def test_layout(self):
        body = [encode("addi", rd=10, rs1=0, imm=1)]
        program = build_program(body)
        n_pre = len(preamble_words())
        assert program[:n_pre] == preamble_words()
        assert program[-1] == TERMINATOR
        assert body[0] in program

    def test_ra_points_at_terminator(self):
        """Running just 'ret' must land on the wfi and stop cleanly."""
        trace = GoldenSimulator().run(
            build_program([encode("jalr", rd=0, rs1=1, imm=0)])
        )
        assert trace.stop_reason == "wfi"

    def test_ra_correct_for_long_bodies(self):
        body = [encode("addi", rd=0, rs1=0, imm=0)] * 700
        trace = GoldenSimulator().run(build_program(body + [
            encode("jalr", rd=0, rs1=1, imm=0)
        ]))
        assert trace.stop_reason == "wfi"

    def test_empty_body(self):
        trace = GoldenSimulator().run(build_program([]))
        assert trace.stop_reason == "wfi"


class TestBuildProgramMemoization:
    """The cached preamble/ra-setup must emit byte-identical images."""

    @staticmethod
    def _reference_image(body):
        """Original (uncached) construction: re-encode everything per call."""
        fixed = preamble_words()
        n_addi = 1
        while 4 * (1 + n_addi + len(body)) - 2044 * (n_addi - 1) > 2047:
            n_addi += 1
        total = 4 * (1 + n_addi + len(body))
        ra_setup = [encode("auipc", rd=1, imm=0)]
        ra_setup += [encode("addi", rd=1, rs1=1, imm=2044)] * (n_addi - 1)
        ra_setup.append(
            encode("addi", rd=1, rs1=1, imm=total - 2044 * (n_addi - 1))
        )
        return fixed + ra_setup + list(body) + [TERMINATOR]

    def test_image_unchanged_across_lengths(self):
        nop = encode("addi", rd=0, rs1=0, imm=0)
        # 509/510/511 straddle the n_addi=1 -> 2 chain-length boundary.
        for length in (0, 1, 24, 509, 510, 511, 700, 1200):
            body = [nop] * length
            assert build_program(body) == self._reference_image(body), length

    def test_fresh_lists_returned(self):
        """Callers may mutate the returned image without corrupting caches."""
        first = build_program([])
        first[0] = 0
        assert build_program([])[0] != 0
        preamble = preamble_words()
        preamble[0] = 0
        assert preamble_words()[0] != 0


class TestPreambleEffects:
    def test_pointer_registers_initialised(self):
        trace = GoldenSimulator().run(build_program([]))
        writes = {e.rd: e.rd_value for e in trace if e.rd is not None}
        assert writes[2] == DATA_BASE + 0x400     # sp
        assert writes[8] == DATA_BASE + 0x100     # s0
        assert writes[3] == DATA_BASE             # gp
        assert writes[4] == DATA_BASE + 0x200     # tp

    def test_pointers_are_8_aligned_and_mapped(self):
        from repro.golden.memory import SparseMemory

        trace = GoldenSimulator().run(build_program([]))
        writes = {e.rd: e.rd_value for e in trace if e.rd is not None}
        memory = SparseMemory()
        for reg in (2, 3, 4, 8, 9):
            assert writes[reg] % 8 == 0, f"x{reg} misaligned"
            assert memory.is_mapped(writes[reg], 8), f"x{reg} unmapped"


class TestDifferentialRun:
    def test_returns_trace_trace_report(self):
        harness = make_harness("rocket")
        dut, gold, report = harness.run_differential(
            [encode("addi", rd=10, rs1=0, imm=5)]
        )
        assert dut.stop_reason == gold.stop_reason == "wfi"
        assert report.total_arms == harness.total_arms
        assert report.standalone_count > 0
        assert report.cycles > 0

    def test_coverage_resets_between_tests(self):
        harness = make_harness("rocket")
        _, first = harness.run_dut([encode("mul", rd=5, rs1=10, rs2=11)])
        _, second = harness.run_dut([encode("addi", rd=5, rs1=0, imm=1)])
        muldiv_arm = None
        for i, name in enumerate(harness.core.cov.names()):
            if name == "rocket.decode.is_muldiv":
                muldiv_arm = 2 * i + 1  # true arm
        assert muldiv_arm in first.hits
        assert muldiv_arm not in second.hits

    @pytest.mark.parametrize("golden_lanes", [0, 4])
    @pytest.mark.parametrize("kind", ["rocket", "boom"])
    def test_golden_model_takes_the_cores_trap_budget(self, kind,
                                                      golden_lanes):
        """A trap storm ends both traces at the core's ``max_traps``, on
        the scalar and the lane golden path alike."""
        from dataclasses import replace

        from repro.fuzzing.mismatch import compare_traces
        from repro.isa.assembler import Assembler
        from repro.soc.boom import BoomParams
        from repro.soc.rocket import RocketParams

        params = {"rocket": RocketParams.clean(), "boom": BoomParams()}[kind]
        harness = make_harness(kind, replace(params, max_traps=8),
                               golden_lanes=golden_lanes)
        body = Assembler().assemble("""
        loop:
            ecall
            .word 0xFFFFFFFF
            ebreak
            j loop
        """)
        ((dut, gold, _),) = harness.run_differential_batch([body])
        assert dut.stop_reason == gold.stop_reason == "max_traps"
        assert compare_traces(dut, gold) == []


class TestBatchedLanes:
    BODIES = [[encode("addi", rd=10, rs1=0, imm=i)] for i in range(8)]

    def test_dut_lanes_batch_matches_scalar(self):
        scalar = make_harness("rocket").run_differential_batch(self.BODIES)
        lanes = make_harness("rocket", golden_lanes=4,
                             dut_lanes=4).run_differential_batch(self.BODIES)
        for (dt0, gt0, r0), (dt1, gt1, r1) in zip(scalar, lanes):
            assert dt1.entries == dt0.entries
            assert gt1.entries == gt0.entries
            assert r1.hits == r0.hits and r1.cycles == r0.cycles

    def test_run_dut_batch_matches_run_dut(self):
        harness = make_harness("rocket", dut_lanes=4)
        batch = harness.run_dut_batch(self.BODIES)
        for body, (trace, report) in zip(self.BODIES, batch):
            ref_trace, ref_report = make_harness("rocket").run_dut(body)
            assert trace.entries == ref_trace.entries
            assert report.hits == ref_report.hits

    def test_kind_without_batch_engine_rejects_dut_lanes(self, monkeypatch):
        """A registered kind that declares no batch engine (BOOM, or a
        throwaway scalar-only kind) must keep the loud error on every entry
        point — at factory-build time and at harness-build time."""
        from repro.soc import harness as harness_mod
        from repro.soc.rocket import RocketParams

        class ScalarOnlyCore:
            params = RocketParams()

        monkeypatch.setitem(
            harness_mod.ENGINE_REGISTRY, "scalar-only",
            lambda: harness_mod.EngineSpec(ScalarOnlyCore, RocketParams, None))
        # Scalar use of the kinds is fine, golden lanes included...
        harness_mod.HarnessFactory("scalar-only")
        harness_mod.HarnessFactory("boom", golden_lanes=4)()
        # ...but any dut_lanes request fails loudly on every path.
        rejected = [
            lambda: harness_mod.HarnessFactory("scalar-only", dut_lanes=4),
            lambda: harness_mod.DutHarness(ScalarOnlyCore(), dut_lanes=4),
            lambda: make_harness("boom", dut_lanes=4),
            lambda: harness_mod.HarnessFactory("boom", dut_lanes=4),
        ]
        for build in rejected:
            with pytest.raises(ValueError, match="batch engine"):
                build()

    def test_unknown_kind_rejected(self):
        from repro.soc.harness import HarnessFactory

        with pytest.raises(ValueError, match="unknown harness kind"):
            HarnessFactory("cva6")
