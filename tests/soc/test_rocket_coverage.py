"""Targeted stimulus -> condition mapping for the Rocket model's deep
coverage points: each entangled idiom must light up exactly the conditions
it was designed around."""

import pytest

from repro.isa.assembler import Assembler
from repro.isa.spec import DRAM_BASE
from repro.soc.harness import make_harness, preamble_words


@pytest.fixture()
def harness():
    return make_harness("rocket")


def arm_names(harness, body_text):
    base = DRAM_BASE + 4 * (len(preamble_words()) + 2)
    body = Assembler(base=base).assemble(body_text)
    _, report = harness.run_dut(body)
    cov = harness.core.cov
    return {cov.arm_name(a) for a in report.hits}


class TestSequenceConditions:
    def test_loop_trains_predictor_and_loop_conditions(self, harness):
        names = arm_names(harness, """
            li a0, 4
        loop:
            addi a0, a0, -1
            bnez a0, loop
        """)
        assert "rocket.frontend.loop_iteration:T" in names
        assert "rocket.frontend.tight_loop:T" in names
        assert "rocket.frontend.branch_both_ways:T" in names  # exit edge
        assert "rocket.frontend.bpu.ctr_saturated_taken:T" in names

    def test_dependency_chain(self, harness):
        names = arm_names(harness, """
            addi a0, a0, 1
            addi a0, a0, 1
            addi a0, a0, 1
            addi a0, a0, 1
            addi a0, a0, 1
            addi a0, a0, 1
        """)
        assert "rocket.hazard.chain3:T" in names
        assert "rocket.hazard.chain5:T" in names

    def test_spill_reload(self, harness):
        names = arm_names(harness, """
            sd a0, 16(sp)
            addi a1, a1, 1
            ld a2, 16(sp)
        """)
        assert "rocket.mem.spill_reload:T" in names

    def test_lr_sc_success(self, harness):
        names = arm_names(harness, """
            lr.d a0, (s0)
            addi a0, a0, 1
            sc.d a1, a0, (s0)
        """)
        assert "rocket.mem.sc_success:T" in names
        assert "rocket.mem.reservation_set:T" in names

    def test_sc_broken_by_store(self, harness):
        names = arm_names(harness, """
            lr.d a0, (s0)
            sd a1, 0(s0)
            sc.d a2, a0, (s0)
        """)
        assert "rocket.mem.sc_after_store_fail:T" in names
        assert "rocket.mem.sc_success:F" in names

    def test_call_return_pair(self, harness):
        names = arm_names(harness, """
            jal ra, helper
            j after
        helper:
            addi a0, a0, 1
            jalr x0, 0(ra)
        after:
            nop
        """)
        assert "rocket.frontend.call_return_pair:T" in names
        assert "rocket.frontend.jalr_to_link:T" in names
        assert "rocket.execute.link_reg_used:T" in names

    def test_cmp_then_branch(self, harness):
        names = arm_names(harness, """
            slt t0, a0, a1
            bne t0, x0, 8
            nop
        """)
        assert "rocket.execute.branch_after_cmp:T" in names

    def test_muldiv_chain(self, harness):
        names = arm_names(harness, """
            mul a2, a0, a1
            div a3, a2, a1
        """)
        assert "rocket.execute.muldiv_chain:T" in names
        assert "rocket.execute.div_after_mul:T" in names

    def test_csr_roundtrip(self, harness):
        names = arm_names(harness, """
            csrw mscratch, a0
            csrr a1, mscratch
        """)
        assert "rocket.csr.write_read_roundtrip:T" in names

    def test_streaming_locality(self, harness):
        names = arm_names(harness, """
            sd a0, 0(s0)
            sd a0, 8(s0)
            sd a0, 32(s0)
            ld a1, 0(s0)
            ld a2, 8(s0)
            ld a3, 0(s0)
            ld a4, 32(s0)
            ld a5, 16(s0)
        """)
        assert "rocket.mem.same_line_reuse:T" in names
        assert "rocket.mem.cross_line_pair:T" in names
        assert "rocket.mem.line_reuse3:T" in names
        assert "rocket.mem.hit_streak4:T" in names

    def test_redirty_and_coalesce(self, harness):
        names = arm_names(harness, """
            sd a0, 0(s0)
            sd a1, 0(s0)
            sd a2, 8(s0)
        """)
        assert "rocket.mem.redirty:T" in names
        assert "rocket.mem.coalesce:T" in names


class TestTrapConditions:
    def test_each_cause_has_comparator(self, harness):
        names = arm_names(harness, "ecall")
        assert "rocket.csr.cause_is_11:T" in names
        assert "rocket.csr.cause_is_8:F" in names

    def test_illegal_instruction_cause(self, harness):
        names = arm_names(harness, ".word 0x0")
        assert "rocket.csr.cause_is_2:T" in names
        assert "rocket.decode.illegal:T" in names

    def test_user_mode_entry(self, harness):
        names = arm_names(harness, """
            auipc t0, 0
            addi t0, t0, 28
            csrw mepc, t0
            lui t1, 2
            addi t1, t1, -0x800
            csrrc x0, mstatus, t1
            mret
            ecall
        """)
        assert "rocket.csr.enter_user:T" in names
        assert "rocket.csr.in_user_mode:T" in names
        assert "rocket.csr.cause_is_8:T" in names  # ecall from U

    def test_unreachable_debug_arms_stay_cold(self, harness):
        names = arm_names(harness, "nop")
        assert not any(name.startswith("rocket.dm.") for name in names)

    def test_irq_false_arms_polled(self, harness):
        names = arm_names(harness, "nop")
        assert "rocket.clint.mtip_pending:F" in names
        assert "rocket.clint.mtip_pending:T" not in names
