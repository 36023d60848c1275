"""Uncore blocks: debug module and interrupt controller stubs.

These blocks exist in the real RocketCore netlist and contribute condition
cover points that fuzzing *cannot* reach (no debug requests or interrupts are
ever injected during instruction fuzzing).  They are what caps achievable
condition coverage below 100%, reproducing the paper's ~79% RocketCore
plateau.

- :class:`DebugUnit` conditions are never evaluated at all — both arms stay
  uncovered, like logic behind a clock gate that never opens.
- :class:`InterruptController` conditions are evaluated every cycle but
  are always false — their true arms stay uncovered.  That all-false group
  is one constant mask, ``_idle_mask``, which ``RocketCore`` folds into
  every cycle's record and the DUT lane engine into every lane's coverage
  row.
"""

from __future__ import annotations

from repro.rtl.coverage import ConditionCoverage
from repro.rtl.module import Module

#: Conditions inside the debug module (never evaluated during fuzzing).
DEBUG_CONDITIONS = (
    "dmactive",
    "halt_req",
    "resume_req",
    "single_step",
    "step_cmp_match",
    "ebreak_to_debug",
    "abstract_cmd_busy",
    "abstract_cmd_err",
    "progbuf_exec",
    "progbuf_fault",
    "sba_read",
    "sba_write",
    "sba_err_align",
    "sba_err_size",
    "dm_reg_sel_data0",
    "dm_reg_sel_command",
    "dm_reg_sel_dmcontrol",
    "hartsel_valid",
    "havereset",
    "resumeack",
    "authenticated",
    "authbusy",
    "dmi_req_valid",
    "dmi_resp_stall",
    "ndmreset",
)

#: Interrupt-controller conditions (polled, but never pending in fuzz runs).
IRQ_CONDITIONS = (
    "mtip_pending",
    "msip_pending",
    "meip_pending",
    "seip_pending",
    "irq_enabled_global",
    "irq_taken",
    "irq_during_wfi",
    "irq_priority_ext_over_timer",
    "nmi_pending",
    "irq_vectored_dispatch",
    "irq_masked_by_mie",
    "irq_cause_msb",
)


class DebugUnit(Module):
    """Debug module stub: declares its conditions, is never exercised."""

    def __init__(self, path: str, cov: ConditionCoverage) -> None:
        super().__init__(path, cov)
        self.conditions(*DEBUG_CONDITIONS)


class InterruptController(Module):
    """CLINT/PLIC stub: its lines are never asserted, so every cycle
    records the same all-false group, :attr:`_idle_mask`."""

    def __init__(self, path: str, cov: ConditionCoverage) -> None:
        super().__init__(path, cov)
        self.conditions(*IRQ_CONDITIONS)
        # No interrupt source is ever asserted during instruction fuzzing,
        # so every cycle's pending checks are the same all-false arm group:
        # its packed mask, which the core ORs into each cycle's record.
        self._idle_mask = 0
        for name in IRQ_CONDITIONS:
            self._idle_mask |= self.arm_bit(name, False)
