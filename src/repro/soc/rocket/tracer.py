"""Commit tracer with the paper's trace-layer bugs injected.

The tracer turns retired-instruction effects into :class:`TraceEntry`
records — RocketCore's equivalent of its trace port.  Three of the paper's
findings live *here*, in the trace layer, not in the datapath:

- **Bug2 (CWE-440)**: MUL/DIV write-backs are omitted from the trace even
  though the register file is updated correctly.
- **Finding2**: AMOs with ``rd = x0`` emit a trace record showing the loaded
  data "arriving" at x0.
- **Finding3**: a ``jalr x0`` retiring immediately after a load emits a
  spurious x0 write-back record.
"""

from __future__ import annotations

from repro.golden.executor import ExecResult
from repro.golden.trace import TraceEntry
from repro.isa.decoder import DecodedInstr
from repro.rtl.coverage import ConditionCoverage
from repro.rtl.module import Module
from repro.soc.rocket.params import RocketParams


class Tracer(Module):
    """Trace-port model; see module docstring for the injected behaviours."""

    def __init__(self, path: str, cov: ConditionCoverage, params: RocketParams):
        super().__init__(path, cov)
        self.params = params
        self._prev_was_load = False
        self.conditions(
            "emit_rd",
            "suppress_muldiv",   # Bug2 activation
            "x0_amo_quirk",      # Finding2 activation
            "x0_jalr_quirk",     # Finding3 activation
        )
        # retire() folds the group into one record_mask, indexing each
        # condition's (false_bit, true_bit) pair with its value.
        self._pairs = tuple(self.arms[name] for name in (
            "suppress_muldiv", "x0_amo_quirk", "x0_jalr_quirk", "emit_rd"))

    def reset(self) -> None:
        super().reset()
        self._prev_was_load = False

    def retire(
        self,
        pc: int,
        instr: DecodedInstr,
        priv: int,
        result: ExecResult,
    ) -> TraceEntry:
        """Build the trace record for one retired instruction."""
        spec = instr.spec
        p = self.params
        rd: int | None = result.rd if result.rd not in (None, 0) else None
        rd_value = result.rd_value if rd is not None else 0

        suppress = p.bug2_tracer_muldiv and spec.is_muldiv
        if suppress:
            rd = None
            rd_value = 0

        amo_quirk = (
            p.finding2_amo_x0_trace
            and spec.is_amo
            and result.rd == 0
            and not spec.mnemonic.startswith(("lr.", "sc."))
        )
        if amo_quirk:
            rd = 0
            rd_value = result.rd_value

        jalr_quirk = (
            p.finding3_x0_trace
            and self._prev_was_load
            and instr.rd == 0
            and spec.mnemonic == "jalr"
        )
        if jalr_quirk:
            rd = 0
            rd_value = (pc + 4) & 0xFFFF_FFFF_FFFF_FFFF

        p_suppress, p_amo, p_jalr, p_emit = self._pairs
        self.cov.record_mask(p_suppress[suppress] | p_amo[amo_quirk]
                             | p_jalr[jalr_quirk] | p_emit[rd is not None])
        self._prev_was_load = spec.is_load
        return TraceEntry(
            pc=pc,
            instr=instr.raw,
            priv=priv,
            rd=rd,
            rd_value=rd_value,
            mem=result.mem,
            csr_write=result.csr_write,
        )
