"""The BOOM-like out-of-order core: timed interpreter with OoO structures.

Models the microarchitectural skeleton that matters for condition coverage:
fetch buffer, return-address stack, register renaming (free list / WAW
remap), issue-queue and ROB occupancy, a load/store queue with
store-to-load forwarding, plus caches and a branch predictor.  Instruction
semantics come from the golden executor, as for Rocket, so ISA correctness
lives in one place.

Coverage is recorded as in ``RocketCore.step_cycle``: each instruction ORs
the arm of every condition it evaluates, taken from the prebound
``(false_bit, true_bit)`` pairs in :attr:`Module.arms` or from the memoized
decode group of its word, into one local mask, and records that mask once,
at retire or at trap entry (where the trap-entry group of its cause joins
it).  The caches and the branch predictor return their groups' arms, which
join the same mask.

Traps follow the contract in :mod:`repro.golden.simulator`, which the
golden model and RocketCore share: :meth:`BoomCore.run` builds memory with
``load_image``, and ``_trap`` enters the handler through ``take_trap`` and
records the trap-entry coverage group of :mod:`repro.soc.traps`.  The
mispredict penalty, the ROB/issue-queue flush and the ``max_traps`` check
that sets ``trace.stop_reason`` stay here.

No bugs are injected here: the paper's bug findings are on RocketCore; BOOM
carries the fast-saturating coverage claim (97.02% in 49 minutes).
"""

from __future__ import annotations

from repro.golden.exceptions import Trap
from repro.golden.executor import execute
from repro.golden.simulator import HANDLER_END, load_image, take_trap
from repro.golden.state import ArchState
from repro.golden.trace import CommitTrace, TraceEntry
from repro.isa.decoder import decode
from repro.isa.spec import (
    CSR_MCYCLE,
    CSR_MINSTRET,
    DRAM_BASE,
    EXC_ILLEGAL_INSTRUCTION,
    EXC_INSTR_ACCESS_FAULT,
    PRV_U,
    TRAP_VECTOR,
    WORD_MASK,
)
from repro.rtl.coverage import ConditionCoverage
from repro.rtl.module import Module
from repro.rtl.report import CoverageReport
from repro.soc.boom.params import BoomParams
from repro.soc.caches import SetAssocCache
from repro.soc.predictor import BranchPredictor
from repro.soc.traps import TRAP_CONDITIONS, TrapMasks

#: Instruction classes with a ``decode.is_<kind>`` condition, each read from
#: the spec's ``is_<kind>`` flag.
_DECODE_CLASSES = ("load", "store", "branch", "jump", "amo", "muldiv", "csr",
                   "system", "fence")

#: Bound of the per-word decode-mask table: the decoder's cache size.
DECODE_TABLE_CAP = 65536

#: Debug-module conditions: present in the netlist, never exercised by
#: instruction fuzzing.  These are BOOM's small unreachable residue (~2.5%
#: of arms — the paper's 97.02% plateau implies ~3% unreachable).
_DEBUG_CONDITIONS = ("dm.halt_req", "dm.single_step")


class BoomCore(Module):
    """Out-of-order RV64IMA_Zicsr core model with condition coverage."""

    def __init__(self, params: BoomParams | None = None) -> None:
        cov = ConditionCoverage()
        super().__init__("boom", cov)
        self.params = params or BoomParams()
        p = self.params

        self.icache = self.child(
            SetAssocCache("boom.icache", cov, ways=p.icache_ways,
                          sets=p.icache_sets, line_bytes=p.line_bytes,
                          miss_penalty=p.icache_miss_penalty,
                          writable=False)
        )
        self.dcache = self.child(
            SetAssocCache("boom.dcache", cov, ways=p.dcache_ways,
                          sets=p.dcache_sets, line_bytes=p.line_bytes,
                          miss_penalty=p.dcache_miss_penalty)
        )
        self.predictor = self.child(BranchPredictor("boom.bpu", cov))

        self.conditions(
            # frontend
            "frontend.fetch_fault",
            "frontend.fb_full",
            "frontend.fb_empty",
            "frontend.ras_push",
            "frontend.ras_pop",
            "frontend.ras_underflow",
            "frontend.ras_overflow",
            # decode / rename
            "decode.illegal",
            *[f"decode.is_{kind}" for kind in _DECODE_CLASSES],
            "rename.stall_freelist",
            "rename.waw_remap",
            "rename.rd_x0",
            "rename.freelist_low",
            # issue
            "issue.iq_full",
            "issue.iq_empty",
            "issue.rs1_ready",
            "issue.rs2_ready",
            "issue.wakeup_bypass",
            # ROB
            "rob.full",
            "rob.empty",
            "rob.commit_two",
            "rob.exception_at_head",
            "rob.flush",
            # LSU
            "lsu.ldq_full",
            "lsu.stq_full",
            "lsu.stl_forward",
            "lsu.misaligned",
            "lsu.access_fault",
            "lsu.reservation_set",
            "lsu.sc_success",
            # execute
            "execute.br_taken",
            "execute.br_backward",
            "execute.div_by_zero",
            "execute.mul_high",
            "execute.result_zero",
            # CSR / traps
            *TRAP_CONDITIONS,
            "csr.write",
            "csr.in_user_mode",
            "csr.mret",
            "csr.wfi",
            # unreachable residue
            *_DEBUG_CONDITIONS,
        )
        cov.freeze()

        # Memoized group masks (see RocketCore): the decode condition group
        # is a pure function of the instruction word, the trap-entry group
        # (repro.soc.traps) of the cause.
        #: word -> decode-group mask, bounded by DECODE_TABLE_CAP.
        self._decode_masks: dict[int, int] = {}
        self._trap_mask = TrapMasks(self.arms).__getitem__

    # ------------------------------------------------------------------ run --

    def run(self, program: list[int], base: int = DRAM_BASE) -> tuple[CommitTrace, CoverageReport]:
        """Simulate one test program; returns (commit trace, coverage report)."""
        p = self.params
        arms = self.arms
        decode_masks = self._decode_masks
        self.reset()
        self.cov.begin_run()

        memory = load_image(program, base)
        state = ArchState(pc=base)
        trace = CommitTrace()

        cycles = 0
        traps_taken = 0
        ras: list[int] = []
        #: physical registers still "in flight"; models free-list pressure.
        busy_phys = 0
        #: architectural -> renamed flag, for WAW detection.
        renamed: set[int] = set()
        rob_occupancy = 0
        iq_occupancy = 0
        ldq, stq = 0, 0
        retired_since_drain = 0
        prev_rd: int | None = None
        #: stall cycles of the previous instruction: while the backend waits
        #: on a miss or a long op, the frontend keeps filling the window.
        last_stall = 0

        for _ in range(p.max_steps):
            pc = state.pc
            in_handler = TRAP_VECTOR <= pc < HANDLER_END
            instr_start_cycles = cycles

            # Two-wide machine: occupancies drain every other instruction,
            # but a stalled backend lets the in-flight window fill up.
            retired_since_drain += 1
            rob_occupancy = min(p.rob_entries, rob_occupancy + last_stall // 2)
            iq_occupancy = min(p.issue_queue_entries,
                               iq_occupancy + last_stall // 4)
            busy_phys = min(p.phys_regs - 32, busy_phys + last_stall // 4)
            if retired_since_drain >= 2:
                retired_since_drain = 0
                cycles += 1
                rob_occupancy = max(0, rob_occupancy - 2)
                iq_occupancy = max(0, iq_occupancy - 2)
                ldq = max(0, ldq - 1)
                stq = max(0, stq - 1)
                busy_phys = max(0, busy_phys - 2)

            # ---------------- fetch -----------------------------------------
            if not memory.is_mapped(pc, 4):
                cycles += p.mispredict_penalty
                traps_taken += 1
                if self._trap(trace, state, arms["frontend.fetch_fault"][True],
                              pc, 0, EXC_INSTR_ACCESS_FAULT, pc, state.priv,
                              traps_taken):
                    break
                continue
            line, mask = self.icache.lookup(pc)
            fb_empty = line is None
            if fb_empty:
                mask |= self.icache.refill(pc, memory.read_bytes)[1]
                cycles += self.icache.miss_penalty
            mask |= (arms["frontend.fetch_fault"][False]
                     | arms["frontend.fb_empty"][fb_empty]
                     | arms["frontend.fb_full"][rob_occupancy
                                                >= p.rob_entries - 2])
            word = memory.fetch(pc)  # BOOM's I$ snoops stores: always fresh

            # ---------------- decode / rename --------------------------------
            instr = decode(word)
            mask |= decode_masks.get(word) or self._decode_mask(word, instr)
            if instr is None:
                cycles += p.mispredict_penalty
                traps_taken += 1
                if self._trap(trace, state, mask, pc, word,
                              EXC_ILLEGAL_INSTRUCTION, word, state.priv,
                              traps_taken):
                    break
                continue
            spec = instr.spec
            m = spec.mnemonic

            if spec.writes_rd:
                mask |= arms["rename.rd_x0"][instr.rd == 0]
                if instr.rd != 0:
                    mask |= arms["rename.waw_remap"][instr.rd in renamed]
                    renamed.add(instr.rd)
                    busy_phys += 1
            free = p.phys_regs - 32 - busy_phys
            mask |= (arms["rename.freelist_low"][free <= 4]
                     | arms["rename.stall_freelist"][free <= 0])
            if free <= 0:
                cycles += 2
                busy_phys = max(0, busy_phys - 4)

            # ---------------- issue ------------------------------------------
            iq_occupancy += 1
            iq_full = iq_occupancy >= p.issue_queue_entries
            mask |= (arms["issue.iq_full"][iq_full]
                     | arms["issue.iq_empty"][iq_occupancy <= 1])
            if iq_full:
                cycles += 1
                iq_occupancy -= 2
            rs1_dep = spec.reads_rs1 and instr.rs1 != 0 and instr.rs1 == prev_rd
            rs2_dep = spec.reads_rs2 and instr.rs2 != 0 and instr.rs2 == prev_rd
            mask |= (arms["issue.rs1_ready"][not rs1_dep]
                     | arms["issue.rs2_ready"][not rs2_dep]
                     | arms["issue.wakeup_bypass"][rs1_dep or rs2_dep])

            rob_occupancy += 1
            rob_full = rob_occupancy >= p.rob_entries
            mask |= (arms["rob.full"][rob_full]
                     | arms["rob.empty"][rob_occupancy <= 1]
                     | arms["rob.commit_two"][retired_since_drain == 0])
            if rob_full:
                cycles += 1
                rob_occupancy -= 2

            # RAS: calls push, returns pop.
            is_call = spec.is_jump and instr.rd == 1
            is_ret = m == "jalr" and instr.rd == 0 and instr.rs1 == 1
            mask |= (arms["frontend.ras_push"][is_call]
                     | arms["frontend.ras_pop"][is_ret])
            if is_call:
                mask |= arms["frontend.ras_overflow"][len(ras) >= p.ras_entries]
                ras.append((pc + 4) & WORD_MASK)
                del ras[: max(0, len(ras) - p.ras_entries)]
            if is_ret:
                mask |= arms["frontend.ras_underflow"][not ras]
                if ras:
                    ras.pop()

            # ---------------- execute ----------------------------------------
            predicted = False
            if spec.is_branch:
                predicted, predict_arms = self.predictor.predict(pc)
                mask |= predict_arms
            prv_before = state.priv
            mask |= arms["csr.in_user_mode"][prv_before == PRV_U]
            try:
                result = execute(state, memory, instr, pc)
            except Trap as trap:
                cycles += p.mispredict_penalty
                traps_taken += 1
                mask |= (arms["rob.exception_at_head"][True]
                         | arms["rob.flush"][True])
                if spec.is_memory:
                    mask |= (arms["lsu.misaligned"][trap.cause in (4, 6)]
                             | arms["lsu.access_fault"][trap.cause in (5, 7)])
                rob_occupancy = 0
                iq_occupancy = 0
                prev_rd = None
                if self._trap(trace, state, mask, pc, word, trap.cause,
                              trap.tval, prv_before, traps_taken):
                    break
                continue
            mask |= (arms["csr.trap_taken"][False]
                     | arms["rob.exception_at_head"][False])

            if spec.is_branch:
                taken = result.next_pc != (pc + 4) & WORD_MASK
                mispredicted = taken != predicted
                mask |= (self.predictor.update(pc, taken, predicted)
                         | arms["execute.br_taken"][taken]
                         | arms["execute.br_backward"][instr.imm < 0]
                         | arms["rob.flush"][mispredicted])
                if mispredicted:
                    cycles += p.mispredict_penalty
                    rob_occupancy = 0
                    iq_occupancy = 0
            if spec.is_muldiv:
                if m.startswith(("div", "rem")):
                    mask |= arms["execute.div_by_zero"][
                        state.read_reg(instr.rs2) == 0]
                    cycles += p.div_latency
                else:
                    mask |= arms["execute.mul_high"][
                        m in ("mulh", "mulhsu", "mulhu")]
                    cycles += p.mul_latency
            if result.rd:
                mask |= arms["execute.result_zero"][result.rd_value == 0]

            # ---------------- LSU ---------------------------------------------
            # A failed SC performs no memory access, so its condition is
            # evaluated outside the memory path.
            if m.startswith("sc."):
                mask |= arms["lsu.sc_success"][result.rd_value == 0]
            if result.mem is not None:
                addr = result.mem.addr
                if result.mem.is_store:
                    stq += 1
                    mask |= arms["lsu.stq_full"][stq >= p.stq_entries]
                    if stq >= p.stq_entries:
                        cycles += 1
                        stq -= 1
                else:
                    ldq += 1
                    mask |= (arms["lsu.ldq_full"][ldq >= p.ldq_entries]
                             | arms["lsu.stl_forward"][stq > 0
                                                       and not spec.is_amo])
                    if ldq >= p.ldq_entries:
                        cycles += 1
                        ldq -= 1
                mask |= (arms["lsu.misaligned"][False]
                         | arms["lsu.access_fault"][False]
                         | arms["lsu.reservation_set"][m.startswith("lr.")])
                line, lookup_arms = self.dcache.lookup(addr)
                mask |= lookup_arms
                if line is None:
                    mask |= self.dcache.refill(addr, memory.read_bytes)[1]
                    cycles += self.dcache.miss_penalty
                if result.mem.is_store:
                    data = result.mem.data.to_bytes(result.mem.size, "little")
                    mask |= self.dcache.update_stored_line(addr, data)

            self.cov.record_mask(
                mask
                | arms["csr.write"][result.csr_write is not None]
                | arms["csr.mret"][m == "mret"]
                | arms["csr.wfi"][result.halt])

            # ---------------- retire -------------------------------------------
            rd = result.rd or None  # x0 write-backs are not traced
            if not in_handler:
                trace.append(TraceEntry(
                    pc, word, prv_before, rd, result.rd_value if rd else 0,
                    result.mem, None, 0, result.csr_write))
            prev_rd = rd
            last_stall = cycles - instr_start_cycles
            state.pc = result.next_pc & WORD_MASK
            counters = state.csr.values
            counters[CSR_MCYCLE] = (counters[CSR_MCYCLE] + 1) & WORD_MASK
            counters[CSR_MINSTRET] = (counters[CSR_MINSTRET] + 1) & WORD_MASK
            if result.halt:
                trace.stop_reason = "wfi"
                break
        else:
            trace.stop_reason = "max_steps"

        trace.cycles = cycles
        return trace, CoverageReport.from_coverage(self.cov, cycles)

    def _trap(self, trace: CommitTrace, state: ArchState, mask: int, pc: int,
              instr_word: int, cause: int, tval: int, priv: int,
              traps_taken: int) -> bool:
        """Take a synchronous trap at ``pc``: record the instruction's arms
        with the trap-entry group, enter the handler and log the trap.
        Returns True once ``traps_taken`` spends the run's trap budget."""
        self.cov.record_mask(mask | self._trap_mask(cause))
        trace.append(take_trap(state, pc, instr_word, cause, tval, priv))
        if traps_taken >= self.params.max_traps:
            trace.stop_reason = "max_traps"
            return True
        return False

    def _decode_mask(self, word: int, instr) -> int:
        """Build and memoize the decode group's arms for ``word``.

        The table is cleared at ``DECODE_TABLE_CAP`` entries and rebuilt
        from the hot working set, matching the decoder's bounded cache.
        """
        arms = self.arms
        mask = arms["decode.illegal"][instr is None]
        # The illegal path traps before reaching the class conditions,
        # which therefore go unevaluated.
        if instr is not None:
            for kind in _DECODE_CLASSES:
                mask |= arms[f"decode.is_{kind}"][getattr(instr.spec,
                                                          f"is_{kind}")]
        if len(self._decode_masks) >= DECODE_TABLE_CAP:
            self._decode_masks.clear()
        self._decode_masks[word] = mask
        return mask
