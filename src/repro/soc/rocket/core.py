"""The RocketCore model: an in-order timed interpreter with full condition
coverage instrumentation.

Instruction *semantics* are delegated to the golden executor
(:func:`repro.golden.executor.execute`); everything microarchitectural —
I$/D$ behaviour, branch prediction, hazards, the store buffer, trap entry,
the commit tracer and the timing model — is modelled here and is the source
of both the condition coverage points and the injected paper behaviours
(Bug1 and Finding1 live in this file; Bug2/Finding2/Finding3 in the tracer).

Coverage is recorded once per cycle.  Every condition arm that depends only
on the instruction word comes precomputed from a bounded per-word table
(:class:`WordRecord`, shared with the lane engine in ``repro.soc.batch``);
every data-dependent condition indexes a prebound ``(false_bit, true_bit)``
pair with its value.  Both are ORed into one local int, and the cycle ends
with a single :meth:`~repro.rtl.coverage.ConditionCoverage.record_mask`.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.golden.exceptions import Trap
from repro.golden.executor import execute
from repro.golden.memory import SparseMemory
from repro.golden.simulator import trap_handler_image
from repro.golden.state import ArchState
from repro.golden.trace import CommitTrace, TraceEntry
from repro.isa.decoder import DecodedInstr, decode
from repro.isa.spec import (
    CSR_CYCLE,
    CSR_INSTRET,
    CSR_MCYCLE,
    CSR_MEPC,
    CSR_MSTATUS,
    CSR_TIME,
    DRAM_BASE,
    EXC_ILLEGAL_INSTRUCTION,
    EXC_INSTR_ACCESS_FAULT,
    EXC_LOAD_ACCESS_FAULT,
    EXC_LOAD_MISALIGNED,
    EXC_STORE_ACCESS_FAULT,
    EXC_STORE_MISALIGNED,
    PRV_M,
    PRV_U,
    TRAP_VECTOR,
    WORD_MASK,
    csr_is_read_only,
    csr_min_privilege,
)
from repro.rtl.coverage import ConditionCoverage
from repro.rtl.module import Module
from repro.rtl.report import CoverageReport
from repro.soc.caches import SetAssocCache
from repro.soc.predictor import BranchPredictor
from repro.soc.rocket.params import RocketParams
from repro.soc.rocket.tracer import Tracer
from repro.soc.rocket.uncore import DebugUnit, InterruptController

_LOAD_SIZE = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "lwu": 4, "ld": 8}
_STORE_SIZE = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}

#: mcause codes that have a dedicated comparator condition in the CSR unit.
_CAUSE_CONDITIONS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 11)

# -- per-word record ----------------------------------------------------------
#
# What the coverage and timing model reads off an instruction word is a pure
# function of the word, so it is derived once per distinct word and kept in
# one bounded table per core (RocketCore.word_record).  Both engines read it:
# the scalar step folds the static arm masks, the lane engine the meta flags
# and the decode mask.  Bits 0-14 of ``meta`` are the raw rd/rs1/rs2 fields;
# the M_* flags above bit 16 are static predicates of the word.

M_RS1READ = 1 << 16    # spec.reads_rs1
M_RS2READ = 1 << 17    # spec.reads_rs2
M_WRD = 1 << 18        # spec.writes_rd
M_MULDIV = 1 << 19
M_DIVLIKE = 1 << 20    # mnemonic starts with div/rem
M_LOAD = 1 << 21
M_STORE = 1 << 22
M_MEM = 1 << 23        # spec.is_memory (loads/stores/amos)
M_BRANCH = 1 << 24
M_BEQ = 1 << 25
M_JAL = 1 << 26
M_JALR = 1 << 27
M_JUMP = 1 << 28       # spec.is_jump
M_CSR = 1 << 29
M_CSR_RO = 1 << 30     # static csr.read_only_violation value
M_CSR_CTR = 1 << 31    # csr in (cycle, time, instret)
M_FENCE = 1 << 32      # spec.is_fence
M_FENCEI = 1 << 33     # mnemonic == "fence.i"
M_CMP = 1 << 34        # slt/sltu/slti/sltiu
M_SHIFTI = 1 << 35     # fmt in (I_SHIFT64, I_SHIFT32)
M_MULHI = 1 << 36      # mulh/mulhsu/mulhu
M_AMO = 1 << 37
M_MINPRIV_SHIFT = 38   # bits 38-39: csr_min_privilege(csr)
M_MRET = 1 << 40
M_LR = 1 << 41         # lr.w/lr.d
M_SC = 1 << 42         # sc.w/sc.d
M_WRSP = 1 << 43       # writes_rd and rd == sp

#: Entries of the per-word table before it is cleared and rebuilt from the
#: hot working set (the decoder's own cache bound).
WORD_TABLE_CAP = 65536


def _word_meta(ins: DecodedInstr) -> int:
    """The M_* flags and raw register fields of one decoded instruction."""
    s = ins.spec
    m = s.mnemonic
    meta = ins.rd | ins.rs1 << 5 | ins.rs2 << 10
    if s.reads_rs1:
        meta |= M_RS1READ
    if s.reads_rs2:
        meta |= M_RS2READ
    if s.writes_rd:
        meta |= M_WRD
        if ins.rd == 2:
            meta |= M_WRSP
    if s.is_muldiv:
        meta |= M_MULDIV
        if m.startswith(("div", "rem")):
            meta |= M_DIVLIKE
        if m in ("mulh", "mulhsu", "mulhu"):
            meta |= M_MULHI
    if s.is_load:
        meta |= M_LOAD
    if s.is_store:
        meta |= M_STORE
    if s.is_memory:
        meta |= M_MEM
    if s.is_amo:
        meta |= M_AMO
        if m.startswith("lr."):
            meta |= M_LR
        elif m.startswith("sc."):
            meta |= M_SC
    if s.is_branch:
        meta |= M_BRANCH
        if m == "beq":
            meta |= M_BEQ
    if m == "jal":
        meta |= M_JAL
    elif m == "jalr":
        meta |= M_JALR
    elif m == "mret":
        meta |= M_MRET
    if s.is_jump:
        meta |= M_JUMP
    if s.is_csr:
        meta |= M_CSR
        ro = (
            csr_is_read_only(ins.csr)
            and not (m in ("csrrs", "csrrc") and ins.rs1 == 0)
            and not (m in ("csrrsi", "csrrci") and ins.zimm == 0)
        )
        if ro:
            meta |= M_CSR_RO
        if ins.csr in (CSR_CYCLE, CSR_TIME, CSR_INSTRET):
            meta |= M_CSR_CTR
        meta |= csr_min_privilege(ins.csr) << M_MINPRIV_SHIFT
    if s.is_fence:
        meta |= M_FENCE
    if m == "fence.i":
        meta |= M_FENCEI
    if m in ("slt", "sltu", "slti", "sltiu"):
        meta |= M_CMP
    if s.fmt in ("I_SHIFT64", "I_SHIFT32"):
        meta |= M_SHIFTI
    return meta


class WordRecord(NamedTuple):
    """Everything the core reads off one instruction word."""

    #: The decoded instruction, or None for an illegal word.
    instr: DecodedInstr | None
    #: M_* flags plus the raw rd/rs1/rs2 fields (0 for an illegal word).
    meta: int
    #: The decode condition group's arms (the lane engine's decode rows).
    dmask: int
    #: Arms every fetch of the word records: the idle interrupt poll,
    #: ``fetch_fault:F``, the decode group and the CSR unit's static checks.
    issue: int
    #: Static arms of an execution that retires (does not trap).
    retire: int
    #: Static arms of a retiring execution that performs a memory access.
    mem: int
    #: Hazard sources: rs1/rs2 when the instruction reads them and they are
    #: not x0, else -1 (which never equals a previous destination).
    src1: int
    src2: int
    #: Branches only: the direction-dependent arms, indexed by ``taken``.
    branch: tuple[int, int] | None


class RunState:
    """Loop state of one :meth:`RocketCore.run` — the per-cycle step hook's
    working set.

    Everything the scalar run loop used to keep in locals lives here so
    that :meth:`RocketCore.step_cycle` can execute exactly one loop
    iteration at a time.  That is the shared per-instruction step hook the
    batched engine (``repro.soc.batch``) peels hard lanes to, exactly as
    ``golden.batch`` peels to ``step_instruction``: the batch side splices
    lane state into a :class:`RunState`, steps the retained scalar core,
    and splices the result back — hard-case semantics keep one
    implementation.
    """

    __slots__ = (
        "memory", "state", "trace", "handler_lo", "handler_hi",
        "iterations", "cycles", "traps_taken", "prev1", "prev2",
        "muldiv_busy_until", "store_buffer", "dep_chain", "prev_wrote_sp",
        "branch_taken_counts", "link_stack", "ra_saved", "branch_outcomes",
        "csrs_written", "last_muldiv_was_mul", "prev_was_cmp_rd",
    )


class RocketCore(Module):
    """In-order RV64IMA_Zicsr core with condition coverage (see module doc)."""

    def __init__(self, params: RocketParams | None = None) -> None:
        cov = ConditionCoverage()
        super().__init__("rocket", cov)
        self.params = params or RocketParams()
        p = self.params

        self.icache = self.child(
            SetAssocCache(
                "rocket.icache", cov,
                ways=p.icache_ways, sets=p.icache_sets, line_bytes=p.line_bytes,
                miss_penalty=p.icache_miss_penalty,
                writable=False,  # read-only port: no dirty-path conditions
            )
        )
        self.dcache = self.child(
            SetAssocCache(
                "rocket.dcache", cov,
                ways=p.dcache_ways, sets=p.dcache_sets, line_bytes=p.line_bytes,
                miss_penalty=p.dcache_miss_penalty,
            )
        )
        self.predictor = self.child(BranchPredictor("rocket.frontend.bpu", cov))
        self.tracer = self.child(Tracer("rocket.tracer", cov, p))
        self.debug = self.child(DebugUnit("rocket.dm", cov))
        self.irq = self.child(InterruptController("rocket.clint", cov))

        self._hit_streak = 0
        self._last_line: int | None = None

        self.conditions(
            # frontend
            "frontend.fetch_fault",
            "frontend.redirect",
            "frontend.line_cross",
            # decode
            "decode.is_alu_reg",
            "decode.is_alu_imm",
            "decode.is_lui",
            "decode.is_auipc",
            "decode.is_load",
            "decode.is_store",
            "decode.is_branch",
            "decode.is_jal",
            "decode.is_jalr",
            "decode.is_amo",
            "decode.is_lr",
            "decode.is_sc",
            "decode.is_muldiv",
            "decode.is_csr",
            "decode.is_system",
            "decode.is_fence",
            "decode.is_fencei",
            "decode.illegal",
            "decode.rd_x0",
            "decode.rs1_x0",
            "decode.word_op",
            # hazards / bypass network
            "hazard.raw_rs1_ex",
            "hazard.raw_rs2_ex",
            "hazard.raw_rs1_mem",
            "hazard.raw_rs2_mem",
            "hazard.load_use_stall",
            "hazard.muldiv_busy",
            "hazard.chain3",          # >=3-deep dependency chain in flight
            "hazard.chain5",          # >=5-deep dependency chain
            "hazard.sp_update_use",   # sp consumed right after an sp update
            "hazard.load_use_after_miss",  # load-use stall on a missing load
            # execute
            "execute.br_taken",
            "execute.br_backward",
            "execute.result_zero",
            "execute.result_negative",
            "execute.div_by_zero",
            "execute.div_overflow",
            "execute.mul_high",
            "execute.shift_zero_amount",
            "execute.beq_taken",       # equality branch actually taken
            "execute.link_reg_used",   # jal/jalr writing ra (call idiom)
            "execute.muldiv_chain",    # muldiv consuming a muldiv result
            "execute.div_after_mul",   # div issued in a mul's shadow
            "execute.branch_after_cmp",  # slt/sltu result branched on
            # CSR dataflow
            "csr.write_read_roundtrip",  # read of a CSR written this test
            "csr.mepc_user_write",       # explicit mepc write (not handler)
            "csr.mstatus_mpp_clear",     # mstatus write dropping MPP
            # memory unit
            "mem.misaligned",
            "mem.access_fault",
            "mem.is_amo_op",
            "mem.sc_success",
            "mem.reservation_set",
            "mem.storebuf_forward",
            "mem.storebuf_full",
            "mem.fencei_flush",
            "mem.fencei_dirty",
            "mem.base_is_sp",          # frame-pointer addressing idioms
            "mem.base_is_gp_tp",
            "mem.frame_access",        # sp-relative, small positive offset
            "mem.neg_offset_store",    # push-style store
            "mem.hit_streak4",         # >=4 consecutive D$ hits (locality)
            "mem.same_line_reuse",     # access to the line touched last
            # deep cache-controller FSM states: these need specific address
            # sequences (locality, conflict, spill/reload patterns) that
            # random instruction streams almost never form — the paper's
            # "hard-to-reach critical components"
            "mem.line_reuse3",         # same line touched 3+ times
            "mem.set_thrash",          # two lines of one set each touched 2+
            "mem.victim_revisit",      # access to a line evicted this test
            "mem.redirty",             # store to an already-dirty line
            "mem.coalesce",            # consecutive stores, same address
            "mem.cross_line_pair",     # adjacent-line streaming pair
            "mem.forward_depth2",      # store-buffer forward from older entry
            "mem.spill_reload",        # sp-slot store later reloaded
            "mem.sc_after_store_fail", # reservation broken by own store
            "mem.amo_chain",           # AMO result feeding the next AMO
            "mem.lr_replay",           # LR replacing a live reservation
            # frontend loop/call behaviour
            "frontend.loop_iteration",  # same branch PC taken twice
            "frontend.tight_loop",      # short backward taken branch
            "frontend.branch_both_ways",  # same branch seen taken AND not
            "frontend.call_return_pair",  # return to the live call link
            "frontend.call_depth2",       # nested call with ra spilled
            "frontend.jalr_to_link",      # indirect jump through a live link
            # CSR unit / trap logic
            "csr.trap_taken",
            *[f"csr.cause_is_{c}" for c in _CAUSE_CONDITIONS],
            "csr.write",
            "csr.read_only_violation",
            "csr.priv_violation",
            "csr.counter_read",
            "csr.mret",
            "csr.in_user_mode",
            "csr.enter_user",
            "csr.wfi",
        )
        cov.freeze()

        arm = self.arm_bit

        def pairs(*names: str) -> tuple[tuple[int, int], ...]:
            """Prebound (false_bit, true_bit) arm pairs, indexed by value."""
            return tuple((arm(name, False), arm(name, True)) for name in names)

        #: word -> WordRecord, bounded by WORD_TABLE_CAP (see word_record).
        self._words: dict[int, WordRecord] = {}
        #: Interned record masks: words of one shape share their mask ints.
        self._masks: dict[int, int] = {}
        #: cause -> packed arm mask of the trap-entry condition group.
        self._trap_mask_cache: dict[int, int] = {}
        # No interrupt source is ever asserted, so the controller's poll
        # is the same all-false group every cycle: fold it into the
        # per-cycle masks instead of calling it.
        idle = self.irq._idle_mask
        self._fetch_fault_mask = idle | arm("frontend.fetch_fault", True)
        self._fetched_mask = idle | arm("frontend.fetch_fault", False)
        (self._line_cross,) = pairs("frontend.line_cross")
        self._line_offset_mask = self.icache.line_bytes - 1
        self._line_last_word = self.icache.line_bytes - 4
        self._hazard_pairs = pairs(
            "hazard.raw_rs1_ex", "hazard.raw_rs2_ex",
            "hazard.raw_rs1_mem", "hazard.raw_rs2_mem",
            "hazard.load_use_stall", "hazard.muldiv_busy",
            "hazard.chain3", "hazard.chain5",
            "hazard.sp_update_use", "hazard.load_use_after_miss",
        )
        self._issue_pairs = pairs(
            "execute.muldiv_chain", "execute.div_after_mul",
            "csr.priv_violation", "csr.in_user_mode",
        )
        self._execute_pairs = pairs(
            "execute.result_zero", "execute.result_negative",
            "execute.div_by_zero", "execute.div_overflow",
            "frontend.redirect", "csr.enter_user", "mem.fencei_dirty",
        )
        self._branch_pairs = pairs(
            "frontend.loop_iteration", "frontend.branch_both_ways",
            "execute.branch_after_cmp",
        )
        self._jump_pairs = pairs(
            "frontend.call_depth2", "frontend.jalr_to_link",
            "frontend.call_return_pair",
        )
        self._csr_pairs = pairs(
            "csr.write_read_roundtrip", "csr.mepc_user_write",
            "csr.mstatus_mpp_clear", "csr.write",
        )
        self._mem_pairs = pairs(
            "mem.sc_success", "mem.sc_after_store_fail",
            "mem.same_line_reuse", "mem.cross_line_pair", "mem.line_reuse3",
            "mem.set_thrash", "mem.victim_revisit", "mem.redirty",
            "mem.coalesce", "mem.spill_reload", "mem.lr_replay",
            "mem.amo_chain", "mem.hit_streak4", "mem.storebuf_full",
            "mem.storebuf_forward",
        )
        self._mem_fault_pairs = pairs("mem.misaligned", "mem.access_fault")

    # ------------------------------------------------------------------ run --

    def run(self, program: list[int], base: int = DRAM_BASE) -> tuple[CommitTrace, CoverageReport]:
        """Simulate one test program; returns (commit trace, coverage report)."""
        rs = self.begin_run(program, base)
        while self.step_cycle(rs):
            pass
        return self.finish_run(rs)

    def begin_run(self, program: list[int], base: int = DRAM_BASE,
                  memory: SparseMemory | None = None) -> RunState:
        """Reset the core and build the loop state for one run.

        ``memory`` lets the batched engine substitute a lane-arena-backed
        view; the default builds a fresh :class:`SparseMemory` with the
        program and trap handler loaded.
        """
        self.reset()
        self.cov.begin_run()

        rs = RunState()
        if memory is None:
            memory = SparseMemory()
            memory.load_program(program, base)
            memory.load_program(trap_handler_image(), TRAP_VECTOR)
        rs.memory = memory
        rs.state = ArchState(pc=base)
        rs.trace = CommitTrace()

        rs.handler_lo = TRAP_VECTOR
        rs.handler_hi = TRAP_VECTOR + 4 * len(trap_handler_image())

        rs.iterations = 0
        rs.cycles = 0
        rs.traps_taken = 0
        # (rd, was_load, was_muldiv) of the previous two retired instructions.
        rs.prev1 = (None, False, False)
        rs.prev2 = (None, False, False)
        rs.muldiv_busy_until = 0
        rs.store_buffer = []
        rs.dep_chain = 0
        rs.prev_wrote_sp = False
        rs.branch_taken_counts = {}
        self._hit_streak = 0
        self._last_line: int | None = None
        # Deep-FSM trackers (see the condition block in __init__).
        self._line_touches: dict[int, int] = {}
        self._evicted_lines: set[int] = set()
        self._last_store_addr: int | None = None
        self._sp_slots: set[int] = set()
        self._resv_addr: int | None = None
        self._resv_broken = False
        self._amo_rd: int | None = None
        self._amo_age = 0
        self._prev_load_missed = False
        rs.link_stack = []
        rs.ra_saved = False
        rs.branch_outcomes = {}
        rs.csrs_written = set()
        rs.last_muldiv_was_mul = False
        rs.prev_was_cmp_rd = None
        return rs

    def finish_run(self, rs: RunState) -> tuple[CommitTrace, CoverageReport]:
        """Seal a finished run into (commit trace, coverage report)."""
        rs.trace.cycles = rs.cycles
        return rs.trace, CoverageReport.from_coverage(self.cov, rs.cycles)

    def step_cycle(self, rs: RunState) -> bool:
        """Execute exactly one run-loop iteration (the shared step hook).

        Returns True while the run should continue; False once a stop
        reason has been recorded on ``rs.trace``.  One iteration is one
        fetch attempt: a retired instruction, or a trap entry.  Its
        condition arms accumulate in ``mask`` and are recorded once.
        """
        p = self.params
        if rs.iterations >= p.max_steps:
            rs.trace.stop_reason = "max_steps"
            return False
        rs.iterations += 1

        state = rs.state
        memory = rs.memory
        pc = state.pc
        priv = state.priv
        cycles = rs.cycles + 1  # base CPI of 1

        # ---------------- fetch (through the I$: Bug1 lives here) -------
        if not memory.is_mapped(pc, 4):
            rs.cycles = cycles + p.trap_penalty
            return self._trap(rs, self._fetch_fault_mask, pc, 0,
                              EXC_INSTR_ACCESS_FAULT, pc, priv)
        icache = self.icache
        offset = pc & self._line_offset_mask
        line = icache.lookup(pc)
        if line is None:
            line = icache.refill(pc, memory.read_bytes)
            cycles += icache.miss_penalty
            word = int.from_bytes(line.data[offset:offset + 4], "little")
        elif p.bug1_fencei:
            # A cached line is served even when the backing memory has
            # since been modified: the stale-instruction behaviour behind
            # CWE-1202.
            word = int.from_bytes(line.data[offset:offset + 4], "little")
        else:
            # Clean core: the I$ snoops stores, so always serve fresh memory.
            word = int.from_bytes(memory.read_bytes(pc, 4), "little")

        # ---------------- decode ----------------------------------------
        (instr, meta, _, issue, retire, mem_static, src1, src2, branch,
         ) = self._words.get(word) or self.word_record(word)
        mask = issue | self._line_cross[offset == self._line_last_word]
        if instr is None:
            rs.cycles = cycles + p.trap_penalty
            return self._trap(rs, mask, pc, word, EXC_ILLEGAL_INSTRUCTION,
                              word, priv)

        # ---------------- hazards ---------------------------------------
        prev1 = rs.prev1
        raw1_ex = src1 == prev1[0]
        raw2_ex = src2 == prev1[0]
        raw_ex = raw1_ex or raw2_ex
        load_use = raw_ex and prev1[1]
        if load_use:
            cycles += 1
        muldiv = meta & M_MULDIV
        muldiv_stall = muldiv and cycles < rs.muldiv_busy_until
        if muldiv_stall:
            cycles = rs.muldiv_busy_until
        if raw_ex:
            rs.dep_chain += 1
        else:
            rs.dep_chain = 1 if meta & M_WRD else 0
        dep_chain = rs.dep_chain
        prev2_rd = rs.prev2[0]
        (h_raw1_ex, h_raw2_ex, h_raw1_mem, h_raw2_mem, h_load_use,
         h_muldiv, h_chain3, h_chain5, h_sp_use, h_lu_miss,
         ) = self._hazard_pairs
        mask |= (
            h_raw1_ex[raw1_ex]
            | h_raw2_ex[raw2_ex]
            | h_raw1_mem[src1 == prev2_rd]
            | h_raw2_mem[src2 == prev2_rd]
            | h_load_use[load_use]
            | h_muldiv[muldiv_stall]
            | h_chain3[dep_chain >= 3]
            | h_chain5[dep_chain >= 5]
            | h_sp_use[rs.prev_wrote_sp and src1 == 2]
            | h_lu_miss[load_use and self._prev_load_missed]
        )
        rs.prev_wrote_sp = (meta & M_WRSP) != 0
        p_muldiv_chain, p_div_after_mul, p_priv, p_user = self._issue_pairs
        if muldiv:
            divlike = meta & M_DIVLIKE
            mask |= (
                p_muldiv_chain[raw_ex and prev1[2]]
                | p_div_after_mul[divlike and rs.last_muldiv_was_mul
                                  and cycles < rs.muldiv_busy_until
                                  + p.mul_latency]
            )
            rs.last_muldiv_was_mul = not divlike

        # CSR-unit pre-checks (the access legality conditions that depend on
        # the privilege level; the rest are static in the word's record).
        if meta & M_CSR:
            mask |= p_priv[priv < (meta >> M_MINPRIV_SHIFT & 3)]
        mask |= p_user[priv == PRV_U]

        # ---------------- execute ---------------------------------------
        predicted = False
        if branch is not None:
            predicted = self.predictor.predict(pc)
        try:
            result = execute(state, memory, instr, pc)
        except Trap as trap:
            trap = self._adjust_trap_priority(trap, instr, memory)
            cause = trap.cause
            if meta & M_MEM:
                p_misaligned, p_access_fault = self._mem_fault_pairs
                mask |= (
                    p_misaligned[cause in (EXC_LOAD_MISALIGNED,
                                           EXC_STORE_MISALIGNED)]
                    | p_access_fault[cause in (EXC_LOAD_ACCESS_FAULT,
                                               EXC_STORE_ACCESS_FAULT)]
                )
            rs.cycles = cycles + p.trap_penalty
            rs.store_buffer.clear()
            rs.prev1, rs.prev2 = (None, False, False), prev1
            return self._trap(rs, mask, pc, word, cause, trap.tval, priv)

        mask |= retire
        next_pc = result.next_pc
        fall_through = (pc + 4) & WORD_MASK
        rd = result.rd
        (p_zero, p_negative, p_div_zero, p_div_overflow, p_redirect,
         p_enter_user, p_fencei_dirty) = self._execute_pairs
        if rd:
            value = result.rd_value
            mask |= p_zero[value == 0] | p_negative[value >> 63 != 0]
        if muldiv:
            if meta & M_DIVLIKE:
                divisor = state.read_reg(instr.rs2)
                mask |= (
                    p_div_zero[divisor == 0]
                    | p_div_overflow[divisor == WORD_MASK
                                     and state.read_reg(instr.rs1) == 1 << 63]
                )
                cycles += p.div_latency
            else:
                cycles += p.mul_latency
        if result.mem is not None or meta & M_SC:
            extra, mem_mask = self._memory_model(instr, meta, mem_static,
                                                 result, memory,
                                                 rs.store_buffer)
            cycles += extra
            mask |= mem_mask

        if branch is not None:
            taken = next_pc != fall_through
            self.predictor.update(pc, taken, predicted)
            if taken != predicted:
                cycles += p.mispredict_penalty
            counts = rs.branch_taken_counts
            if taken:
                counts[pc] = counts.get(pc, 0) + 1
            outcomes = rs.branch_outcomes.setdefault(pc, set())
            outcomes.add(taken)
            cmp_rd = rs.prev_was_cmp_rd
            p_loop, p_both_ways, p_after_cmp = self._branch_pairs
            mask |= (
                branch[taken]
                | p_loop[taken and counts[pc] >= 2]
                | p_both_ways[len(outcomes) == 2]
                | p_after_cmp[cmp_rd is not None
                              and cmp_rd in (instr.rs1, instr.rs2)]
            )
        elif meta & (M_JUMP | M_MRET):
            mask |= p_redirect[next_pc != fall_through]
            if meta & M_JUMP:
                mask |= self._jump_arms(rs, instr, meta, next_pc,
                                        fall_through)
            else:
                mask |= p_enter_user[state.priv == PRV_U]
        rs.prev_was_cmp_rd = (meta & 31 or None) if meta & M_CMP else None
        if meta & M_STORE:
            if instr.rs2 == 1:
                rs.ra_saved = True
        elif meta & M_LOAD and instr.rd == 1:
            rs.ra_saved = False
        in_handler = rs.handler_lo <= pc < rs.handler_hi
        if meta & M_CSR:
            csr = instr.csr
            csr_write = result.csr_write
            will_write = csr_write is not None
            written = rs.csrs_written
            p_roundtrip, p_mepc_write, p_mpp_clear, p_write = self._csr_pairs
            mask |= (
                p_roundtrip[not in_handler and csr in written]
                | p_mepc_write[not in_handler and will_write
                               and csr == CSR_MEPC]
                | p_mpp_clear[will_write and csr == CSR_MSTATUS
                              and csr_write[1] & 0x1800 == 0]
                | p_write[will_write]
            )
            if will_write and not in_handler:
                written.add(csr)
        if meta & M_FENCEI:
            dirty = any(
                line.dirty for ways in self.dcache.lines for line in ways
            )
            mask |= p_fencei_dirty[dirty]
            self.icache.invalidate_all()
            cycles += p.fencei_penalty
        self.cov.record_mask(mask)

        # ---------------- retire ----------------------------------------
        if not in_handler:
            rs.trace.append(self.tracer.retire(pc, instr, priv, result))
        if muldiv:
            rs.muldiv_busy_until = cycles + (
                p.div_latency if meta & M_DIVLIKE else p.mul_latency)
        rs.prev1, rs.prev2 = (
            (rd or None, (meta & M_LOAD) != 0, muldiv != 0),
            prev1,
        )
        rs.cycles = cycles
        state.pc = next_pc & WORD_MASK
        state.csr.tick()
        if p.timed_counter_csr:
            # Expose the timed cycle count through mcycle — realistic,
            # but a false-positive source vs. the untimed golden model.
            delta = cycles - state.csr.raw_read(CSR_MCYCLE)
            if delta > 0:
                state.csr.tick(cycles=delta, instret=0)
        if result.halt:
            rs.trace.stop_reason = "wfi"
            return False
        return True

    def _trap(self, rs: RunState, mask: int, pc: int, instr_word: int,
              cause: int, tval: int, priv: int) -> bool:
        """Take a synchronous trap at ``pc``: record the cycle's arms with
        the trap-entry group, log the trap and enter the handler."""
        self.cov.record_mask(mask | self._trap_bits(cause))
        rs.traps_taken += 1
        state = rs.state
        rs.trace.append(TraceEntry(pc=pc, instr=instr_word, priv=priv,
                                   trap_cause=cause, trap_tval=tval))
        state.reservation = None
        state.pc = state.csr.enter_trap(cause, pc, tval, priv)
        state.priv = PRV_M
        state.csr.tick()
        if rs.traps_taken >= self.params.max_traps:
            rs.trace.stop_reason = "max_traps"
            return False
        return True

    def _jump_arms(self, rs: RunState, instr, meta: int, next_pc: int,
                   fall_through: int) -> int:
        """Call/return tracking of a retiring jal/jalr; returns its arms."""
        p_depth2, p_to_link, p_return = self._jump_pairs
        link_stack = rs.link_stack
        if meta & M_JAL:
            if instr.rd != 1:
                return 0
            mask = p_depth2[rs.ra_saved and bool(link_stack)]
            link_stack.append(fall_through)
            del link_stack[:-8]
            return mask
        via_link = instr.rs1 == 1 and bool(link_stack)
        is_return = (via_link and instr.rd == 0
                     and next_pc == link_stack[-1])
        if is_return:
            link_stack.pop()
        return p_to_link[via_link] | p_return[is_return]

    # -------------------------------------------------------- word records --

    def word_record(self, word: int) -> WordRecord:
        """The :class:`WordRecord` of ``word``, from the bounded table.

        At ``WORD_TABLE_CAP`` entries the table (and the mask interning
        table) is cleared and rebuilt from the hot working set, matching the
        decoder's bounded cache instead of growing for a campaign's life.
        """
        rec = self._words.get(word)
        if rec is None:
            if len(self._words) >= WORD_TABLE_CAP:
                self._words.clear()
                self._masks.clear()
            rec = self._words[word] = self._build_record(word)
        return rec

    def _build_record(self, word: int) -> WordRecord:
        instr = decode(word)
        arm = self.arm_bit
        intern = self._masks.setdefault
        dmask = self._decode_mask(instr)
        issue = self._fetched_mask | dmask
        if instr is None:
            return WordRecord(None, 0, intern(dmask, dmask),
                              intern(issue, issue), 0, 0, -1, -1, None)
        spec = instr.spec
        m = spec.mnemonic
        meta = _word_meta(instr)
        if spec.is_csr:
            issue |= (arm("csr.read_only_violation", meta & M_CSR_RO)
                      | arm("csr.counter_read", meta & M_CSR_CTR))
        # The retire group: arms a non-trapping execution records whatever
        # the data (wfi always halts, only CSR instructions write CSRs,
        # and only branches, jumps and mret redirect the pc).
        retire = (arm("csr.trap_taken", False) | arm("csr.mret", m == "mret")
                  | arm("csr.wfi", m == "wfi"))
        if m != "mret":
            retire |= arm("csr.enter_user", False)
        if not spec.is_csr:
            retire |= arm("csr.write", False)
        if not (spec.is_branch or spec.is_jump or m == "mret"):
            retire |= arm("frontend.redirect", False)
        if spec.is_muldiv and not meta & M_DIVLIKE:
            retire |= arm("execute.mul_high", meta & M_MULHI)
        if meta & M_SHIFTI:
            retire |= arm("execute.shift_zero_amount", instr.shamt == 0)
        if spec.is_jump:
            retire |= arm("execute.link_reg_used", instr.rd == 1)
        if m == "fence.i":
            retire |= arm("mem.fencei_flush", True)
        elif spec.is_fence:
            retire |= arm("mem.fencei_flush", False)
        mem = 0
        if spec.is_memory:
            imm = 0 if spec.is_amo else instr.imm
            mem = (arm("mem.misaligned", False)
                   | arm("mem.access_fault", False)
                   | arm("mem.is_amo_op", spec.is_amo)
                   | arm("mem.reservation_set", meta & M_LR)
                   | arm("mem.base_is_sp", instr.rs1 == 2)
                   | arm("mem.base_is_gp_tp", instr.rs1 in (3, 4))
                   | arm("mem.frame_access", instr.rs1 == 2 and 0 <= imm < 64)
                   | arm("mem.neg_offset_store", spec.is_store and imm < 0))
        branch = None
        if spec.is_branch:
            retire |= arm("execute.br_backward", instr.imm < 0)
            tight = -64 <= instr.imm < 0
            branch = tuple(
                intern(mask, mask) for mask in (
                    arm("execute.br_taken", taken)
                    | arm("frontend.redirect", taken)
                    | arm("frontend.tight_loop", taken and tight)
                    | arm("execute.beq_taken", taken and m == "beq")
                    for taken in (False, True)
                )
            )
        return WordRecord(
            instr, meta, intern(dmask, dmask), intern(issue, issue),
            intern(retire, retire), intern(mem, mem),
            instr.rs1 if spec.reads_rs1 and instr.rs1 else -1,
            instr.rs2 if spec.reads_rs2 and instr.rs2 else -1,
            branch,
        )

    # ------------------------------------------------------------- conditions --

    def _decode_mask(self, instr) -> int:
        spec = instr.spec if instr is not None else None
        m = spec.mnemonic if spec else ""
        arm = self.arm_bit
        mask = arm("decode.illegal", instr is None)
        mask |= arm("decode.is_alu_reg", spec is not None and spec.fmt == "R"
                    and not spec.is_muldiv)
        mask |= arm("decode.is_alu_imm", spec is not None
                    and spec.fmt in ("I", "I_SHIFT64", "I_SHIFT32")
                    and not (spec.is_load or spec.is_jump))
        mask |= arm("decode.is_lui", m == "lui")
        mask |= arm("decode.is_auipc", m == "auipc")
        mask |= arm("decode.is_load", spec is not None and spec.is_load)
        mask |= arm("decode.is_store", spec is not None and spec.is_store)
        mask |= arm("decode.is_branch", spec is not None and spec.is_branch)
        mask |= arm("decode.is_jal", m == "jal")
        mask |= arm("decode.is_jalr", m == "jalr")
        mask |= arm("decode.is_amo", spec is not None and spec.is_amo
                    and not m.startswith(("lr.", "sc.")))
        mask |= arm("decode.is_lr", m.startswith("lr."))
        mask |= arm("decode.is_sc", m.startswith("sc."))
        mask |= arm("decode.is_muldiv", spec is not None and spec.is_muldiv)
        mask |= arm("decode.is_csr", spec is not None and spec.is_csr)
        mask |= arm("decode.is_system", spec is not None and spec.is_system)
        mask |= arm("decode.is_fence", m == "fence")
        mask |= arm("decode.is_fencei", m == "fence.i")
        mask |= arm("decode.rd_x0", spec is not None and spec.writes_rd
                    and instr.rd == 0)
        mask |= arm("decode.rs1_x0", spec is not None and spec.reads_rs1
                    and instr.rs1 == 0)
        word_op = spec is not None and (
            (m.endswith("w") and m not in ("lw", "sw", "lwu", "lhu"))
            or m.endswith(".w")
        )
        mask |= arm("decode.word_op", word_op)
        return mask

    def _memory_model(self, instr, meta: int, static: int, result, memory,
                      store_buffer: list[int]) -> tuple[int, int]:
        """D$-side modelling for a successfully executed instruction.

        Returns ``(extra cycles, condition arms)``; ``static`` is the word's
        memory arms, recorded when the instruction accessed memory.
        """
        (p_sc_success, p_sc_fail, p_same_line, p_cross_line, p_reuse3,
         p_set_thrash, p_victim, p_redirty, p_coalesce, p_spill_reload,
         p_lr_replay, p_amo_chain, p_streak4, p_sb_full, p_sb_forward,
         ) = self._mem_pairs
        mask = 0
        # SC conditions must also fire for *failed* SCs, which perform no
        # memory operation at all.
        if meta & M_SC:
            failed = result.rd_value != 0
            mask = (p_sc_success[not failed]
                    | p_sc_fail[failed and self._resv_broken])
            self._resv_addr = None
            self._resv_broken = False
        op = result.mem
        if op is None:
            return 0, mask
        extra = 0
        addr = op.addr
        is_store = op.is_store
        dcache = self.dcache
        mask |= static
        # Locality conditions.
        line_key = addr // dcache.line_bytes
        last = self._last_line
        mask |= (p_same_line[line_key == last]
                 | p_cross_line[last is not None
                                and abs(line_key - last) == 1])
        self._last_line = line_key

        # Line-reuse / conflict FSM tracking: set_thrash needs a second
        # line of this line's set touched twice or more.
        touches = self._line_touches
        count = touches[line_key] = touches.get(line_key, 0) + 1
        set_bits = dcache._index_mask
        set_idx = line_key & set_bits
        mask |= (
            p_reuse3[count >= 3]
            | p_set_thrash[count >= 2 and sum(
                1 for key, n in touches.items()
                if n >= 2 and key & set_bits == set_idx) >= 2]
            | p_victim[line_key in self._evicted_lines]
            | p_redirty[is_store and dcache.is_dirty(addr)]
            | p_coalesce[is_store and addr == self._last_store_addr]
        )
        if is_store:
            self._last_store_addr = addr

        # Spill/reload: sp-relative store slot later loaded back.
        if instr.rs1 == 2 and not meta & M_AMO:
            if is_store:
                self._sp_slots.add(addr)
                mask |= p_spill_reload[False]
            else:
                mask |= p_spill_reload[addr in self._sp_slots]

        # LR reservation FSM (the SC side is handled above, before the
        # early-return, so failed SCs participate too).
        if meta & M_LR:
            mask |= p_lr_replay[self._resv_addr is not None]
            self._resv_addr = addr
            self._resv_broken = False
        elif is_store and not meta & M_SC and addr == self._resv_addr:
            self._resv_broken = True
            self._resv_addr = None

        # Chained atomics.
        if meta & M_AMO and not meta & (M_LR | M_SC):
            amo_rd = self._amo_rd
            mask |= p_amo_chain[amo_rd is not None and self._amo_age <= 4
                                and amo_rd in (instr.rs1, instr.rs2)]
            if result.rd:
                self._amo_rd = result.rd
                self._amo_age = 0
        self._amo_age += 1

        line = dcache.lookup(addr)
        if line is not None:
            self._hit_streak += 1
        else:
            self._hit_streak = 0
        mask |= p_streak4[self._hit_streak >= 4]
        if line is None:
            dcache.refill(addr, memory.read_bytes)
            if dcache.last_evicted is not None:
                self._evicted_lines.add(dcache.last_evicted)
            extra += dcache.miss_penalty
        self._prev_load_missed = (meta & M_LOAD) != 0 and line is None
        if is_store:
            dcache.update_stored_line(addr, op.data.to_bytes(op.size, "little"))
            full = len(store_buffer) >= self.params.store_buffer_depth
            mask |= p_sb_full[full]
            if full:
                extra += 1
                store_buffer.pop(0)
            store_buffer.append(addr)
        else:
            mask |= p_sb_forward[addr in store_buffer]
            if store_buffer:
                store_buffer.pop(0)
        return extra, mask

    def _trap_bits(self, cause: int) -> int:
        """The trap-entry group's arms for ``cause``, memoized per cause."""
        mask = self._trap_mask_cache.get(cause)
        if mask is None:
            mask = self._trap_mask_cache[cause] = self._trap_mask(cause)
        return mask

    def _trap_mask(self, cause: int) -> int:
        mask = self.arm_bit("csr.trap_taken", True)
        for c in _CAUSE_CONDITIONS:
            mask |= self.arm_bit(f"csr.cause_is_{c}", cause == c)
        return mask

    # ----------------------------------------------------------- Finding1 ----

    def _adjust_trap_priority(self, trap: Trap, instr, memory: SparseMemory) -> Trap:
        """Finding1: report access-fault when an access is misaligned *and*
        unmapped (the spec — and golden model — prioritise misaligned)."""
        if not self.params.finding1_trap_priority or instr is None:
            return trap
        spec = instr.spec
        if not spec.is_memory:
            return trap
        if trap.cause == EXC_LOAD_MISALIGNED:
            size = _LOAD_SIZE.get(spec.mnemonic, 4 if spec.mnemonic.endswith(".w") else 8)
            if not memory.is_mapped(trap.tval, size):
                return Trap(EXC_LOAD_ACCESS_FAULT, tval=trap.tval)
        elif trap.cause == EXC_STORE_MISALIGNED:
            size = _STORE_SIZE.get(spec.mnemonic, 4 if spec.mnemonic.endswith(".w") else 8)
            if not memory.is_mapped(trap.tval, size):
                return Trap(EXC_STORE_ACCESS_FAULT, tval=trap.tval)
        return trap
