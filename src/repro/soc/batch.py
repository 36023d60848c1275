"""Batched structure-of-arrays DUT execution: numpy lanes for RocketCore.

The golden half of the vectorise-the-simulators item (``repro.golden.batch``)
made the reference ISS cheap; this module closes the DUT half.  A
:class:`DutBatchSimulator` executes N test programs as lockstep numpy lanes
through the Rocket core model — PC vector, ``32xN`` register file, per-lane
dense memory arena and the same precomputed decode dispatch table the golden
engine builds — producing per-lane :class:`~repro.golden.trace.CommitTrace`\\ s
*and* per-lane :class:`~repro.rtl.report.CoverageReport`\\ s bit-identical to
the scalar ``RocketCore.run`` path.

What is new relative to the golden half is microarchitectural state and
coverage:

- **SoA caches and predictor.**  ``SetAssocCache`` valid/tag/LRU state and
  the BTB live as per-lane arrays (:class:`_SoACache`) with masked update
  kernels for the fetch path; the D$ side and the predictor update run as
  exact per-lane mirror loops (memory instructions are a minority of the
  stream, so the vector win comes from the fetch/decode/ALU/CSR planes).
- **Lane-wise coverage.**  Every scalar ``record_mask`` fold — the memoized
  decode masks, the trap-cause comparator groups, the hazard pairs, the
  idle interrupt poll — becomes a vectorised OR into an N-lane bitmap
  matrix (``covmat``, one row of packed uint64 words per lane) that
  collapses to per-lane packed :class:`~repro.rtl.bitset.Bitset` reports at
  the end.  Condition *values* replicate the scalar dataflow exactly;
  recording order is free because coverage accumulation is an OR.
- **The trap handler is part of the dispatch table.**  Unlike the golden
  engine's analytic trap plane, the DUT must execute handler instructions
  (they cost cycles, hit the I$, write x31, record hazards).  The handler
  image is appended to the dispatch table as six extra columns, so trap
  entry is just a vectorised PC redirect and the handler body runs as
  ordinary vector rounds with trace emission suppressed.

Rare/hard events — atomics, misaligned fetch, stores that would make a
cached I$ line stale under Bug1 — peel single lanes to the retained scalar
core via the shared per-instruction step hook
(:meth:`~repro.soc.rocket.core.RocketCore.step_cycle`), exactly as
``golden.batch`` peels to ``step_instruction``: lane state is spliced into a
:class:`~repro.soc.rocket.core.RunState`, the scalar core steps until the
lane can rejoin, and the result (including the peeled steps' coverage bits)
is spliced back.  Hard-case semantics keep one implementation.

Parity — traces *and* coverage reports, at every lane width, including the
peel/fallback paths — is pinned by ``tests/soc/test_batch.py``.
"""

from __future__ import annotations

from repro.golden.csr import (
    MSTATUS_MIE,
    MSTATUS_MPIE,
    MSTATUS_MPP_MASK,
    MSTATUS_MPP_SHIFT,
)
from repro.golden.simulator import HANDLER_END, SimConfig, trap_handler_image
from repro.golden.batch import (
    DEFAULT_LANES,
    F_IMM,
    K_AMO,
    K_ILLEGAL,
    K_MRET,
    K_PEEL,
    K_STORE,
    LANE_MIN,
    _LaneGroup,
    _LaneMemory,
    _record as _table_record,
)
from repro.golden.trace import CommitTrace, MemOp, TraceEntry
from repro.isa import spec
from repro.rtl.bitset import Bitset
from repro.rtl.report import CoverageReport
from repro.soc.rocket.core import (
    M_BEQ,
    M_BRANCH,
    M_CMP,
    M_CSR,
    M_CSR_CTR,
    M_CSR_RO,
    M_DIVLIKE,
    M_FENCE,
    M_FENCEI,
    M_JAL,
    M_JALR,
    M_JUMP,
    M_LOAD,
    M_MEM,
    M_MINPRIV_SHIFT,
    M_MULDIV,
    M_MULHI,
    M_RS1READ,
    M_RS2READ,
    M_SHIFTI,
    M_STORE,
    M_WRD,
    RocketCore,
)
from repro.soc.rocket.params import RocketParams

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image always has numpy
    _np = None

__all__ = ["DutBatchSimulator", "DEFAULT_LANES", "LANE_MIN"]


def _nz1(mask):
    """``flatnonzero`` for 1-D masks without the ravel/asarray wrapper —
    the round loop calls this dozens of times per step."""
    return mask.nonzero()[0]

class DutBatchSimulator:
    """Structure-of-arrays batch DUT producing scalar-identical results.

    >>> batch = DutBatchSimulator(lanes=32)
    >>> results = batch.run_batch([prog0, prog1, ...])   # doctest: +SKIP

    ``run_batch`` returns one ``(CommitTrace, CoverageReport)`` pair per
    program — the same tuple ``RocketCore.run`` produces, bit-identical.

    Parameters
    ----------
    params:
        Same :class:`RocketParams` the scalar core takes.  The retained
        scalar core (also the peel target) is built from it once.
    lanes:
        Lane-group width; see the ROADMAP's "Choosing lane widths
        (golden + DUT)" guidance.
    """

    def __init__(self, params: RocketParams | None = None,
                 lanes: int = DEFAULT_LANES) -> None:
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self.params = params or RocketParams()
        self.lanes = lanes
        self._core = RocketCore(self.params)
        #: cause -> coverage row for the trap-entry condition group.
        self._trap_rows: dict[int, object] = {}
        self._arm_vec: dict[str, tuple[int, object, object]] | None = None
        self._arm_int: dict[str, tuple[int, int]] | None = None
        self._cblocks: dict[str, "_CondBlock"] = {}
        self._idle_row = None
        cov = self._core.cov
        self.total_arms = cov.total_arms
        #: covmat width: packed-arm bitmap words per lane.
        self.W = (cov.total_arms + 63) // 64

    # -- coverage plumbing ---------------------------------------------------

    def _row(self, mask: int):
        """Fold a python-int arm mask into a (W,) uint64 coverage row."""
        np = _np
        row = np.zeros(self.W, dtype=np.uint64)
        lo = (1 << 64) - 1
        for w in range(self.W):
            if not mask:
                break
            row[w] = mask & lo
            mask >>= 64
        return row

    def _arm_tables(self):
        """(vector pairs, int pairs): for every declared condition, the
        false/true arm bits keyed by full condition name.

        Vector pairs are ``(word, F_bit, T_bit)`` — the two arms of one
        condition always share a 64-bit word because the false arm index is
        even.  Int pairs are full-precision ``(F_mask, T_mask)`` python
        ints for the per-lane mirror loops, which accumulate one int mask
        per lane and fold it once.
        """
        if self._arm_vec is None:
            np = _np
            vec: dict[str, tuple[int, object, object]] = {}
            ints: dict[str, tuple[int, int]] = {}
            for name, info in self._core.cov._by_name.items():
                b = 2 * info.index
                vec[name] = (
                    b >> 6,
                    np.uint64(1 << (b & 63)),
                    np.uint64(1 << ((b & 63) + 1)),
                )
                ints[name] = (1 << b, 1 << (b + 1))
            self._arm_vec = vec
            self._arm_int = ints
        return self._arm_vec, self._arm_int

    def _cond_block(self, key: str, items):
        """Memoized :class:`_CondBlock` for one static recording site."""
        blk = self._cblocks.get(key)
        if blk is None:
            blk = self._cblocks[key] = _CondBlock(self._arm_tables()[0], items)
        return blk

    def _trap_row(self, cause: int):
        row = self._trap_rows.get(cause)
        if row is None:
            row = self._row(self._core._trap_mask(cause))
            self._trap_rows[cause] = row
        return row

    def _idle(self):
        if self._idle_row is None:
            self._idle_row = self._row(self._core.irq._idle_mask)
        return self._idle_row

    def _meta(self, word: int) -> tuple[int, int]:
        """(meta flags, packed decode mask) of one instruction word, read
        from the retained core's per-word table, so the two engines share
        one description of every word's decode coverage."""
        rec = self._core.word_record(word)
        return rec.meta, rec.dmask

    # -- entry point ---------------------------------------------------------

    def run_batch(self, programs, base: int = spec.DRAM_BASE):
        """Execute ``programs``; one ``(trace, report)`` pair each, in order,
        bit-identical to ``[RocketCore(params).run(p, base) for p in ...]``.
        """
        progs = [list(p) for p in programs]
        if not progs:
            return []
        if not self._batchable(progs, base):
            return [self._core.run(p, base) for p in progs]
        out = []
        for i in range(0, len(progs), self.lanes):
            chunk = progs[i:i + self.lanes]
            if len(chunk) < LANE_MIN:
                out.extend(self._core.run(p, base) for p in chunk)
            else:
                out.extend(_DutLaneGroup(self, chunk, base).run())
        return out

    def _batchable(self, progs: list[list[int]], base: int) -> bool:
        if _np is None or len(progs) < LANE_MIN:
            return False
        p = self.params
        # The vector cache kernels model the default 2-way geometry; exotic
        # configurations stay on the (retained, exact) scalar path.
        if p.icache_ways != 2 or p.dcache_ways != 2:
            return False
        lmax = max(len(q) for q in progs)
        # The dispatch table must sit inside DRAM, clear of the handler.
        return spec.DRAM_BASE <= base and base + 4 * lmax <= spec.TRAP_VECTOR


class _CondBlock:
    """A compiled multi-condition recording site.

    ``_recs`` pays ~3 numpy calls *per condition*; at lane widths of a few
    hundred that fixed per-call overhead dwarfs the actual bit work.  A
    block is compiled once per static call site from ``(name, mode)`` items
    — mode ``"D"`` dynamic, ``"G"`` dynamic-gated (contributes nothing
    where the gate is false), or a bool literal for constant-arm items —
    and records the whole site with O(1) numpy calls: stack the value rows,
    one ``where`` against per-item arm columns, zero the gated rows' masked
    lanes, segment-OR rows sharing a bitmap word (``bitwise_or.reduceat``),
    then a single scatter into the lane bitmap matrix.
    """

    __slots__ = ("fb", "tb", "order", "starts", "uw", "gidx", "cvec",
                 "extra", "permute")

    def __init__(self, vp, items) -> None:
        np = _np
        rows = []          # (word, F_bit, T_bit) per dynamic item
        gidx = []          # dynamic-row indices that carry a gate
        consts: dict[int, int] = {}
        for name, mode in items:
            w, fb, tb = vp[name]
            if mode is True or mode is False:
                consts[w] = consts.get(w, 0) | int(tb if mode else fb)
                continue
            if mode == "G":
                gidx.append(len(rows))
            rows.append((w, fb, tb))
        ws = np.array([r[0] for r in rows], dtype=np.intp)
        self.fb = np.array([r[1] for r in rows], dtype=np.uint64)[:, None]
        self.tb = np.array([r[2] for r in rows], dtype=np.uint64)[:, None]
        self.gidx = np.array(gidx, dtype=np.intp)
        order = np.argsort(ws, kind="stable")
        self.permute = bool((order != np.arange(order.size)).any())
        self.order = order
        sw = ws[order]
        uw, starts = np.unique(sw, return_index=True)
        self.uw = uw
        self.starts = starts
        # Constant contributions: fold into the reduced rows where the word
        # is already present, else scatter separately.
        cvec = np.zeros((uw.size, 1), dtype=np.uint64)
        extra = []
        hit_any = False
        pos = {int(w): i for i, w in enumerate(uw)}
        for w, v in consts.items():
            if w in pos:
                cvec[pos[w], 0] = np.uint64(v)
                hit_any = True
            else:
                extra.append((w, np.uint64(v)))
        self.cvec = cvec if hit_any else None
        self.extra = extra

    def record(self, covmat, lanes, vals, gates=()) -> None:
        """OR this site's arms into ``covmat[lanes]``.

        ``vals``: one (k,) bool array per dynamic item, in item order.
        ``gates``: one (k,) bool array per gated item, in gated-item order.
        """
        if not lanes.size:
            return
        np = _np
        k = lanes.size
        # concatenate+reshape beats np.stack here: same layout, none of the
        # per-row python shim the stack wrapper pays.
        contrib = np.where(np.concatenate(vals).reshape(len(vals), k),
                           self.tb, self.fb)
        if gates:
            gi = self.gidx
            contrib[gi] = np.where(
                np.concatenate(gates).reshape(len(gates), k),
                contrib[gi], np.uint64(0))
        if self.permute:
            contrib = contrib[self.order]
        red = np.bitwise_or.reduceat(contrib, self.starts, axis=0)
        if self.cvec is not None:
            red |= self.cvec
        uw = self.uw
        if uw.size == 1:
            covmat[lanes, uw[0]] |= red[0]
        else:
            covmat[lanes[:, None], uw[None, :]] |= red.T
        for w, v in self.extra:
            covmat[lanes, w] |= v


#: Compiled-site specs (see :class:`_CondBlock`): ``"D"`` dynamic, ``"G"``
#: gated, bool literal constant.  Gates are passed in gated-item order.
_IC_SPEC = (
    ("rocket.icache.hit", "D"),
    ("rocket.icache.refill", "D"),
    ("rocket.icache.hit_way0", "G"),
    ("rocket.icache.hit_way1", "G"),
    ("rocket.icache.set_conflict", "G"),
    ("rocket.icache.evict_valid", "G"),
)

_DSTAGE_SPEC = (
    ("rocket.hazard.raw_rs1_ex", "D"),
    ("rocket.hazard.raw_rs2_ex", "D"),
    ("rocket.hazard.raw_rs1_mem", "D"),
    ("rocket.hazard.raw_rs2_mem", "D"),
    ("rocket.hazard.load_use_stall", "D"),
    ("rocket.hazard.muldiv_busy", "D"),
    ("rocket.hazard.chain3", "D"),
    ("rocket.hazard.chain5", "D"),
    ("rocket.hazard.sp_update_use", "D"),
    ("rocket.hazard.load_use_after_miss", "D"),
    ("rocket.execute.muldiv_chain", "G"),
    ("rocket.execute.div_after_mul", "G"),
    ("rocket.csr.read_only_violation", "G"),
    ("rocket.csr.priv_violation", "G"),
    ("rocket.csr.counter_read", "G"),
    ("rocket.csr.in_user_mode", "D"),
    ("rocket.frontend.bpu.btb_hit", "G"),
    ("rocket.frontend.bpu.btb_alias", "G"),
    ("rocket.frontend.bpu.pred_taken", "G"),
)

_EXEC_SPEC = (
    ("rocket.csr.trap_taken", False),
    ("rocket.execute.br_taken", "G"),
    ("rocket.execute.br_backward", "G"),
    ("rocket.execute.result_zero", "G"),
    ("rocket.execute.result_negative", "G"),
    ("rocket.execute.div_by_zero", "G"),
    ("rocket.execute.div_overflow", "G"),
    ("rocket.execute.mul_high", "G"),
    ("rocket.execute.shift_zero_amount", "G"),
    ("rocket.frontend.redirect", "D"),
    ("rocket.mem.fencei_flush", "G"),
    ("rocket.csr.mret", "D"),
    ("rocket.csr.enter_user", "D"),
    ("rocket.csr.wfi", "D"),
    ("rocket.csr.write", "D"),
    ("rocket.frontend.bpu.mispredict", "G"),
    ("rocket.frontend.bpu.update_new_entry", "G"),
    ("rocket.frontend.bpu.ctr_saturated_taken", "G"),
    ("rocket.frontend.bpu.ctr_saturated_not_taken", "G"),
    ("rocket.frontend.tight_loop", "G"),
    ("rocket.execute.beq_taken", "G"),
    ("rocket.execute.branch_after_cmp", "G"),
)

_MEM_SPEC = (
    ("rocket.mem.misaligned", False),
    ("rocket.mem.access_fault", False),
    ("rocket.mem.is_amo_op", False),
    ("rocket.mem.reservation_set", False),
    ("rocket.mem.base_is_sp", "D"),
    ("rocket.mem.base_is_gp_tp", "D"),
    ("rocket.mem.frame_access", "D"),
    ("rocket.mem.neg_offset_store", "D"),
    ("rocket.mem.same_line_reuse", "D"),
    ("rocket.mem.cross_line_pair", "D"),
    ("rocket.mem.redirty", "D"),
    ("rocket.mem.coalesce", "D"),
    ("rocket.dcache.hit_way0", "G"),
    ("rocket.dcache.hit_way1", "G"),
    ("rocket.dcache.hit", "D"),
    ("rocket.dcache.refill", "D"),
    ("rocket.mem.hit_streak4", "D"),
    ("rocket.dcache.set_conflict", "G"),
    ("rocket.dcache.evict_valid", "G"),
    ("rocket.dcache.evict_dirty", "G"),
    ("rocket.dcache.mark_dirty", "G"),
)

_RETIRE_SPEC = (
    ("rocket.tracer.suppress_muldiv", "D"),
    ("rocket.tracer.x0_amo_quirk", False),
    ("rocket.tracer.x0_jalr_quirk", "D"),
    ("rocket.tracer.emit_rd", "D"),
)

#: Variable arms of the analytic trap-handler pass (see ``_handler_skip``).
#: Everything else the six handler instructions record is the same on every
#: pass and lives in the precomputed constant row.
_HSKIP_D_SPEC = (
    ("rocket.hazard.load_use_stall", "D"),
    ("rocket.hazard.chain5", "D"),
    ("rocket.hazard.load_use_after_miss", "D"),
)

_HSKIP_X_SPEC = (
    # result arms for the four handler instructions with rd=x31: the values
    # written are mscratch_old, mepc, mepc+4 and the restored original x31.
    ("rocket.execute.result_zero", "D"),
    ("rocket.execute.result_zero", "D"),
    ("rocket.execute.result_zero", "D"),
    ("rocket.execute.result_zero", "D"),
    ("rocket.execute.result_negative", "D"),
    ("rocket.execute.result_negative", "D"),
    ("rocket.execute.result_negative", "D"),
    ("rocket.execute.result_negative", "D"),
    ("rocket.csr.enter_user", "D"),
    ("rocket.frontend.redirect", "D"),
)


class _SoACache:
    """Per-lane SoA mirror of :class:`SetAssocCache` bookkeeping state.

    Valid/dirty/tag/LRU arrays plus the per-lane LRU clock and last-evicted
    key.  Deliberately **no data arrays**: the D$ is write-through (line
    payloads always equal the arena) and vector-lane I$ payloads equal the
    arena by the poison-peel invariant (a store that would make a cached I$
    line stale peels the lane first), so payloads are reconstructed from the
    arena only when a lane peels to the scalar core.
    """

    __slots__ = ("valid", "dirty", "tag", "lru", "clock",
                 "last_ev", "last_ev_valid")

    def __init__(self, g: int, sets: int, ways: int) -> None:
        np = _np
        self.valid = np.zeros((g, sets, ways), dtype=bool)
        self.dirty = np.zeros((g, sets, ways), dtype=bool)
        self.tag = np.zeros((g, sets, ways), dtype=np.int64)
        self.lru = np.zeros((g, sets, ways), dtype=np.int64)
        self.clock = np.zeros(g, dtype=np.int64)
        self.last_ev = np.zeros(g, dtype=np.int64)
        self.last_ev_valid = np.zeros(g, dtype=bool)


class _DutLaneGroup(_LaneGroup):
    """One lockstep group of DUT lanes.

    Subclasses the golden engine's :class:`_LaneGroup` for the shared SoA
    substrate — arena, dispatch table, register/CSR vectors, trace columns,
    per-kind execution kernels — and replaces the round loop with the DUT's:
    microarchitectural modelling, lane-wise coverage, real (non-analytic)
    trap entry, and peeling to ``RocketCore.step_cycle``.
    """

    def __init__(self, sim: DutBatchSimulator, programs, base: int) -> None:
        np = _np
        self.sim = sim
        self.core = sim._core
        self.params = sim.params
        p = self.params
        self.W = sim.W
        self._vp, self._ip = sim._arm_tables()
        #: decode-mask row storage, keyed by packed mask (many words share
        #: one mask); grown on demand for self-modifying code.
        self._dm_index: dict[int, int] = {}
        self._dm_list: list = []
        self._dm_cache = None
        super().__init__(
            SimConfig(max_steps=p.max_steps, max_traps=p.max_traps),
            programs, base,
        )
        g = self.g

        # -- widen the dispatch table with the trap-handler image ----------
        # The DUT *executes* handler instructions (they cost cycles, hit the
        # I$, write x31, record hazards), so the handler image becomes six
        # extra table columns and trap entry is just a PC redirect.
        self.ncode = self.words.shape[1]
        hw = np.array([w & 0xFFFFFFFF for w in trap_handler_image()],
                      dtype="<u4")
        self.nhandler = hw.shape[0]
        self.words = np.hstack([self.words, np.tile(hw, (g, 1))])
        self._build_table()
        self.width = self.words.shape[1]
        self.hvec = np.uint64(spec.TRAP_VECTOR)
        self.hspan = np.uint64(HANDLER_END - spec.TRAP_VECTOR)

        # -- per-word metadata (coverage/timing predicates + true fields) --
        uw, inv = np.unique(self.words, return_inverse=True)
        inv = inv.reshape(-1)
        recs = [self._meta_rec(int(w)) for w in uw.tolist()]
        shape = self.words.shape
        self.meta = np.array([r[0] for r in recs], dtype=np.int64)[inv].reshape(shape)
        self.dmidx = np.array([r[1] for r in recs], dtype=np.int32)[inv].reshape(shape)
        self.meta_flat = self.meta.reshape(-1)
        self.dmidx_flat = self.dmidx.reshape(-1)

        # -- lane-wise coverage bitmap + timing ----------------------------
        self.covmat = np.zeros((g, self.W), dtype=np.uint64)
        self.idle_row = sim._idle()
        self.cycles = np.zeros(g, dtype=np.int64)

        # -- SoA caches and geometry ---------------------------------------
        self.ic = _SoACache(g, p.icache_sets, p.icache_ways)
        self.dc = _SoACache(g, p.dcache_sets, p.dcache_ways)
        self.off_bits = p.line_bytes.bit_length() - 1
        self.ic_mask = p.icache_sets - 1
        self.ic_tag_shift = self.ic_mask.bit_length()
        self.dc_mask = p.dcache_sets - 1
        self.dc_tag_shift = self.dc_mask.bit_length()

        # -- vectorised run-state trackers (spliced on peel) ---------------
        self.prev1_rd = np.full(g, -1, dtype=np.int64)
        self.prev1_load = np.zeros(g, dtype=bool)
        self.prev1_md = np.zeros(g, dtype=bool)
        self.prev2_rd = np.full(g, -1, dtype=np.int64)
        self.prev2_load = np.zeros(g, dtype=bool)
        self.prev2_md = np.zeros(g, dtype=bool)
        self.muldiv_busy = np.zeros(g, dtype=np.int64)
        self.dep_chain = np.zeros(g, dtype=np.int64)
        self.prev_wrote_sp = np.zeros(g, dtype=bool)
        self.last_mul = np.zeros(g, dtype=bool)
        self.prev_cmp_rd = np.full(g, -1, dtype=np.int64)
        self.ra_saved = np.zeros(g, dtype=bool)
        self.t_prev_load = np.zeros(g, dtype=bool)  # tracer._prev_was_load
        self.prev_load_missed = np.zeros(g, dtype=bool)
        #: CSRs written outside the handler (rs.csrs_written), as a bitmap.
        self.csrw = np.zeros((g, 4096), dtype=bool)

        # -- per-lane python trackers (memory instructions are a minority;
        # the D$ mirror loop runs scalar, so plain python state is cheaper
        # than numpy scalar indexing — and peels share them by reference) --
        self.hit_streak = np.zeros(g, dtype=np.int64)
        self.last_line = np.full(g, -1, dtype=np.int64)        # -1 == None
        self.last_store_addr = np.zeros(g, dtype=np.uint64)    # 0 == None
        self.resv_addr = np.zeros(g, dtype=np.uint64)   # FSM tracker, not the
        self.resv_broken = np.zeros(g, dtype=bool)      # arch. reservation
        self.amo_rd: list = [None] * g
        self.amo_age = np.zeros(g, dtype=np.int64)
        self.t_store_buf: list = [[] for _ in range(g)]
        self.t_branch_counts: list = [dict() for _ in range(g)]
        self.t_branch_outcomes: list = [dict() for _ in range(g)]
        self.t_link_stack: list = [[] for _ in range(g)]
        ne = self.core.predictor.entries
        self.btb_n = ne
        self.btb_valid = np.zeros((g, ne), dtype=bool)
        self.btb_pc = np.zeros((g, ne), dtype=np.uint64)
        self.btb_ctr = np.zeros((g, ne), dtype=np.int64)
        self.t_line_touches: list = [dict() for _ in range(g)]
        self.t_evicted: list = [set() for _ in range(g)]
        self.t_sp_slots: list = [set() for _ in range(g)]

        # -- analytic trap-handler fast-forward (see _handler_skip) --------
        # Decode rows and I$ line geometry of the pristine handler image,
        # captured at build time (handler_ok gates dirty lanes off the fast
        # path, so the snapshot stays valid for every lane that uses it).
        dmr = self._dm_matrix()[
            self.dmidx[0, self.ncode:self.ncode + self.nhandler]]
        self._hskip_dm = np.bitwise_or.reduce(dmr, axis=0)
        self._hskip_row = None
        hl: list = []
        for k in range(self.nhandler):
            key = (spec.TRAP_VECTOR + 4 * k) >> self.off_bits
            if hl and hl[-1][0] == key:
                hl[-1][1] += 1
            else:
                hl.append([key, 1])
        self._hlines = [(int(k), int(cnt)) for k, cnt in hl]
        # The pass walk below is specific to the stock six-instruction image;
        # the timed-counter CSR needs per-instruction cycle checkpoints, so
        # that variant stays on the (exact) stepwise rounds.
        self._hskip_on = self.nhandler == 6 and not p.timed_counter_csr

    # -- per-word metadata ----------------------------------------------------

    def _meta_rec(self, word: int) -> tuple[int, int]:
        """(meta bits, decode-mask row index) for one instruction word."""
        meta, dmask = self.sim._meta(word)
        idx = self._dm_index.get(dmask)
        if idx is None:
            idx = len(self._dm_list)
            self._dm_index[dmask] = idx
            self._dm_list.append(self.sim._row(dmask))
            self._dm_cache = None
        return meta, idx

    def _dm_matrix(self):
        """Stacked decode-mask rows, indexable by ``dmidx`` values."""
        rows = self._dm_cache
        if rows is None or rows.shape[0] != len(self._dm_list):
            rows = self._dm_cache = _np.vstack(self._dm_list)
        return rows

    def _refresh_meta(self, lane: int, slot: int) -> None:
        meta, idx = self._meta_rec(int(self.words[lane, slot]))
        self.meta[lane, slot] = meta
        self.dmidx[lane, slot] = idx

    def _refresh_handler(self, lane: int) -> None:
        """Re-derive the handler's table columns from the arena.

        Self-modifying code can rewrite the handler; the DUT executes
        whatever bytes are there, so the handler columns must track the
        arena exactly like the code columns do.
        """
        hoff = (spec.TRAP_VECTOR - spec.DRAM_BASE) // 4
        for k in range(self.nhandler):
            word = int(self.arena32[lane, hoff + k])
            slot = self.ncode + k
            if int(self.words[lane, slot]) == word:
                continue
            packed, imm = _table_record(word)
            self.words[lane, slot] = word
            self.packed[lane, slot] = packed
            self.imm_tab[lane, slot] = imm
            self._refresh_meta(lane, slot)

    def note_write(self, lane: int, addr: int, size: int) -> None:
        super().note_write(lane, addr, size)  # code columns + handler_ok
        tlo = self.base
        thi = tlo + 4 * self.lmax
        if addr < thi and addr + size > tlo:
            s0 = max(0, (addr - tlo) // 4)
            s1 = min(self.lmax - 1, (addr + size - 1 - tlo) // 4)
            for slot in range(s0, s1 + 1):
                self._refresh_meta(lane, slot)
        hlo, hhi = self.handler_span
        if addr < hhi and addr + size > hlo:
            self._refresh_handler(lane)

    def _grow_cols(self, need: int) -> None:
        if need <= self.cap:
            return
        old_cap = self.cap
        old = getattr(self, "c_rdx", None)
        super()._grow_cols(need)
        # Widened rd column: the tracer can emit rd=0 entries (x0 quirks),
        # which the base engine's "0 means None" c_rd cannot represent.
        arr = _np.full((self.g, self.cap), -1, dtype=_np.int16)
        if old is not None:
            arr[:, :old_cap] = old
        self.c_rdx = arr
        self.c_rdx_flat = arr.reshape(-1)

    # -- lane-wise coverage ---------------------------------------------------

    def _rec(self, lanes, name: str, vals) -> None:
        """Vectorised ``record_mask``: OR each lane's T/F arm for one
        condition (``lanes`` must hold unique indices)."""
        w, fb, tb = self._vp[name]
        self.covmat[lanes, w] |= _np.where(vals, tb, fb)

    def _rec_true(self, lanes, name: str) -> None:
        w, fb, tb = self._vp[name]
        self.covmat[lanes, w] |= tb

    def _rec_false(self, lanes, name: str) -> None:
        w, fb, tb = self._vp[name]
        self.covmat[lanes, w] |= fb

    def _recs(self, lanes, items) -> None:
        """Batched :meth:`_rec`: accumulate many conditions over one lane
        set into a local (k, W) block, then scatter once.  Column slices of
        the accumulator are views, so each condition costs one cheap OR
        instead of a fancy-indexed read-modify-write of ``covmat``.

        Items are ``(name, vals)`` or ``(name, vals, gate)``; a gated item
        contributes nothing to lanes where ``gate`` is false (OR with zero),
        letting subset-only conditions ride in the superset's scatter."""
        if not lanes.size:
            return
        np = _np
        acc = np.zeros((lanes.size, self.W), dtype=np.uint64)
        vp = self._vp
        zero = np.uint64(0)
        for item in items:
            if len(item) == 2:
                name, vals = item
                gate = None
            else:
                name, vals, gate = item
            w, fb, tb = vp[name]
            col = acc[:, w]
            if vals is True:
                v = tb
            elif vals is False:
                v = fb
            else:
                v = np.where(vals, tb, fb)
            if gate is not None:
                v = np.where(gate, v, zero)
            col |= v
        self.covmat[lanes] |= acc

    def _recb(self, key: str, items, lanes, vals, gates=()) -> None:
        """Record one static multi-condition site through the simulator's
        compiled :class:`_CondBlock` cache (see that class)."""
        self.sim._cond_block(key, items).record(self.covmat, lanes, vals,
                                                gates)

    def _fold_int(self, lane: int, mask: int) -> None:
        """Fold a python-int arm mask (scalar-core ``run_bits``, mirror-loop
        accumulations) into one lane's bitmap row."""
        cm = self.covmat
        w = 0
        while mask:
            cm[lane, w] |= _np.uint64(mask & 0xFFFFFFFFFFFFFFFF)
            mask >>= 64
            w += 1

    def _report(self, lane: int) -> CoverageReport:
        """Collapse one lane's bitmap row into a packed report."""
        return CoverageReport(
            hits=Bitset.from_words(self.covmat[lane], self.sim.total_arms),
            total_arms=self.sim.total_arms,
            cycles=int(self.cycles[lane]),
        )

    # -- vector I$ kernels ----------------------------------------------------

    def _ic_has(self, lanes, key):
        """Per-lane I$ residency probe for line keys (no conditions, no LRU
        — mirrors ``_peek``); used by the Bug1 poison-peel check."""
        ic = self.ic
        idx = key & self.ic_mask
        tag = key >> self.ic_tag_shift
        return (
            (ic.valid[lanes, idx, 0] & (ic.tag[lanes, idx, 0] == tag))
            | (ic.valid[lanes, idx, 1] & (ic.tag[lanes, idx, 1] == tag))
        )

    def _icache_fetch(self, lanes, pcs):
        """Vector I$ probe + refill for one round's mapped fetches.

        Mirrors ``SetAssocCache.lookup`` then ``refill`` (2-way): first-match
        probe with per-way hit conditions, LRU-clock bump on hit, ``(valid,
        lru)``-min victim choice with way-0 tie-break on miss.  No data
        movement — vector-resident lines always equal the arena by the
        poison-peel invariant.  Returns the miss mask.
        """
        np = _np
        ic = self.ic
        key = (pcs >> np.uint64(self.off_bits)).astype(np.int64)
        idx = key & self.ic_mask
        tag = key >> self.ic_tag_shift
        v0 = ic.valid[lanes, idx, 0]
        t0 = ic.tag[lanes, idx, 0]
        v1 = ic.valid[lanes, idx, 1]
        t1 = ic.tag[lanes, idx, 1]
        h0 = v0 & (t0 == tag)
        h1 = ~h0 & v1 & (t1 == tag)
        hit = h0 | h1
        miss = ~hit
        l0 = ic.lru[lanes, idx, 0]
        l1 = ic.lru[lanes, idx, 1]
        take0a = (v0 < v1) | ((v0 == v1) & (l0 <= l1))
        vvalida = np.where(take0a, v0, v1)
        self._recb("ic", _IC_SPEC, lanes,
                   (hit, miss, h0, h1, v0 & v1, vvalida),
                   (hit, hit, miss, miss))
        hp = hit.nonzero()[0]
        if hp.size:
            lh = lanes[hp]
            ic.clock[lh] += 1
            way = np.where(h0[hp], 0, 1)
            ic.lru[lh, idx[hp], way] = ic.clock[lh]
        mp = miss.nonzero()[0]
        if mp.size:
            lm = lanes[mp]
            im = idx[mp]
            take0 = take0a[mp]
            vvalid = vvalida[mp]
            vtag = np.where(take0, t0[mp], t1[mp])
            ic.last_ev[lm] = np.where(
                vvalid, (vtag << self.ic_tag_shift) | im, ic.last_ev[lm])
            ic.last_ev_valid[lm] = vvalid  # no eviction -> None
            way = np.where(take0, 0, 1)
            ic.valid[lm, im, way] = True
            ic.dirty[lm, im, way] = False
            ic.tag[lm, im, way] = tag[mp]
            ic.clock[lm] += 1
            ic.lru[lm, im, way] = ic.clock[lm]
        return ~hit

    # -- analytic trap-handler fast-forward ----------------------------------

    def _hskip_const(self):
        """Constant coverage row of one clean handler pass.

        The six handler instructions record the same decode rows, hazard,
        CSR-check and system arms on every pass; fold them into one row so
        :meth:`_handler_skip` pays a single OR.  Derived from the
        instruction walk of the stock image (csrrw/csrrs/addi/csrrw/csrrw/
        mret, all rs1/rd traffic on x31): e.g. raw_rs1_ex is False at i1
        (rs1=x0) and True at i2 (addi after csrrs), so both arms are
        constant; the dep chain hits exactly 3 at i3 regardless of entry
        state, making chain3's arms constant too.
        """
        row = self._hskip_row
        if row is None:
            ip = self._ip
            arms = [
                ("rocket.hazard.raw_rs1_ex", False),
                ("rocket.hazard.raw_rs1_ex", True),
                ("rocket.hazard.raw_rs2_ex", False),
                ("rocket.hazard.raw_rs1_mem", False),
                ("rocket.hazard.raw_rs1_mem", True),
                ("rocket.hazard.raw_rs2_mem", False),
                ("rocket.hazard.load_use_stall", False),
                ("rocket.hazard.muldiv_busy", False),
                ("rocket.hazard.chain3", False),
                ("rocket.hazard.chain3", True),
                ("rocket.hazard.chain5", False),
                ("rocket.hazard.sp_update_use", False),
                ("rocket.hazard.load_use_after_miss", False),
                ("rocket.csr.read_only_violation", False),
                ("rocket.csr.priv_violation", False),
                ("rocket.csr.counter_read", False),
                ("rocket.csr.in_user_mode", False),
                ("rocket.csr.trap_taken", False),
                ("rocket.frontend.redirect", False),
                ("rocket.csr.mret", False),
                ("rocket.csr.mret", True),
                ("rocket.csr.enter_user", False),
                ("rocket.csr.wfi", False),
                ("rocket.csr.write", False),
                ("rocket.csr.write", True),
                ("rocket.csr.write_read_roundtrip", False),
                ("rocket.csr.mepc_user_write", False),
                ("rocket.csr.mstatus_mpp_clear", False),
                ("rocket.frontend.fetch_fault", False),
            ]
            lb = self.params.line_bytes
            for k in range(self.nhandler):
                arms.append(("rocket.frontend.line_cross",
                             ((spec.TRAP_VECTOR + 4 * k) & (lb - 1))
                             == lb - 4))
            m = 0
            for name, val in arms:
                m |= ip[name][val]
            row = self.sim._row(m)
            row |= self._hskip_dm
            self._hskip_row = row
        return row

    def _handler_skip(self, cl, tpc, cyc) -> None:
        """Apply one clean trap-handler pass as a closed form.

        A trap whose handler image is pristine (``handler_ok``) and whose
        mtvec still targets it runs six fixed instructions with no branches,
        no memory ops and no further traps, then lands back in the body at
        mepc+4.  Executing those six rounds stepwise is the dominant cost of
        trap-heavy workloads (the handler commits are untraced, so ~5/6 of
        all lane-steps produce no trace entries); instead, fast-forward the
        whole pass at trap entry: the same I$ kernel per line, the variable
        coverage arms, one constant row for everything else, and the exact
        architectural/hazard exit state (x31 is saved and restored, so the
        register file is net-unchanged; mepc = mscratch = return pc; mret
        recomposes mstatus and drops back to the trapped privilege).

        Bit-identical to the stepwise rounds; lanes that would die
        mid-handler (steps budget) are excluded by the caller and keep the
        stepwise path.
        """
        np = _np
        c = self.c
        p = self.params
        csrv = self.csrv
        # i0 (csrrw x31, mscratch, x31) is the only instruction whose hazard
        # arms see pre-trap state: its rs1=x31 read races the last body
        # writeback.  chain5 can only fire there (dep peaks at 3 inside).
        r1 = self.prev1_rd[cl] == 31
        lu = r1 & self.prev1_load[cl]
        self._recb("hskip_d", _HSKIP_D_SPEC, cl, (
            lu,
            r1 & (self.dep_chain[cl] + 1 >= 5),
            lu & self.prev_load_missed[cl],
        ))
        # architectural values surfacing in result arms
        mscr_old = csrv[spec.CSR_MSCRATCH][cl]
        x31_old = self.regs_flat[cl * 32 + 31]
        v2 = csrv[spec.CSR_MEPC][cl]            # written at trap entry
        v3 = (v2 + c["u4"]) & c["mask"]         # return pc (even, so the
        u0 = c["u0"]                            # mepc write mask is a no-op)
        hi63 = np.uint64(63)
        # I$: six sequential fetches of the handler line(s) — first access
        # per line through the real kernel (hit/miss arms, refill, LRU),
        # remaining accesses collapse to one record + clock bump.
        dcyc = np.full(cl.size, self.nhandler, dtype=np.int64)
        dcyc += lu
        ic = self.ic
        ones = np.ones(cl.size, dtype=bool)
        zeros = np.zeros(cl.size, dtype=bool)
        for key, cnt in self._hlines:
            missk = self._icache_fetch(
                cl, np.full(cl.size, key << self.off_bits, dtype=np.uint64))
            dcyc[missk] += p.icache_miss_penalty
            if cnt > 1:
                idx0 = key & self.ic_mask
                tag0 = key >> self.ic_tag_shift
                w0 = ic.valid[cl, idx0, 0] & (ic.tag[cl, idx0, 0] == tag0)
                self._recb("ic", _IC_SPEC, cl,
                           (ones, zeros, w0, ~w0, zeros, zeros),
                           (ones, ones, zeros, zeros))
                ic.clock[cl] += cnt - 1
                ic.lru[cl, idx0, np.where(w0, 0, 1)] = ic.clock[cl]
        # execute-stage variable arms + mret privilege return
        ms = csrv[spec.CSR_MSTATUS][cl]
        npv = (ms >> np.uint64(MSTATUS_MPP_SHIFT)) & c["u3"]
        self._recb("hskip_x", _HSKIP_X_SPEC, cl, (
            mscr_old == u0, v2 == u0, v3 == u0, x31_old == u0,
            (mscr_old >> hi63) != u0, (v2 >> hi63) != u0,
            (v3 >> hi63) != u0, (x31_old >> hi63) != u0,
            npv == np.uint64(spec.PRV_U),
            # mret redirects unless the trap was at the mret slot itself
            # (reachable only by a body jumping into the handler), where
            # return-pc happens to equal pc+4.
            v3 != np.uint64(HANDLER_END),
        ))
        self.covmat[cl] |= self._hskip_const()
        # exit state: CSRs, privilege, pc (vector CSRFile write + K_MRET)
        csrv[spec.CSR_MEPC][cl] = v3
        csrv[spec.CSR_MSCRATCH][cl] = v3
        keep = np.uint64(spec.WORD_MASK
                         & ~(MSTATUS_MIE | MSTATUS_MPIE | MSTATUS_MPP_MASK))
        msn = ms & keep
        msn |= np.where((ms & np.uint64(MSTATUS_MPIE)) != 0,
                        np.uint64(MSTATUS_MIE), u0)
        msn |= np.uint64(MSTATUS_MPIE)
        csrv[spec.CSR_MSTATUS][cl] = msn
        self.priv[cl] = npv.astype(np.int64)
        if (npv != np.uint64(spec.PRV_M)).any():
            self.all_m = False
        self.pc[cl] = v3
        # hazard-window exit state is entry-independent: mret has no rd, the
        # final csrrw writes x31, the dep chain resets at i1 and ends 0.
        self.prev1_rd[cl] = -1
        self.prev1_load[cl] = False
        self.prev1_md[cl] = False
        self.prev2_rd[cl] = 31
        self.prev2_load[cl] = False
        self.prev2_md[cl] = False
        self.dep_chain[cl] = 0
        self.prev_wrote_sp[cl] = False
        self.prev_cmp_rd[cl] = -1
        self.steps[cl] += self.nhandler
        cyc[tpc] += dcyc

    # -- the DUT round --------------------------------------------------------

    def _round(self, act) -> None:
        np = _np
        c = self.c
        p = self.params
        fnz = _nz1   # 1-D fast path: skips flatnonzero's ravel
        n = act.size
        pcs = self.pc[act]

        # --- fetch classification ----------------------------------------
        moff = pcs - c["dram"]
        mapped = moff <= c["dlim"]
        aligned = (pcs & c["u3"]) == c["u0"]
        toff = pcs - self.base_u
        hoff = pcs - self.hvec
        in_handler = hoff < self.hspan
        okf = mapped & aligned
        in_code = okf & (toff < self.tab_u)
        in_htab = okf & (hoff < self.hspan)
        in_tab = in_code | in_htab

        # --- result planes (same layout as the golden round) ---------------
        r_cause = np.full(n, -1, dtype=np.int64)
        r_tval = np.zeros(n, dtype=np.uint64)
        r_peel = np.zeros(n, dtype=bool)
        r_halt = np.zeros(n, dtype=bool)
        r_npc = pcs + c["u4"]
        r_hasrd = np.zeros(n, dtype=bool)
        r_val = np.zeros(n, dtype=np.uint64)
        r_memk = np.zeros(n, dtype=np.int64)
        r_mema = np.zeros(n, dtype=np.uint64)
        r_mems = np.zeros(n, dtype=np.int64)
        r_memd = np.zeros(n, dtype=np.uint64)
        r_csra = np.full(n, -1, dtype=np.int64)
        r_csrv = np.zeros(n, dtype=np.uint64)

        # --- dispatch-table gather (pure reads: includes lanes that later
        # peel — nothing may take effect until the peel set is known) ------
        it = fnz(in_tab)
        lanes_it = act[it]
        slots = np.where(
            in_code[it],
            (toff[it] >> c["u2"]).astype(np.int64),
            np.int64(self.ncode) + (hoff[it] >> c["u2"]).astype(np.int64),
        )
        flat = lanes_it * self.width + slots
        rec = self.packed_flat[flat]
        imm = self.imm_flat[flat]
        word = self.words_flat[flat]
        kind = rec & 0xFF
        rd = (rec >> 8) & 0xFF
        rs1 = (rec >> 16) & 0xFF
        rs2 = (rec >> 24) & 0xFF
        flags = rec >> 32
        a = self.regs_flat[lanes_it * 32 + rs1]
        breg = self.regs_flat[lanes_it * 32 + rs2]
        b = np.where((flags & F_IMM) != 0, imm, breg)

        # act-space scatters of the per-word planes
        kf = np.full(n, -1, dtype=np.int64)
        kf[it] = kind
        mf = np.zeros(n, dtype=np.int64)
        mf[it] = self.meta_flat[flat]
        immf = np.zeros(n, dtype=np.int64)
        immf[it] = imm.astype(np.int64)
        flagf = np.zeros(n, dtype=np.int64)
        flagf[it] = flags.astype(np.int64)
        dmif = np.full(n, -1, dtype=np.int64)
        dmif[it] = self.dmidx_flat[flat]
        r_word = np.zeros(n, dtype=np.uint32)
        r_word[it] = word
        r_rd = np.zeros(n, dtype=np.int64)
        r_rd[it] = rd

        # --- peel classification (before any vector side effect) ----------
        peelm = mapped & ~aligned       # misaligned pc: scalar-only path
        rest = okf & ~in_tab
        oowm = np.zeros(n, dtype=bool)
        if rest.any():
            ra = fnz(rest)
            aw = self.arena32[act[ra], (moff[ra] >> c["u2"]).astype(np.int64)]
            zero = aw == 0
            oowm[ra[zero]] = True       # zero word: vector illegal trap
            peelm[ra[~zero]] = True     # real code outside the table
        if lanes_it.size:
            peelm[it[kind == K_PEEL]] = True
            pa = fnz(kind == K_AMO)
            if pa.size:
                # Mapped, aligned atomics run scalar; faulting ones trap in
                # the vector plane (the kernel raises them exactly).
                wl = (flags[pa] >> 1) & 3
                wsz = np.where(wl == 2, np.uint64(4), np.uint64(8))
                addr = a[pa]
                ok = (((addr & (wsz - c["u1"])) == c["u0"])
                      & ((addr - c["dram"]) <= (c["dsize"] - wsz)))
                peelm[it[pa[ok]]] = True
            if p.bug1_fencei:
                ps = fnz(kind == K_STORE)
                if ps.size:
                    # Bug1 poison: a successful store into a line this
                    # lane's I$ holds would leave the cached copy stale —
                    # staleness only the scalar core models.  Peel first.
                    wl = (flags[ps] >> 1) & 3
                    wsz = c["u1"] << wl.astype(np.uint64)
                    addr = a[ps] + imm[ps]
                    ok = (((addr & (wsz - c["u1"])) == c["u0"])
                          & ((addr - c["dram"]) <= (c["dsize"] - wsz)))
                    offb = np.uint64(self.off_bits)
                    l0 = (addr >> offb).astype(np.int64)
                    l1 = ((addr + wsz - c["u1"]) >> offb).astype(np.int64)
                    lps = lanes_it[ps]
                    poison = ok & (self._ic_has(lps, l0) | self._ic_has(lps, l1))
                    peelm[it[ps[poison]]] = True
        npm = ~peelm
        lanes_np = act[npm]

        # --- per-step effects: interrupt-idle poll + base CPI --------------
        self.covmat[lanes_np] |= self.idle_row
        cyc = self.cycles[act].copy()
        cyc[npm] += 1

        # --- fetch: fault plane + vector I$ --------------------------------
        um = fnz(~mapped)               # unmapped lanes never peel
        if um.size:
            self._rec_true(act[um], "rocket.frontend.fetch_fault")
        pm = fnz(mapped & npm)
        if pm.size:
            lanes_m = act[pm]
            self._rec_false(lanes_m, "rocket.frontend.fetch_fault")
            lb = np.uint64(p.line_bytes)
            self._rec(lanes_m, "rocket.frontend.line_cross",
                      (pcs[pm] & (lb - c["u1"])) == lb - c["u4"])
            miss = self._icache_fetch(lanes_m, pcs[pm])
            cyc[pm[miss]] += p.icache_miss_penalty

        # --- decode condition rows ----------------------------------------
        if oowm.any():
            _zmeta, zidx = self._meta_rec(0)
            dmif[oowm] = zidx
        dp = fnz((dmif >= 0) & npm)
        if dp.size:
            self.covmat[act[dp]] |= self._dm_matrix()[dmif[dp]]

        # --- decoded-lane pipeline stage (hazards, CSR pre-checks,
        # predictor probe) — runs for lanes that later trap, too -----------
        d = fnz(npm & in_tab & (kf != K_ILLEGAL))
        pred = np.zeros(n, dtype=bool)
        if d.size:
            lanes_d = act[d]
            md = mf[d]
            mrd = md & 31
            mrs1 = (md >> 5) & 31
            mrs2 = (md >> 10) & 31
            p1rd = self.prev1_rd[lanes_d]
            p1ld = self.prev1_load[lanes_d]
            p1md = self.prev1_md[lanes_d]
            p2rd = self.prev2_rd[lanes_d]
            raw1 = ((md & M_RS1READ) != 0) & (mrs1 != 0) & (mrs1 == p1rd)
            raw2 = ((md & M_RS2READ) != 0) & (mrs2 != 0) & (mrs2 == p1rd)
            raw1m = ((md & M_RS1READ) != 0) & (mrs1 != 0) & (mrs1 == p2rd)
            raw2m = ((md & M_RS2READ) != 0) & (mrs2 != 0) & (mrs2 == p2rd)
            load_use = (raw1 | raw2) & p1ld
            cyc[d[load_use]] += 1
            is_md = (md & M_MULDIV) != 0
            busy = self.muldiv_busy[lanes_d]
            stall = is_md & (cyc[d] < busy)
            cyc[d] = np.where(stall, busy, cyc[d])
            dep = np.where(raw1 | raw2, self.dep_chain[lanes_d] + 1,
                           np.where((md & M_WRD) != 0, 1, 0))
            self.dep_chain[lanes_d] = dep
            sp_use = (self.prev_wrote_sp[lanes_d]
                      & ((md & M_RS1READ) != 0) & (mrs1 == 2))
            lu_miss = load_use & self.prev_load_missed[lanes_d]
            divlike = (md & M_DIVLIKE) != 0
            dam = (divlike & self.last_mul[lanes_d]
                   & (cyc[d] < busy + p.mul_latency))
            is_csr = (md & M_CSR) != 0
            prv_d = self.priv[lanes_d]
            # Predictor probe: SoA BTB gather for every decoded lane, recorded
            # (and consumed) only where the instruction is a branch.
            is_br_d = (md & M_BRANCH) != 0
            pc_d = pcs[d]
            slot_d = ((pc_d >> c["u2"]) % np.uint64(self.btb_n)).astype(
                np.int64)
            bv_d = self.btb_valid[lanes_d, slot_d]
            bpc_d = self.btb_pc[lanes_d, slot_d]
            hitb = bv_d & (bpc_d == pc_d)
            ptaken = hitb & (self.btb_ctr[lanes_d, slot_d] >= 2)
            self._recb("dstage", _DSTAGE_SPEC, lanes_d, (
                raw1, raw2, raw1m, raw2m, load_use, stall,
                dep >= 3, dep >= 5, sp_use, lu_miss,
                (raw1 | raw2) & p1md, dam,
                (md & M_CSR_RO) != 0,
                prv_d < ((md >> M_MINPRIV_SHIFT) & 3),
                (md & M_CSR_CTR) != 0,
                prv_d == spec.PRV_U,
                hitb, bv_d & (bpc_d != pc_d), ptaken,
            ), (is_md, is_md, is_csr, is_csr, is_csr,
                is_br_d, is_br_d, is_br_d))
            self.prev_wrote_sp[lanes_d] = ((md & M_WRD) != 0) & (mrd == 2)
            mdp = fnz(is_md)
            if mdp.size:
                lmd = lanes_d[mdp]
                self.last_mul[lmd] = ~divlike[mdp]
            pred[d] = ptaken & is_br_d

        # --- per-kind execution via the golden kernels --------------------
        prv_before = self.priv[act].copy()
        sel = fnz(npm[it]) if it.size else it
        any_trap = any_halt = any_mem = any_csr = False
        if sel.size:
            it2 = it[sel]
            any_trap, _exec_peel, any_halt, any_mem, any_csr = self._exec_kinds(
                act, it2, act[it2], kind[sel], rd[sel], rs1[sel], rs2[sel],
                flags[sel], a[sel], b[sel], breg[sel], imm[sel], pcs[it2],
                word[sel],
                r_cause, r_tval, r_peel, r_halt, r_npc, r_hasrd, r_val,
                r_memk, r_mema, r_mems, r_memd, r_csra, r_csrv,
            )
        if um.size:
            r_cause[um] = spec.EXC_INSTR_ACCESS_FAULT
            r_tval[um] = pcs[um]
            any_trap = True
        ow = fnz(oowm)
        if ow.size:
            r_cause[ow] = spec.EXC_ILLEGAL_INSTRUCTION
            any_trap = True             # tval/word stay 0 for a zero word

        # --- Finding1: misaligned + unmapped reports access-fault ---------
        if p.finding1_trap_priority and any_trap:
            f1 = fnz(((r_cause == spec.EXC_LOAD_MISALIGNED)
                      | (r_cause == spec.EXC_STORE_MISALIGNED))
                     & ((mf & M_MEM) != 0))
            if f1.size:
                wl1 = (flagf[f1] >> 1) & 3
                sz = np.where(kf[f1] == K_AMO,
                              np.where(wl1 == 2, 4, 8),
                              1 << wl1).astype(np.uint64)
                bump = (r_tval[f1] - c["dram"]) > (c["dsize"] - sz)
                r_cause[f1[bump]] += 1  # *_MISALIGNED -> *_ACCESS_FAULT

        # --- stores into the handler image refresh its table columns ------
        if any_mem:
            sm = fnz(r_memk == 2)
            if sm.size:
                sa = r_mema[sm]
                ss = r_mems[sm].astype(np.uint64)
                th = (sa < np.uint64(HANDLER_END)) & (sa + ss > self.hvec)
                for pos in sm[th].tolist():
                    self._refresh_handler(int(act[pos]))

        # --- trap plane: real (non-analytic) trap entry --------------------
        self._grow_cols(self.hi + 1)
        self.hi += 1
        cap = self.cap
        tp = fnz(r_cause >= 0)
        if tp.size:
            lanes_t = act[tp]
            decill = oowm[tp] | (kf[tp] == K_ILLEGAL)
            fetchf = ~mapped[tp]
            xp = tp[~decill & ~fetchf]      # traps raised by execute
            if xp.size:
                # Execute-raised traps additionally record the mem-fault
                # pair, clear the store buffer and shift the hazard window
                # (fetch/decode traps return before reaching any of these).
                lanes_x = act[xp]
                memm = fnz((mf[xp] & M_MEM) != 0)
                if memm.size:
                    lmx = lanes_x[memm]
                    cx = r_cause[xp[memm]]
                    self._rec(lmx, "rocket.mem.misaligned",
                              (cx == spec.EXC_LOAD_MISALIGNED)
                              | (cx == spec.EXC_STORE_MISALIGNED))
                    self._rec(lmx, "rocket.mem.access_fault",
                              (cx == spec.EXC_LOAD_ACCESS_FAULT)
                              | (cx == spec.EXC_STORE_ACCESS_FAULT))
                for lane in lanes_x.tolist():
                    self.t_store_buf[lane].clear()
                self.prev2_rd[lanes_x] = self.prev1_rd[lanes_x]
                self.prev2_load[lanes_x] = self.prev1_load[lanes_x]
                self.prev2_md[lanes_x] = self.prev1_md[lanes_x]
                self.prev1_rd[lanes_x] = -1
                self.prev1_load[lanes_x] = False
                self.prev1_md[lanes_x] = False
            for cse in np.unique(r_cause[tp]).tolist():
                lc = lanes_t[r_cause[tp] == cse]
                self.covmat[lc] |= self.sim._trap_row(int(cse))
            cyc[tp] += p.trap_penalty
            cnt = self.counts[lanes_t]
            self.c_pc[lanes_t, cnt] = pcs[tp]
            self.c_word[lanes_t, cnt] = r_word[tp]
            if not self.all_m:
                self.c_priv[lanes_t, cnt] = prv_before[tp]
            self.c_tc[lanes_t, cnt] = r_cause[tp]
            self.c_tv[lanes_t, cnt] = r_tval[tp]
            self.counts[lanes_t] = cnt + 1
            self.traps[lanes_t] += 1
            self.steps[lanes_t] += 1
            self.res_valid[lanes_t] = False
            # vector CSRFile.enter_trap
            csrv = self.csrv
            csrv[spec.CSR_MCAUSE][lanes_t] = r_cause[tp].astype(np.uint64)
            csrv[spec.CSR_MEPC][lanes_t] = pcs[tp] & c["not1"]
            csrv[spec.CSR_MTVAL][lanes_t] = r_tval[tp] & c["mask"]
            ms = csrv[spec.CSR_MSTATUS][lanes_t]
            keep = np.uint64(spec.WORD_MASK
                             & ~(MSTATUS_MIE | MSTATUS_MPIE | MSTATUS_MPP_MASK))
            msn = ms & keep
            msn |= np.where((ms & np.uint64(MSTATUS_MIE)) != 0,
                            np.uint64(MSTATUS_MPIE), np.uint64(0))
            msn |= (prv_before[tp].astype(np.uint64)
                    << np.uint64(MSTATUS_MPP_SHIFT))
            csrv[spec.CSR_MSTATUS][lanes_t] = msn
            self.pc[lanes_t] = (csrv[spec.CSR_MTVEC][lanes_t]
                                & np.uint64(spec.WORD_MASK & ~0b11))
            self.priv[lanes_t] = spec.PRV_M
            stop3 = self.traps[lanes_t] >= self.config.max_traps
            l3 = lanes_t[stop3]
            self.stop_code[l3] = 3
            self.running[l3] = False
            if self._hskip_on:
                cand = (self.running[lanes_t]
                        & self.handler_ok[lanes_t]
                        & self.mtvec_ok[lanes_t]
                        & (self.steps[lanes_t] + self.nhandler
                           <= self.config.max_steps))
                hq = fnz(cand)
                if hq.size:
                    self._handler_skip(lanes_t[hq], tp[hq], cyc)

        # --- plainly executed lanes ----------------------------------------
        E = fnz(npm & ~r_peel & (r_cause < 0))
        lanes_e = act[E]
        if E.size:
            ip = self._ip
            mE = mf[E]
            rdE = r_rd[E]
            valE = r_val[E]
            hasE = r_hasrd[E] & (rdE > 0)
            # Register writeback first: the divide-operand conditions read
            # the post-writeback register file, exactly like the scalar core.
            wr = fnz(hasE)
            if wr.size:
                self.regs_flat[lanes_e[wr] * 32 + rdE[wr]] = valE[wr]

            # Execute- and system-stage conditions: one gated scatter per
            # round.  Every value below is stable across the E block (the
            # mirror loops don't touch priv/regs), so subset conditions ride
            # the lane-wide accumulator as gated items.
            isbr = (mE & M_BRANCH) != 0
            notseq = r_npc[E] != (pcs[E] + c["u4"])
            taken = isbr & notseq
            ismd = (mE & M_MULDIV) != 0
            dvl = (mE & M_DIVLIKE) != 0
            divisor = self.regs_flat[lanes_e * 32 + ((mE >> 10) & 31)]
            dividend = self.regs_flat[lanes_e * 32 + ((mE >> 5) & 31)]
            ismret = kf[E] == K_MRET
            isdv = ismd & dvl
            # SoA BTB resolution: gathers/updates mirror BranchPredictor
            # .update for every branch lane at once; the probe-side ``pred``
            # vector carries the decode-stage prediction across.
            pc_e = pcs[E]
            slot_e = ((pc_e >> c["u2"]) % np.uint64(self.btb_n)).astype(
                np.int64)
            bv_e = self.btb_valid[lanes_e, slot_e]
            bctr_e = self.btb_ctr[lanes_e, slot_e]
            newent = ~(bv_e & (self.btb_pc[lanes_e, slot_e] == pc_e))
            mispred = taken != pred[E]
            ctr_upd = np.minimum(
                np.int64(3),
                np.maximum(np.int64(0), bctr_e + np.where(taken, 1, -1)))
            oldent = isbr & ~newent
            pcmp = self.prev_cmp_rd[lanes_e]
            self._recb("exec", _EXEC_SPEC, lanes_e, (
                notseq,
                immf[E] < 0,
                valE == c["u0"],
                (valE >> np.uint64(63)) != 0,
                divisor == c["u0"],
                (divisor == c["mask"])
                & (dividend == (c["u1"] << np.uint64(63))),
                (mE & M_MULHI) != 0,
                immf[E] == 0,
                notseq,
                (mE & M_FENCEI) != 0,
                ismret,
                ismret & (self.priv[lanes_e] == spec.PRV_U),
                r_halt[E],
                r_csra[E] >= 0,
                mispred, newent, ctr_upd == 3, ctr_upd == 0,
                taken & (immf[E] >= -64) & (immf[E] < 0),
                taken & ((mE & M_BEQ) != 0),
                (pcmp != -1)
                & ((pcmp == ((mE >> 5) & 31)) | (pcmp == ((mE >> 10) & 31))),
            ), (isbr, isbr, hasE, hasE, isdv, isdv, ismd & ~dvl,
                (mE & M_SHIFTI) != 0, (mE & (M_FENCE | M_FENCEI)) != 0,
                isbr, isbr, oldent, oldent, isbr, isbr, isbr))
            bp2 = fnz(isbr)
            if bp2.size:
                lb2 = lanes_e[bp2]
                sb2 = slot_e[bp2]
                self.btb_valid[lb2, sb2] = True
                self.btb_pc[lb2, sb2] = pc_e[bp2]
                self.btb_ctr[lb2, sb2] = np.where(
                    newent[bp2], np.where(taken[bp2], 2, 1), ctr_upd[bp2])
                cyc[E[bp2[mispred[bp2]]]] += p.mispredict_penalty
            cyc[E] += np.where(
                ismd, np.where(dvl, p.div_latency, p.mul_latency), 0)

            # memory-stage mirror: the SoA D$ and the scalar-valued
            # trackers (last line/store, reservation, streaks) replicate
            # RocketCore._memory_model as masked vector kernels; only the
            # dict/set/list-backed locality and store-buffer trackers stay
            # in a (much slimmer) per-lane python loop.
            dcv = self.dc
            dcm = self.dc_mask
            mm = fnz(r_memk[E] != 0)
            if mm.size:
                lmm = lanes_e[mm]
                Em = E[mm]
                addr = r_mema[Em]
                is_st = r_memk[Em] == 2
                mrs1m = (mf[Em] >> 5) & 31
                immm = immf[Em]
                line_key = (addr >> np.uint64(self.off_bits)).astype(np.int64)
                last = self.last_line[lmm]
                idx_s = line_key & dcm
                tag_s = line_key >> self.dc_tag_shift
                v0 = dcv.valid[lmm, idx_s, 0]
                t0 = dcv.tag[lmm, idx_s, 0]
                d0 = dcv.dirty[lmm, idx_s, 0]
                v1 = dcv.valid[lmm, idx_s, 1]
                t1 = dcv.tag[lmm, idx_s, 1]
                d1 = dcv.dirty[lmm, idx_s, 1]
                h0 = v0 & (t0 == tag_s)
                h1 = ~h0 & v1 & (t1 == tag_s)
                hit = h0 | h1
                miss = ~hit
                dhit = np.where(h0, d0, d1)     # dirty at the hit way
                l0 = dcv.lru[lmm, idx_s, 0]
                l1 = dcv.lru[lmm, idx_s, 1]
                take0 = (v0 < v1) | ((v0 == v1) & (l0 <= l1))
                vv = np.where(take0, v0, v1)
                vdirty = np.where(take0, d0, d1)
                ev_key = (np.where(take0, t0, t1) << self.dc_tag_shift) | idx_s
                streak = np.where(hit, self.hit_streak[lmm] + 1, 0)
                self.hit_streak[lmm] = streak
                rb = is_st & (addr == self.resv_addr[lmm])
                self._recb("mem", _MEM_SPEC, lmm, (
                    mrs1m == 2,
                    (mrs1m == 3) | (mrs1m == 4),
                    (mrs1m == 2) & (immm >= 0) & (immm < 64),
                    is_st & (immm < 0),
                    line_key == last,
                    (last >= 0) & (np.abs(line_key - last) == 1),
                    is_st & hit & dhit,
                    is_st & (addr == self.last_store_addr[lmm]),
                    h0, h1, hit, miss,
                    streak >= 4,
                    v0 & v1, vv, vv & vdirty,
                    ~(hit & dhit),
                ), (hit, hit, miss, miss, miss, is_st))
                self.last_line[lmm] = line_key
                hp2 = fnz(hit)
                if hp2.size:
                    lh2 = lmm[hp2]
                    dcv.clock[lh2] += 1
                    dcv.lru[lh2, idx_s[hp2], np.where(h0[hp2], 0, 1)] = (
                        dcv.clock[lh2])
                mp2 = fnz(miss)
                if mp2.size:
                    lm2 = lmm[mp2]
                    im2 = idx_s[mp2]
                    wv2 = np.where(take0[mp2], 0, 1)
                    dcv.last_ev[lm2] = np.where(vv[mp2], ev_key[mp2],
                                                dcv.last_ev[lm2])
                    dcv.last_ev_valid[lm2] = vv[mp2]
                    dcv.valid[lm2, im2, wv2] = True
                    dcv.dirty[lm2, im2, wv2] = False
                    dcv.tag[lm2, im2, wv2] = tag_s[mp2]
                    dcv.clock[lm2] += 1
                    dcv.lru[lm2, im2, wv2] = dcv.clock[lm2]
                    cyc[Em[mp2]] += p.dcache_miss_penalty
                stp = fnz(is_st)
                if stp.size:
                    ls2 = lmm[stp]
                    wfin = np.where(hit[stp], np.where(h0[stp], 0, 1),
                                    np.where(take0[stp], 0, 1))
                    dcv.dirty[ls2, idx_s[stp], wfin] = True
                    self.last_store_addr[ls2] = addr[stp]
                rbp = fnz(rb)
                if rbp.size:
                    self.resv_broken[lmm[rbp]] = True
                    self.resv_addr[lmm[rbp]] = c["u0"]
                self.amo_age[lmm] += 1
                self.prev_load_missed[lmm] = miss & ~is_st
                evadd = miss & vv
                for q in range(lmm.size):
                    lane = int(lmm[q])
                    lk = int(line_key[q])
                    st_q = bool(is_st[q])
                    touches = self.t_line_touches[lane]
                    touches[lk] = touches.get(lk, 0) + 1
                    m_ = ip["rocket.mem.line_reuse3"][touches[lk] >= 3]
                    set_idx = lk & dcm
                    hot = sum(1 for key, count in touches.items()
                              if count >= 2 and (key & dcm) == set_idx)
                    m_ |= ip["rocket.mem.set_thrash"][
                        touches[lk] >= 2 and hot >= 2]
                    m_ |= ip["rocket.mem.victim_revisit"][
                        lk in self.t_evicted[lane]]
                    if evadd[q]:
                        self.t_evicted[lane].add(int(ev_key[q]))
                    if int(mrs1m[q]) == 2:
                        if st_q:
                            self.t_sp_slots[lane].add(int(addr[q]))
                            m_ |= ip["rocket.mem.spill_reload"][False]
                        else:
                            m_ |= ip["rocket.mem.spill_reload"][
                                int(addr[q]) in self.t_sp_slots[lane]]
                    buf = self.t_store_buf[lane]
                    if st_q:
                        full = len(buf) >= p.store_buffer_depth
                        m_ |= ip["rocket.mem.storebuf_full"][full]
                        if full:
                            cyc[int(Em[q])] += 1
                            buf.pop(0)
                        buf.append(int(addr[q]))
                    else:
                        m_ |= ip["rocket.mem.storebuf_forward"][
                            int(addr[q]) in buf]
                        if buf:
                            buf.pop(0)
                    self._fold_int(lane, m_)

            # branch taken-history trackers: only the dict/set-backed
            # per-PC counters stay in python (the BTB itself is SoA above)
            for j in bp2.tolist():
                ep = int(E[j])
                lane = int(lanes_e[j])
                pc_i = int(pcs[ep])
                tk = bool(taken[j])
                counts_b = self.t_branch_counts[lane]
                if tk:
                    counts_b[pc_i] = counts_b.get(pc_i, 0) + 1
                m_ = ip["rocket.frontend.loop_iteration"][
                    tk and counts_b.get(pc_i, 0) >= 2]
                outs = self.t_branch_outcomes[lane].setdefault(pc_i, set())
                outs.add(tk)
                m_ |= ip["rocket.frontend.branch_both_ways"][len(outs) == 2]
                self._fold_int(lane, m_)

            # jumps: link-register heuristics + call/return stack
            for j in fnz((mE & M_JUMP) != 0).tolist():
                ep = int(E[j])
                lane = int(lanes_e[j])
                mv = int(mf[ep])
                mrd = mv & 31
                m_ = ip["rocket.execute.link_reg_used"][mrd == 1]
                stack = self.t_link_stack[lane]
                if (mv & M_JAL) != 0 and mrd == 1:
                    m_ |= ip["rocket.frontend.call_depth2"][
                        bool(self.ra_saved[lane]) and bool(stack)]
                    stack.append((int(pcs[ep]) + 4) & spec.WORD_MASK)
                    del stack[:-8]
                if (mv & M_JALR) != 0:
                    via = ((mv >> 5) & 31) == 1 and bool(stack)
                    m_ |= ip["rocket.frontend.jalr_to_link"][via]
                    is_ret = (via and mrd == 0
                              and int(r_npc[ep]) == stack[-1])
                    m_ |= ip["rocket.frontend.call_return_pair"][is_ret]
                    if is_ret:
                        stack.pop()
                self._fold_int(lane, m_)

            # compare/link trackers feeding the next step's heuristics
            self.prev_cmp_rd[lanes_e] = np.where(
                ((mE & M_CMP) != 0) & ((mE & 31) != 0),
                (mE & 31), -1)
            stv = (mE & M_STORE) != 0
            ldv2 = (mE & M_LOAD) != 0
            ra_set = stv & (((mE >> 10) & 31) == 1)
            ra_clr = ~ra_set & ldv2 & ((mE & 31) == 1)
            self.ra_saved[lanes_e[ra_set]] = True
            self.ra_saved[lanes_e[ra_clr]] = False

            # CSR post-execute conditions
            csE = fnz((mE & M_CSR) != 0)
            if csE.size:
                lcs = lanes_e[csE]
                eps = E[csE]
                caddr = immf[eps]           # table imm is the CSR address
                will = r_csra[eps] >= 0
                inh = in_handler[eps]
                self._recs(lcs, (
                    ("rocket.csr.write_read_roundtrip",
                     ~inh & self.csrw[lcs, caddr]),
                    ("rocket.csr.mepc_user_write",
                     ~inh & will & (caddr == spec.CSR_MEPC)),
                    ("rocket.csr.mstatus_mpp_clear",
                     will & (caddr == spec.CSR_MSTATUS)
                     & ((r_csrv[eps] & np.uint64(0x1800)) == c["u0"])),
                ))
                wu = fnz(will & ~inh)
                self.csrw[lcs[wu], caddr[wu]] = True

            # fence.i state effects (the flush/dirty conditions rode the
            # lane-wide scatter above, except dirty which needs the D$ scan)
            fi = fnz((mE & M_FENCEI) != 0)
            if fi.size:
                lfi = lanes_e[fi]
                self._rec(lfi, "rocket.mem.fencei_dirty",
                          self.dc.dirty[lfi].any(axis=(1, 2)))
                self.ic.valid[lfi] = False
                self.ic.dirty[lfi] = False
                cyc[E[fi]] += p.fencei_penalty

            # retire: tracer quirks + trace columns (handler commits are
            # untraced, exactly like the scalar `if not in_handler` gate)
            ret = fnz(~in_handler[E])
            if ret.size:
                Er = E[ret]
                lr = lanes_e[ret]
                mr = mE[ret]
                rdt = np.where(hasE[ret], rdE[ret], np.int64(-1))
                vals = valE[ret].copy()
                sup = ((mr & M_MULDIV) != 0) & p.bug2_tracer_muldiv
                rdt[sup] = -1
                vals[sup] = 0
                jq = (((mr & M_JALR) != 0) & ((mr & 31) == 0)
                      & self.t_prev_load[lr] & p.finding3_x0_trace)
                rdt[jq] = 0
                vals[jq] = ((pcs[Er] + c["u4"]) & c["mask"])[jq]
                self._recb("retire", _RETIRE_SPEC, lr,
                           (sup, jq, rdt >= 0))
                idx = self.counts[lr]
                flatc = lr * cap + idx
                self.c_pc_flat[flatc] = pcs[Er]
                self.c_word_flat[flatc] = r_word[Er]
                if not self.all_m:
                    self.c_priv_flat[flatc] = prv_before[Er]
                wv = fnz(rdt >= 0)
                self.c_rdx_flat[flatc[wv]] = rdt[wv]
                self.c_val_flat[flatc[wv]] = vals[wv]
                if any_mem:
                    mmv = fnz(r_memk[Er] > 0)
                    fm = flatc[mmv]
                    self.c_memk_flat[fm] = r_memk[Er][mmv]
                    self.c_mema_flat[fm] = r_mema[Er][mmv]
                    self.c_mems_flat[fm] = r_mems[Er][mmv]
                    self.c_memd_flat[fm] = r_memd[Er][mmv]
                if any_csr:
                    cmv = fnz(r_csra[Er] >= 0)
                    fc = flatc[cmv]
                    self.c_ca_flat[fc] = r_csra[Er][cmv]
                    self.c_cv_flat[fc] = r_csrv[Er][cmv]
                self.counts[lr] = idx + 1
                self.t_prev_load[lr] = (mr & M_LOAD) != 0

            # muldiv busy horizon reads the FINAL cycle count (latency was
            # already added above, so busy = cycles + latency double-counts
            # it exactly as the scalar core does)
            mdE = fnz(ismd)
            if mdE.size:
                lat = np.where(dvl[mdE],
                               np.int64(p.div_latency),
                               np.int64(p.mul_latency))
                self.muldiv_busy[lanes_e[mdE]] = cyc[E[mdE]] + lat

            # hazard-window shift
            self.prev2_rd[lanes_e] = self.prev1_rd[lanes_e]
            self.prev2_load[lanes_e] = self.prev1_load[lanes_e]
            self.prev2_md[lanes_e] = self.prev1_md[lanes_e]
            self.prev1_rd[lanes_e] = np.where(
                hasE, rdE, np.int64(-1))
            self.prev1_load[lanes_e] = (mE & M_LOAD) != 0
            self.prev1_md[lanes_e] = (mE & M_MULDIV) != 0

            self.pc[lanes_e] = r_npc[E]
            self.steps[lanes_e] += 1

            if p.timed_counter_csr:
                off = self.csrv[spec.CSR_MCYCLE][lanes_e]
                stp = self.steps[lanes_e].astype(np.uint64)
                real = ((off + stp) & c["mask"]).astype(np.int64)
                upd = cyc[E] > real
                lu = lanes_e[upd]
                self.csrv[spec.CSR_MCYCLE][lu] = (
                    (cyc[E][upd].astype(np.uint64) - stp[upd]) & c["mask"])

            hl = fnz(r_halt[E])
            if hl.size:
                lh = lanes_e[hl]
                self.stop_code[lh] = 1
                self.running[lh] = False

        # budget cutoff applies to every vector lane that stepped (scalar
        # checks it at the top of the NEXT step_cycle, which is equivalent)
        over = fnz(npm & (self.steps[act] >= self.config.max_steps)
                   & self.running[act])
        if over.size:
            lo = act[over]
            self.stop_code[lo] = 2
            self.running[lo] = False

        self.cycles[lanes_np] = cyc[npm]

        # peel dispatch last: the scalar core sees every vector side effect
        for pos in fnz(peelm | r_peel).tolist():
            self._peel(int(act[pos]))

    # -- scalar peel bridge --------------------------------------------------

    def _cache_in(self, cache, soa, lane: int) -> None:
        """Splice one lane's SoA cache planes into the scalar cache object.

        Line data is reconstructed from the arena: vector residency is only
        ever granted to lines that match backing memory (the bug1 poison
        peel guarantees it for the I$; the D$ is write-through-coherent by
        construction), so the arena bytes ARE the line bytes.
        """
        idx_bits = cache._index_mask.bit_length()
        off_bits = cache._offset_bits
        lb = cache.line_bytes
        for s, ways in enumerate(cache.lines):
            for w, line in enumerate(ways):
                line.valid = bool(soa.valid[lane, s, w])
                line.dirty = bool(soa.dirty[lane, s, w])
                line.tag = int(soa.tag[lane, s, w])
                line.lru = int(soa.lru[lane, s, w])
                if line.valid:
                    base_addr = ((line.tag << idx_bits) | s) << off_bits
                    off = base_addr - spec.DRAM_BASE
                    line.data = self.arena[lane, off:off + lb].tobytes()
                else:
                    line.data = b""
        cache._lru_clock = int(soa.clock[lane])
        cache.last_evicted = (int(soa.last_ev[lane])
                              if soa.last_ev_valid[lane] else None)

    def _cache_out(self, cache, soa, lane: int) -> None:
        for s, ways in enumerate(cache.lines):
            for w, line in enumerate(ways):
                soa.valid[lane, s, w] = line.valid
                soa.dirty[lane, s, w] = line.dirty
                soa.tag[lane, s, w] = line.tag
                soa.lru[lane, s, w] = line.lru
        soa.clock[lane] = cache._lru_clock
        if cache.last_evicted is None:
            soa.last_ev_valid[lane] = False
        else:
            soa.last_ev[lane] = cache.last_evicted
            soa.last_ev_valid[lane] = True

    def _splice_in(self, lane: int, rs) -> None:
        """Load one lane's microarchitectural state into the scalar core."""
        core = self.core
        self._cache_in(core.icache, self.ic, lane)
        self._cache_in(core.dcache, self.dc, lane)
        btb = core.predictor.btb
        for s in range(self.btb_n):
            if self.btb_valid[lane, s]:
                btb[s] = {"pc": int(self.btb_pc[lane, s]),
                          "ctr": int(self.btb_ctr[lane, s])}
            else:
                btb[s] = None
        core.tracer._prev_was_load = bool(self.t_prev_load[lane])
        core._hit_streak = int(self.hit_streak[lane])
        ll = int(self.last_line[lane])
        core._last_line = None if ll < 0 else ll
        core._line_touches = self.t_line_touches[lane]
        core._evicted_lines = self.t_evicted[lane]
        lsa = int(self.last_store_addr[lane])
        core._last_store_addr = None if lsa == 0 else lsa
        core._sp_slots = self.t_sp_slots[lane]
        ra = int(self.resv_addr[lane])
        core._resv_addr = None if ra == 0 else ra
        core._resv_broken = bool(self.resv_broken[lane])
        core._amo_rd = self.amo_rd[lane]
        core._amo_age = int(self.amo_age[lane])
        core._prev_load_missed = bool(self.prev_load_missed[lane])
        rs.iterations = int(self.steps[lane])
        rs.cycles = int(self.cycles[lane])
        rs.traps_taken = int(self.traps[lane])
        p1 = int(self.prev1_rd[lane])
        p2 = int(self.prev2_rd[lane])
        rs.prev1 = (p1 if p1 >= 0 else None,
                    bool(self.prev1_load[lane]), bool(self.prev1_md[lane]))
        rs.prev2 = (p2 if p2 >= 0 else None,
                    bool(self.prev2_load[lane]), bool(self.prev2_md[lane]))
        rs.muldiv_busy_until = int(self.muldiv_busy[lane])
        rs.store_buffer = self.t_store_buf[lane]     # shared by reference
        rs.dep_chain = int(self.dep_chain[lane])
        rs.prev_wrote_sp = bool(self.prev_wrote_sp[lane])
        rs.branch_taken_counts = self.t_branch_counts[lane]
        rs.link_stack = self.t_link_stack[lane]
        rs.ra_saved = bool(self.ra_saved[lane])
        rs.branch_outcomes = self.t_branch_outcomes[lane]
        rs.csrs_written = set(
            _np.flatnonzero(self.csrw[lane]).tolist())
        rs.last_muldiv_was_mul = bool(self.last_mul[lane])
        pc_ = int(self.prev_cmp_rd[lane])
        rs.prev_was_cmp_rd = pc_ if pc_ >= 0 else None

    def _splice_out(self, lane: int, rs) -> None:
        """Store the scalar core's state back into the lane's SoA planes."""
        core = self.core
        self._cache_out(core.icache, self.ic, lane)
        self._cache_out(core.dcache, self.dc, lane)
        for s, e in enumerate(core.predictor.btb):
            if e is None:
                self.btb_valid[lane, s] = False
            else:
                self.btb_valid[lane, s] = True
                self.btb_pc[lane, s] = e["pc"]
                self.btb_ctr[lane, s] = e["ctr"]
        self.t_prev_load[lane] = core.tracer._prev_was_load
        self.hit_streak[lane] = core._hit_streak
        self.last_line[lane] = (
            -1 if core._last_line is None else core._last_line)
        self.t_line_touches[lane] = core._line_touches
        self.t_evicted[lane] = core._evicted_lines
        self.last_store_addr[lane] = core._last_store_addr or 0
        self.t_sp_slots[lane] = core._sp_slots
        self.resv_addr[lane] = core._resv_addr or 0
        self.resv_broken[lane] = core._resv_broken
        self.amo_rd[lane] = core._amo_rd
        self.amo_age[lane] = core._amo_age
        self.prev_load_missed[lane] = core._prev_load_missed
        self.cycles[lane] = rs.cycles
        r1, l1_, m1 = rs.prev1
        r2, l2_, m2 = rs.prev2
        self.prev1_rd[lane] = -1 if r1 is None else r1
        self.prev1_load[lane] = l1_
        self.prev1_md[lane] = m1
        self.prev2_rd[lane] = -1 if r2 is None else r2
        self.prev2_load[lane] = l2_
        self.prev2_md[lane] = m2
        self.muldiv_busy[lane] = rs.muldiv_busy_until
        self.t_store_buf[lane] = rs.store_buffer
        self.dep_chain[lane] = rs.dep_chain
        self.prev_wrote_sp[lane] = rs.prev_wrote_sp
        self.t_branch_counts[lane] = rs.branch_taken_counts
        self.t_link_stack[lane] = rs.link_stack
        self.ra_saved[lane] = rs.ra_saved
        self.t_branch_outcomes[lane] = rs.branch_outcomes
        row = self.csrw[lane]
        row[:] = False
        if rs.csrs_written:
            row[list(rs.csrs_written)] = True
        self.last_mul[lane] = rs.last_muldiv_was_mul
        self.prev_cmp_rd[lane] = (-1 if rs.prev_was_cmp_rd is None
                                  else rs.prev_was_cmp_rd)

    def _dut_rejoinable(self, lane: int, rs) -> bool:
        """May this peeled lane resume vector execution at its current pc?

        Requires an aligned pc inside the dispatch table (code or handler)
        AND, under bug1, no live stale-line state: the vector I$ keeps no
        line data, so a lane whose scalar I$ disagrees with backing memory
        must stay scalar until the staleness is flushed or evicted away.
        """
        pc = rs.state.pc
        if pc & 3:
            return False
        off = pc - self.base
        if not (0 <= off < 4 * self.lmax or spec.TRAP_VECTOR <= pc < HANDLER_END):
            return False
        if self.params.bug1_fencei:
            cache = self.core.icache
            lb = cache.line_bytes
            for s, ways in enumerate(cache.lines):
                for line in ways:
                    if not line.valid:
                        continue
                    base_addr = cache._line_base(s, line.tag)
                    o = base_addr - spec.DRAM_BASE
                    if line.data != self.arena[lane, o:o + lb].tobytes():
                        return False
        return True

    def _peel(self, lane: int, to_completion: bool = False) -> None:
        """Run ``lane`` on the retained scalar core until it can rejoin.

        Unlike the golden peel there is no analytic handler skip: the DUT
        models per-instruction microarchitectural coverage inside the
        handler too, so handler steps execute for real (vector lanes run
        them through the dispatch table's handler slots instead).
        """
        core = self.core
        st, mem = self._lane_ctx(lane)
        rs = core.begin_run([], self.base, memory=mem)
        rs.state = st
        self._sync_out(lane, st)
        self._splice_in(lane, rs)
        max_steps = self.config.max_steps
        ov = self.overrides[lane]
        count = int(self.counts[lane])
        stop = None
        first = True
        while True:
            if rs.iterations >= max_steps:
                stop = "max_steps"
                break
            if not first and not to_completion and self._dut_rejoinable(lane, rs):
                break
            n0 = len(rs.trace.entries)
            alive = core.step_cycle(rs)
            for entry in rs.trace.entries[n0:]:
                ov[count] = entry
                count += 1
            first = False
            if not alive:
                stop = rs.trace.stop_reason
                break
        self.steps[lane] = rs.iterations  # before _sync_in: counters rebase
        self.traps[lane] = rs.traps_taken
        self.counts[lane] = count
        if count > self.hi:
            self.hi = count
        self._sync_in(lane, st)
        self._splice_out(lane, rs)
        self._fold_int(lane, core.cov.run_bits())
        if stop is not None:
            self.stop_code[lane] = {
                "wfi": 1, "max_steps": 2, "max_traps": 3}[stop]
            self.running[lane] = False

    # -- trace materialisation ----------------------------------------------

    def _materialize(self, lane: int) -> CommitTrace:
        n = int(self.counts[lane])
        ov = self.overrides[lane]
        ncol = min(n, self.cap)
        rows = zip(
            self.c_pc[lane, :ncol].tolist(),
            self.c_word[lane, :ncol].tolist(),
            self.c_priv[lane, :ncol].tolist(),
            self.c_rdx[lane, :ncol].tolist(),
            self.c_val[lane, :ncol].tolist(),
            self.c_memk[lane, :ncol].tolist(),
            self.c_mema[lane, :ncol].tolist(),
            self.c_mems[lane, :ncol].tolist(),
            self.c_memd[lane, :ncol].tolist(),
            self.c_tc[lane, :ncol].tolist(),
            self.c_tv[lane, :ncol].tolist(),
            self.c_ca[lane, :ncol].tolist(),
            self.c_cv[lane, :ncol].tolist(),
        )
        # rd comes from the int16 column: the tracer quirks legitimately
        # emit rd=0, which the golden "rd_ if rd_ else None" encoding
        # cannot represent.
        entries = [
            TraceEntry(pc_, w_, pr_, rd_ if rd_ >= 0 else None, v_,
                       MemOp(ma_, ms_, mk_ == 2, md_) if mk_ else None,
                       tc_ if tc_ >= 0 else None, tv_,
                       (ca_, cv_) if ca_ >= 0 else None)
            for pc_, w_, pr_, rd_, v_, mk_, ma_, ms_, md_, tc_, tv_, ca_, cv_
            in rows
        ]
        entries.extend([None] * (n - ncol))  # type: ignore[list-item]
        if ov:
            for j, e in ov.items():
                if j < n:
                    entries[j] = e
        reason = ("wfi", "max_steps", "max_traps")[int(self.stop_code[lane]) - 1]
        trace = CommitTrace(entries=entries, stop_reason=reason, instret=n)
        trace.cycles = int(self.cycles[lane])
        return trace

    def run(self) -> list[tuple[CommitTrace, CoverageReport]]:
        traces = super().run()
        return [(trace, self._report(lane))
                for lane, trace in enumerate(traces)]
