"""Batched structure-of-arrays golden ISS: numpy lane execution.

Executes N test programs as lockstep *lanes*: a PC vector, a ``32xN``
register-file matrix, a per-lane dense memory arena and vectorised CSR
state.  Each round fetches one instruction per live lane from a
precomputed dispatch table (built once per batch by running every unique
word through :func:`repro.isa.decoder.decode`) and executes the common
planes — ALU, mul/div, branches, loads/stores, jumps, CSR ops — as
masked numpy kernels over the lane subset taking each kind.

Two design points carry the speedup on trap-heavy fuzzing workloads:

- **Analytic trap resolution.**  While a lane's trap handler image and
  ``mtvec`` are untouched, the net architectural effect of trap entry
  plus the six-instruction handler is a closed formula (registers
  preserved, ``mepc``/``mscratch`` = pc+4, ``mstatus`` MPIE stacking,
  seven counter ticks, resume at pc+4).  Trapping lanes therefore
  resolve in one vector pass instead of seven scalar steps — and the
  bench workload is trap-dominated.
- **Scalar peel.**  Anything rare or stateful — atomics, wild PCs,
  misaligned fetch, dirtied handlers — peels the lane out to the exact
  scalar path (:func:`repro.golden.simulator.step_instruction`, the same
  single-step function the scalar :class:`GoldenSimulator` loop runs)
  against a :class:`SparseMemory` adapter over the lane's arena row, and
  rejoins vector execution when the PC returns to the dispatch table.
  Hard-case behaviour thus has exactly one implementation.

The scalar :class:`GoldenSimulator` is retained untouched as the parity
reference: ``run_batch`` produces bit-identical :class:`CommitTrace`\\ s
(including trap-handler commits and ``max_steps``/``max_traps`` cutoffs
per lane), pinned by ``tests/golden/test_batch.py``.  When numpy is
unavailable, the batch is smaller than the lane minimum, or the config
asks for handler tracing, execution falls back to the scalar engine.
"""

from __future__ import annotations

from functools import lru_cache

from repro.golden.csr import (
    CSRFile,
    MSTATUS_MIE,
    MSTATUS_MPIE,
    MSTATUS_MPP_MASK,
    MSTATUS_MPP_SHIFT,
    MSTATUS_WRITE_MASK,
)
from repro.golden.memory import SparseMemory
from repro.golden.simulator import (
    HANDLER_END,
    GoldenSimulator,
    SimConfig,
    step_instruction,
    trap_handler_image,
)
from repro.golden.state import ArchState
from repro.golden.trace import CommitTrace, MemOp, TraceEntry
from repro.isa import spec
from repro.isa.decoder import decode

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image always has numpy
    _np = None

def _nz1(mask):
    """``flatnonzero`` for 1-D masks without the ravel/asarray wrapper —
    the round loop and kind kernels call this dozens of times per step."""
    return mask.nonzero()[0]


#: Default lane-group width; see ROADMAP "Choosing lane widths (golden + DUT)".
DEFAULT_LANES = 32
#: Below this many programs per group, vector overhead loses to scalar.
LANE_MIN = 4

# -- instruction kinds (dispatch-table classification) -----------------------

K_PEEL = 0      # vectorisation not attempted: always peel to scalar
K_ILLEGAL = 1   # decode() returned None (word 0 included)
K_ADD = 2       # add/addi/sub (+W) via the NEG flag
K_BIT = 3       # xor/or/and (+i) via a 2-bit subcode
K_SLT = 4       # slt/sltu (+i) via the SIGNED flag
K_SHIFT = 5     # sll/srl/sra (+i, +W) via subcode
K_LUIPC = 6     # lui/auipc
K_JAL = 7       # jal/jalr
K_BR = 8        # all six branches via a 3-bit condition code
K_LOAD = 9      # lb..lwu via width-log2 + SIGNED
K_STORE = 10    # sb..sd via width-log2
K_AMO = 11      # lr/sc/amo*: vector trap checks, mapped ops peel
K_CSR = 12      # csrr* on the vector CSR file
K_MUL = 13      # mul/mulw
K_MULH = 14     # mulh/mulhsu/mulhu
K_DIV = 15      # div/divu/rem/remu (+W)
K_FENCE = 16    # fence/fence.i: retire with no effects
K_WFI = 17
K_ECALL = 18
K_EBREAK = 19
K_MRET = 20
N_KINDS = 21

# record flag bits (per-kind meaning; bit 0 is global)
F_IMM = 1       # operand b comes from the imm column
F_SUB_SHIFT = 1  # bits 1-2: 2-bit subcode (K_BIT/K_SHIFT/K_MULH/K_CSR op,
#                  width-log2 for K_LOAD/K_STORE/K_AMO, REM for K_DIV)
F_X = 8         # bit 3: NEG / SIGNED / AUIPC / JALR / store-check (by kind)
F_W32 = 16      # bit 4: 32-bit word variant
F_CC_SHIFT = 5  # bits 5-7: branch condition code

_BR_CODES = {"beq": 0, "bne": 1, "blt": 2, "bge": 3, "bltu": 4, "bgeu": 5}
_LOAD_META = {
    "lb": (0, True), "lh": (1, True), "lw": (2, True), "ld": (3, True),
    "lbu": (0, False), "lhu": (1, False), "lwu": (2, False),
}
_STORE_META = {"sb": 0, "sh": 1, "sw": 2, "sd": 3}
_BIT_CODES = {"xor": 0, "xori": 0, "or": 1, "ori": 1, "and": 2, "andi": 2}
_SHIFT_CODES = {
    "sll": 0, "slli": 0, "sllw": 0, "slliw": 0,
    "srl": 1, "srli": 1, "srlw": 1, "srliw": 1,
    "sra": 2, "srai": 2, "sraw": 2, "sraiw": 2,
}
_CSR_OPS = {"csrrw": 0, "csrrs": 1, "csrrc": 2,
            "csrrwi": 0, "csrrsi": 1, "csrrci": 2}


def _pack(kind: int, rd: int = 0, rs1: int = 0, rs2: int = 0, flags: int = 0) -> int:
    return kind | rd << 8 | rs1 << 16 | rs2 << 24 | flags << 32


@lru_cache(maxsize=65536)
def _record(word: int) -> tuple[int, int]:
    """Dispatch-table record for one instruction word: ``(packed, imm)``.

    ``packed`` holds kind | rd<<8 | rs1<<16 | rs2<<24 | flags<<32; ``imm``
    is the pre-wrapped 64-bit unsigned immediate (CSR address for K_CSR).
    Derived from the same :func:`decode` the scalar engine uses, so the
    two paths can never disagree on decoding.
    """
    ins = decode(word)
    if ins is None:
        return _pack(K_ILLEGAL), 0
    s = ins.spec
    m = s.mnemonic
    rd, rs1, rs2 = ins.rd, ins.rs1, ins.rs2
    imm = ins.imm & spec.WORD_MASK
    if s.is_branch:
        return _pack(K_BR, 0, rs1, rs2, _BR_CODES[m] << F_CC_SHIFT), imm
    if s.is_load:
        wl, signed = _LOAD_META[m]
        return _pack(K_LOAD, rd, rs1, 0, wl << 1 | (F_X if signed else 0)), imm
    if s.is_store:
        return _pack(K_STORE, 0, rs1, rs2, _STORE_META[m] << 1), imm
    if s.is_amo:
        wl = 2 if m.endswith(".w") else 3
        st = 0 if m.startswith("lr.") else F_X  # sc/amo* use store-fault causes
        return _pack(K_AMO, rd, rs1, rs2, wl << 1 | st), 0
    if s.is_csr:
        flags = _CSR_OPS[m] << 1
        if m.endswith("i"):
            flags |= F_IMM
            rs1 = ins.zimm  # the rs1 column carries zimm for immediates
        return _pack(K_CSR, rd, rs1, 0, flags), ins.csr
    if s.is_muldiv:
        if m in ("mul", "mulw"):
            return _pack(K_MUL, rd, rs1, rs2, F_W32 if m == "mulw" else 0), 0
        if m in ("mulh", "mulhsu", "mulhu"):
            sub = {"mulh": 0, "mulhsu": 1, "mulhu": 2}[m]
            return _pack(K_MULH, rd, rs1, rs2, sub << 1), 0
        base = m.rstrip("w") if m.endswith("w") else m
        flags = (F_W32 if m.endswith("w") else 0)
        if base.startswith("rem"):
            flags |= 1 << 1
        if base in ("div", "rem"):
            flags |= F_X  # signed
        return _pack(K_DIV, rd, rs1, rs2, flags), 0
    if m == "lui":
        return _pack(K_LUIPC, rd), imm
    if m == "auipc":
        return _pack(K_LUIPC, rd, 0, 0, F_X), imm
    if m == "jal":
        return _pack(K_JAL, rd), imm
    if m == "jalr":
        return _pack(K_JAL, rd, rs1, 0, F_X), imm
    if m in ("add", "addi", "sub", "addw", "addiw", "subw"):
        flags = (F_IMM if s.fmt == "I" else 0)
        flags |= F_X if m in ("sub", "subw") else 0
        flags |= F_W32 if m.endswith("w") else 0
        return _pack(K_ADD, rd, rs1, rs2, flags), imm
    if m in _BIT_CODES:
        flags = _BIT_CODES[m] << 1 | (F_IMM if s.fmt == "I" else 0)
        return _pack(K_BIT, rd, rs1, rs2, flags), imm
    if m in ("slt", "slti", "sltu", "sltiu"):
        flags = (F_IMM if s.fmt == "I" else 0) | (F_X if "u" not in m else 0)
        return _pack(K_SLT, rd, rs1, rs2, flags), imm
    if m in _SHIFT_CODES:
        flags = _SHIFT_CODES[m] << 1
        flags |= F_W32 if "w" in m else 0
        if s.fmt in ("I_SHIFT64", "I_SHIFT32"):
            flags |= F_IMM
            return _pack(K_SHIFT, rd, rs1, 0, flags), ins.shamt
        return _pack(K_SHIFT, rd, rs1, rs2, flags), 0
    if m in ("fence", "fence.i"):
        return _pack(K_FENCE), 0
    if m == "wfi":
        return _pack(K_WFI), 0
    if m == "ecall":
        return _pack(K_ECALL), 0
    if m == "ebreak":
        return _pack(K_EBREAK), 0
    if m == "mret":
        return _pack(K_MRET), 0
    # Anything unclassified stays correct via the scalar path.
    return _pack(K_PEEL), 0


class _LaneMemory(SparseMemory):
    """Scalar-peel adapter: SparseMemory API over one lane's arena row.

    Reads and writes land directly in the numpy arena (no copy on
    peel/rejoin); writes notify the group so handler-integrity flags and
    dispatch-table slots stay coherent with self-modifying code.
    """

    def __init__(self, group: "_LaneGroup", lane: int) -> None:
        super().__init__()
        self._group = group
        self._lane = lane

    def read_bytes(self, addr: int, size: int) -> bytes:
        off = addr - spec.DRAM_BASE
        return self._group.arena[self._lane, off:off + size].tobytes()

    def write_bytes(self, addr: int, data: bytes) -> None:
        off = addr - spec.DRAM_BASE
        self._group.arena[self._lane, off:off + len(data)] = _np.frombuffer(
            bytes(data), dtype=_np.uint8
        )
        self._group.note_write(self._lane, addr, len(data))


class GoldenBatchSimulator:
    """Structure-of-arrays batch ISS producing scalar-identical traces.

    >>> batch = GoldenBatchSimulator(lanes=32)
    >>> traces = batch.run_batch([prog0, prog1, ...])   # doctest: +SKIP

    Parameters
    ----------
    config:
        Same :class:`SimConfig` the scalar engine takes.
    lanes:
        Lane-group width: programs are executed in groups of this many
        lockstep lanes.  Wider groups amortise per-round numpy overhead
        over more lanes but suffer more divergence drag; see the ROADMAP
        guidance section.
    """

    def __init__(self, config: SimConfig | None = None, lanes: int = DEFAULT_LANES):
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self.config = config or SimConfig()
        self.lanes = lanes
        self._scalar = GoldenSimulator(self.config)

    def run_batch(self, programs, base: int = spec.DRAM_BASE) -> list[CommitTrace]:
        """Execute ``programs`` (lists of 32-bit words); one trace each.

        Results are bit-identical to ``[GoldenSimulator(config).run(p, base)
        for p in programs]`` in the same order.
        """
        progs = [list(p) for p in programs]
        if not progs:
            return []
        if not self._batchable(progs, base):
            return [self._scalar.run(p, base) for p in progs]
        out: list[CommitTrace] = []
        for i in range(0, len(progs), self.lanes):
            chunk = progs[i:i + self.lanes]
            if len(chunk) < LANE_MIN:
                out.extend(self._scalar.run(p, base) for p in chunk)
            else:
                out.extend(_LaneGroup(self.config, chunk, base).run())
        return out

    def _batchable(self, progs: list[list[int]], base: int) -> bool:
        if _np is None or len(progs) < LANE_MIN:
            return False
        lmax = max(len(p) for p in progs)
        # The dispatch table must sit inside DRAM, clear of the handler.
        return spec.DRAM_BASE <= base and base + 4 * lmax <= spec.TRAP_VECTOR


# Bound numpy uint64 constants (python ints can't mix with uint64 arrays
# when negative, and silently upcast otherwise).
def _u64consts():
    np = _np
    return {
        "u0": np.uint64(0), "u1": np.uint64(1), "u2": np.uint64(2),
        "u3": np.uint64(3), "u4": np.uint64(4), "u6": np.uint64(6),
        "m32": np.uint64(0xFFFF_FFFF), "b31": np.uint64(0x8000_0000),
        "not1": np.uint64(spec.WORD_MASK & ~1),
        "mask": np.uint64(spec.WORD_MASK),
        "dram": np.uint64(spec.DRAM_BASE),
        "dlim": np.uint64(spec.DRAM_SIZE - 4),
        "dsize": np.uint64(spec.DRAM_SIZE),
    }


class _LaneGroup:
    """One lockstep group of lanes; see module docstring for the design."""

    def __init__(self, config: SimConfig, programs: list[list[int]], base: int):
        np = _np
        self.config = config
        self.base = base
        g = len(programs)
        self.g = g
        lmax = max(len(p) for p in programs)
        self.lmax = lmax
        self.c = _u64consts()

        handler = trap_handler_image()
        self.handler_span = (spec.TRAP_VECTOR, HANDLER_END)
        h_img = np.frombuffer(
            b"".join((w & 0xFFFFFFFF).to_bytes(4, "little") for w in handler),
            dtype=np.uint8,
        )
        hoff = spec.TRAP_VECTOR - spec.DRAM_BASE
        boff = base - spec.DRAM_BASE

        self.arena = np.zeros((g, spec.DRAM_SIZE), dtype=np.uint8)
        self.words = np.zeros((g, max(lmax, 1)), dtype="<u4")
        for i, p in enumerate(programs):
            if p:
                self.words[i, :len(p)] = [x & 0xFFFFFFFF for x in p]
        # Tail slots past a shorter program stay zero, matching the arena's
        # zero-fill, so one blit loads every lane's image at once.
        wspan = 4 * self.words.shape[1]
        self.arena[:, boff:boff + wspan] = self.words.view(np.uint8)
        self.arena[:, hoff:hoff + len(h_img)] = h_img
        self.arena16 = self.arena.view("<u2").reshape(g, -1)
        self.arena32 = self.arena.view("<u4").reshape(g, -1)
        self.arena64 = self.arena.view("<u8").reshape(g, -1)
        self._build_table()

        self.pc = np.full(g, base, dtype=np.uint64)
        self.regs = np.zeros((g, 32), dtype=np.uint64)
        self.regs_flat = self.regs.reshape(-1)
        self.priv = np.full(g, spec.PRV_M, dtype=np.int64)
        self.res_valid = np.zeros(g, dtype=bool)
        self.res_addr = np.zeros(g, dtype=np.uint64)
        self.csrv = {
            addr: np.full(g, val, dtype=np.uint64)
            for addr, val in CSRFile().values.items()
        }
        self.handler_ok = np.ones(g, dtype=bool)
        self.mtvec_ok = np.ones(g, dtype=bool)  # reset mtvec == TRAP_VECTOR
        self.running = np.ones(g, dtype=bool)
        self.stop_code = np.zeros(g, dtype=np.int8)  # 1 wfi, 2 max_steps, 3 max_traps
        self.steps = np.zeros(g, dtype=np.int64)
        self.traps = np.zeros(g, dtype=np.int64)

        self.base_u = np.uint64(base)
        self.tab_u = np.uint64(4 * lmax)
        #: Monotone upper bound on max(counts) — lets rounds grow columns
        #: without re-scanning counts.
        self.hi = 0
        #: True while every lane is still in M-mode (the common case) —
        #: c_priv cells keep their PRV_M prefill and rounds skip the write.
        self.all_m = True
        self.cap = 0
        self._grow_cols(min(256, max(config.max_steps, 1)))
        self.counts = np.zeros(g, dtype=np.int64)
        #: Per-lane {trace index: TraceEntry} for scalar-peeled commits.
        self.overrides: list[dict[int, TraceEntry]] = [dict() for _ in range(g)]
        self._ctx: dict[int, tuple[ArchState, _LaneMemory]] = {}

    # -- dispatch table -----------------------------------------------------

    def _build_table(self) -> None:
        np = _np
        uw, inv = np.unique(self.words, return_inverse=True)
        inv = inv.reshape(-1)
        recs = [_record(int(w)) for w in uw]
        up = np.array([r[0] for r in recs], dtype=np.int64)
        ui = np.array([r[1] for r in recs], dtype=np.uint64)
        shape = self.words.shape
        self.packed = up[inv].reshape(shape)
        self.imm_tab = ui[inv].reshape(shape)
        self.packed_flat = self.packed.reshape(-1)
        self.imm_flat = self.imm_tab.reshape(-1)
        self.words_flat = self.words.reshape(-1)

    def note_write(self, lane: int, addr: int, size: int) -> None:
        """Memory-write hook: keep handler flags and table slots coherent."""
        hlo, hhi = self.handler_span
        if addr < hhi and addr + size > hlo:
            self.handler_ok[lane] = False
        tlo, thi = self.base, self.base + 4 * self.lmax
        if addr < thi and addr + size > tlo:
            s0 = max(0, (addr - tlo) // 4)
            s1 = min(self.lmax - 1, (addr + size - 1 - tlo) // 4)
            woff = (tlo - spec.DRAM_BASE) // 4
            for slot in range(s0, s1 + 1):
                w = int(self.arena32[lane, woff + slot])
                packed, imm = _record(w)
                self.words[lane, slot] = w
                self.packed[lane, slot] = packed
                self.imm_tab[lane, slot] = imm

    # -- trace columns ------------------------------------------------------

    def _grow_cols(self, need: int) -> None:
        np = _np
        if need <= self.cap:
            return
        new = max(need, self.cap * 2, 16)
        g = self.g

        def grow(old, dtype, fill=0):
            arr = np.full((g, new), fill, dtype=dtype)
            if old is not None:
                arr[:, :self.cap] = old
            return arr

        # Each (lane, index) cell is written at most once, so the fills
        # double as the per-entry defaults: rounds only scatter cells that
        # differ (no rd write, no mem op, no trap, no CSR write ⇒ no-op).
        self.c_pc = grow(getattr(self, "c_pc", None), np.uint64)
        self.c_word = grow(getattr(self, "c_word", None), np.uint32)
        self.c_priv = grow(getattr(self, "c_priv", None), np.int8, spec.PRV_M)
        self.c_rd = grow(getattr(self, "c_rd", None), np.int8)
        self.c_val = grow(getattr(self, "c_val", None), np.uint64)
        self.c_memk = grow(getattr(self, "c_memk", None), np.int8)
        self.c_mema = grow(getattr(self, "c_mema", None), np.uint64)
        self.c_mems = grow(getattr(self, "c_mems", None), np.int8)
        self.c_memd = grow(getattr(self, "c_memd", None), np.uint64)
        self.c_tc = grow(getattr(self, "c_tc", None), np.int16, -1)
        self.c_tv = grow(getattr(self, "c_tv", None), np.uint64)
        self.c_ca = grow(getattr(self, "c_ca", None), np.int16, -1)
        self.c_cv = grow(getattr(self, "c_cv", None), np.uint64)
        self.cap = new
        # Flat views for single-index scatters (cheaper than (row, col)
        # advanced indexing in the per-round hot path).
        self.c_pc_flat = self.c_pc.reshape(-1)
        self.c_word_flat = self.c_word.reshape(-1)
        self.c_priv_flat = self.c_priv.reshape(-1)
        self.c_rd_flat = self.c_rd.reshape(-1)
        self.c_val_flat = self.c_val.reshape(-1)
        self.c_memk_flat = self.c_memk.reshape(-1)
        self.c_mema_flat = self.c_mema.reshape(-1)
        self.c_mems_flat = self.c_mems.reshape(-1)
        self.c_memd_flat = self.c_memd.reshape(-1)
        self.c_ca_flat = self.c_ca.reshape(-1)
        self.c_cv_flat = self.c_cv.reshape(-1)

    # -- scalar peel --------------------------------------------------------

    def _lane_ctx(self, lane: int) -> tuple[ArchState, _LaneMemory]:
        ctx = self._ctx.get(lane)
        if ctx is None:
            ctx = (ArchState(pc=0), _LaneMemory(self, lane))
            self._ctx[lane] = ctx
        return ctx

    def _sync_out(self, lane: int, st: ArchState) -> None:
        st.regs = self.regs[lane].tolist()
        st.pc = int(self.pc[lane])
        st.priv = int(self.priv[lane])
        st.reservation = int(self.res_addr[lane]) if self.res_valid[lane] else None
        values = st.csr.values
        for addr, vec in self.csrv.items():
            values[addr] = int(vec[lane])
        # The counter CSRs are stored as offsets from ``steps`` (they tick
        # once per step, so the vector planes never need to touch them);
        # rebase to real values for the scalar path.
        steps = int(self.steps[lane])
        for addr in (spec.CSR_MCYCLE, spec.CSR_MINSTRET):
            values[addr] = (values[addr] + steps) & spec.WORD_MASK

    def _sync_in(self, lane: int, st: ArchState) -> None:
        self.regs[lane] = st.regs
        self.pc[lane] = st.pc
        self.priv[lane] = st.priv
        if st.priv != spec.PRV_M:
            self.all_m = False
        if st.reservation is None:
            self.res_valid[lane] = False
        else:
            self.res_valid[lane] = True
            self.res_addr[lane] = st.reservation
        values = st.csr.values
        for addr, vec in self.csrv.items():
            vec[lane] = values[addr]
        steps = int(self.steps[lane])
        for addr in (spec.CSR_MCYCLE, spec.CSR_MINSTRET):
            self.csrv[addr][lane] = (values[addr] - steps) & spec.WORD_MASK
        self.mtvec_ok[lane] = values[spec.CSR_MTVEC] == spec.TRAP_VECTOR

    def _rejoinable(self, pc: int) -> bool:
        off = pc - self.base
        return 0 <= off < 4 * self.lmax and off % 4 == 0

    def _peel(self, lane: int, to_completion: bool = False) -> None:
        """Run ``lane`` scalar until it can rejoin vector execution.

        Semantics come from :func:`step_instruction` — the same function
        the scalar engine's loop runs — so peeled steps are exact.  An
        intact trap handler is still skipped analytically (same formula
        as the vector trap plane, minus the entry the scalar step
        already performed).
        """
        st, mem = self._lane_ctx(lane)
        self._sync_out(lane, st)
        cfg = self.config
        max_steps = cfg.max_steps
        steps = int(self.steps[lane])
        traps = int(self.traps[lane])
        ov = self.overrides[lane]
        count = int(self.counts[lane])
        stop = None
        first = True
        while True:
            if steps >= max_steps:
                stop = "max_steps"
                break
            pc = st.pc
            if not first and not to_completion and self._rejoinable(pc):
                break
            if (pc == spec.TRAP_VECTOR and st.priv == spec.PRV_M
                    and self.handler_ok[lane]):
                # Intact handler: apply its closed-form effect (x31
                # round-trips; mepc/mscratch advance; mret unstacks).
                if max_steps - steps < 6:
                    stop = "max_steps"  # budget dies inside the (untraced) handler
                    break
                values = st.csr.values
                ret = (values[spec.CSR_MEPC] + 4) & spec.WORD_MASK
                values[spec.CSR_MEPC] = ret
                values[spec.CSR_MSCRATCH] = ret
                ms = values[spec.CSR_MSTATUS]
                new_priv = (ms & MSTATUS_MPP_MASK) >> MSTATUS_MPP_SHIFT
                msn = ms & ~(MSTATUS_MIE | MSTATUS_MPIE | MSTATUS_MPP_MASK)
                if ms & MSTATUS_MPIE:
                    msn |= MSTATUS_MIE
                msn |= MSTATUS_MPIE
                values[spec.CSR_MSTATUS] = msn
                values[spec.CSR_MCYCLE] = (values[spec.CSR_MCYCLE] + 6) & spec.WORD_MASK
                values[spec.CSR_MINSTRET] = (values[spec.CSR_MINSTRET] + 6) & spec.WORD_MASK
                st.priv = new_priv
                st.pc = ret
                steps += 6
                first = False
                continue
            entry, traps, stop_reason = step_instruction(st, mem, cfg, traps)
            steps += 1
            if entry is not None:
                ov[count] = entry
                count += 1
            first = False
            if stop_reason is not None:
                stop = stop_reason
                break
        self.steps[lane] = steps  # before _sync_in: counter CSRs rebase on steps
        self.traps[lane] = traps
        self.counts[lane] = count
        if count > self.hi:
            self.hi = count
        self._sync_in(lane, st)
        if stop is not None:
            self.stop_code[lane] = {"wfi": 1, "max_steps": 2, "max_traps": 3}[stop]
            self.running[lane] = False

    # -- vector trap plane --------------------------------------------------

    def _resolve_traps(self, lanes, pcs, causes, tvals, words) -> None:
        """Analytic trap entry + handler for lanes with intact handlers.

        Mirrors the scalar sequence exactly: trap commit entry, counter
        tick, ``max_traps`` cutoff, then — if the remaining step budget
        covers the six handler instructions — the handler's closed-form
        effect; otherwise the lane dies mid-handler with ``max_steps``
        (handler steps are untraced, so the trace is already complete).
        """
        np = _np
        c = self.c
        idx = self.counts[lanes]
        self.c_pc[lanes, idx] = pcs
        self.c_word[lanes, idx] = words
        self.c_priv[lanes, idx] = self.priv[lanes]
        self.c_tc[lanes, idx] = causes
        self.c_tv[lanes, idx] = tvals
        self.counts[lanes] += 1
        self.traps[lanes] += 1
        self.steps[lanes] += 1
        self.res_valid[lanes] = False
        self.csrv[spec.CSR_MCAUSE][lanes] = causes.astype(np.uint64)
        self.csrv[spec.CSR_MTVAL][lanes] = tvals & c["mask"]

        stop3 = self.traps[lanes] >= self.config.max_traps
        l3 = lanes[stop3]
        self.stop_code[l3] = 3
        self.running[l3] = False

        cont = ~stop3
        rem = self.config.max_steps - self.steps[lanes]
        short = cont & (rem < 6)
        l2 = lanes[short]
        self.stop_code[l2] = 2
        self.running[l2] = False

        go = cont & ~short
        lg = lanes[go]
        if lg.size:
            ret = ((pcs[go] & c["not1"]) + c["u4"]) & c["mask"]
            self.csrv[spec.CSR_MEPC][lg] = ret
            self.csrv[spec.CSR_MSCRATCH][lg] = ret
            ms = self.csrv[spec.CSR_MSTATUS][lg]
            mpie = np.uint64(MSTATUS_MPIE)
            keep = np.uint64(spec.WORD_MASK & ~(MSTATUS_MPIE | MSTATUS_MPP_MASK))
            self.csrv[spec.CSR_MSTATUS][lg] = (ms & keep) | mpie
            self.steps[lg] += 6
            self.pc[lg] = ret
            done = self.steps[lg] >= self.config.max_steps
            ld = lg[done]
            self.stop_code[ld] = 2
            self.running[ld] = False

    def _chain(self, lane: int) -> None:
        """Resolve a run of fetch traps (unmapped pc or zero instruction
        words) for one lane in closed form.

        Such a lane re-traps on every handler return — pc only advances
        by 4 — so the whole run is deterministic: k trap commits, then
        either a limit stop or a resume at the first fetchable pc.
        Collapsing the run matters because runaway trap loops otherwise
        cost one vector round per trap while the other lanes idle along.
        """
        np = _np
        c = self.c
        pc0 = int(self.pc[lane])
        if (pc0 & 1) or not (self.handler_ok[lane] and self.mtvec_ok[lane]):
            self._peel(lane)  # dirty handler (or odd pc): scalar path
            return
        cfg = self.config
        max_steps, max_traps = cfg.max_steps, cfg.max_traps
        steps = int(self.steps[lane])
        traps = int(self.traps[lane])
        kmax = min(max_traps - traps, (max_steps - steps) // 7 + 1)
        pcs = np.uint64(pc0) + c["u4"] * np.arange(kmax, dtype=np.uint64)
        moff = pcs - c["dram"]
        unmapped = moff > c["dlim"]
        zero_ok = (~unmapped
                   & ((moff & c["u3"]) == c["u0"])
                   & ((pcs - np.uint64(self.base)) >= np.uint64(4 * self.lmax)))
        word_zero = np.zeros(kmax, dtype=bool)
        widx = np.flatnonzero(zero_ok)
        if widx.size:
            w = self.arena32[lane, (moff[widx] >> c["u2"]).astype(np.int64)]
            word_zero[widx] = w == 0
        chainable = unmapped | (zero_ok & word_zero)
        nc = np.flatnonzero(~chainable)
        limit = int(nc[0]) if nc.size else kmax
        # Walk the stop logic; mirrors _resolve_traps entry-by-entry.
        k = 0
        stop = 0
        while k < limit:
            steps += 1
            traps += 1
            k += 1
            if traps >= max_traps:
                stop = 3
                break
            if max_steps - steps < 6:
                stop = 2
                break
            steps += 6
            if steps >= max_steps:
                stop = 2
                break
        n0 = int(self.counts[lane])
        self._grow_cols(n0 + k)
        if n0 + k > self.hi:
            self.hi = n0 + k
        sl = slice(n0, n0 + k)
        unm_k = unmapped[:k]
        self.c_pc[lane, sl] = pcs[:k]
        self.c_priv[lane, sl] = int(self.priv[lane])
        self.c_tc[lane, sl] = np.where(
            unm_k, spec.EXC_INSTR_ACCESS_FAULT, spec.EXC_ILLEGAL_INSTRUCTION
        )
        self.c_tv[lane, sl] = np.where(unm_k, pcs[:k], c["u0"])
        # c_word keeps its 0 default: both chain causes read the word as 0.
        self.counts[lane] = n0 + k
        self.steps[lane] = steps
        self.traps[lane] = traps
        self.res_valid[lane] = False
        if stop:
            self.stop_code[lane] = stop
            self.running[lane] = False
            return
        # The lane survives the run: commit the composed CSR effects of the
        # final trap + handler pass (earlier passes are fully overwritten).
        last = int(pcs[k - 1])
        ret = (last + 4) & spec.WORD_MASK
        if unmapped[k - 1]:
            self.csrv[spec.CSR_MCAUSE][lane] = spec.EXC_INSTR_ACCESS_FAULT
            self.csrv[spec.CSR_MTVAL][lane] = last
        else:
            self.csrv[spec.CSR_MCAUSE][lane] = spec.EXC_ILLEGAL_INSTRUCTION
            self.csrv[spec.CSR_MTVAL][lane] = 0
        self.csrv[spec.CSR_MEPC][lane] = ret
        self.csrv[spec.CSR_MSCRATCH][lane] = ret
        ms = int(self.csrv[spec.CSR_MSTATUS][lane])
        self.csrv[spec.CSR_MSTATUS][lane] = (
            ms & ~(MSTATUS_MPIE | MSTATUS_MPP_MASK)
        ) | MSTATUS_MPIE
        self.pc[lane] = ret

    # -- main loop ----------------------------------------------------------

    def run(self) -> list[CommitTrace]:
        np = _np
        if self.config.max_steps <= 0:
            self.stop_code[:] = 2
            self.running[:] = False
        tail = max(1, self.g // 16)
        guard = 2 * self.config.max_steps + self.g + 64
        rounds = 0
        while True:
            act = _nz1(self.running)
            if act.size == 0:
                break
            if act.size <= tail:
                for lane in act.tolist():
                    self._peel(lane, to_completion=True)
                break
            rounds += 1
            if rounds > guard:  # pragma: no cover - termination backstop
                raise RuntimeError("batched golden ISS failed to converge")
            self._round(act)
        # Each peel context's _LaneMemory points back at this group (and
        # its arena): drop them so the group dies with its last reference
        # instead of waiting for the cyclic GC.
        self._ctx.clear()
        return [self._materialize(lane) for lane in range(self.g)]

    def _round(self, act) -> None:
        np = _np
        c = self.c
        fnz = _nz1    # 1-D fast path: skips flatnonzero's ravel
        n = act.size
        pcs = self.pc[act]

        # --- fetch classification ----------------------------------------
        moff = pcs - c["dram"]
        toff = pcs - self.base_u
        in_tab = ((toff < self.tab_u) & ((toff & c["u3"]) == c["u0"])
                  & (moff <= c["dlim"]))
        all_tab = bool(in_tab.all())

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

        r_chain = None
        any_chain = any_peel = False
        if not all_tab:
            # Unmapped or zero-word fetches trap on every subsequent fetch
            # too (the handler only advances pc by 4) — _chain resolves
            # the whole run per lane instead of one trap per round.
            m_ok = moff <= c["dlim"]
            r_chain = ~m_ok
            rest = m_ok & ~in_tab
            if rest.any():
                # In DRAM but outside the table: zero words (the common
                # case — falling through data) chain as illegal-
                # instruction traps; anything else peels.
                aligned = rest & ((moff & c["u3"]) == c["u0"])
                mis = fnz(rest & ~aligned)
                if mis.size:
                    r_peel[mis] = True
                    any_peel = True
                ra = fnz(aligned)
                if ra.size:
                    aw = self.arena32[act[ra], (moff[ra] >> c["u2"]).astype(np.int64)]
                    zero = aw == 0
                    r_chain[ra[zero]] = True
                    nz = ra[~zero]
                    if nz.size:
                        r_peel[nz] = True
                        any_peel = True
            any_chain = bool(r_chain.any())

        # --- decode-table gather + per-kind execution ---------------------
        if all_tab:
            it = None
            lanes_it = act
            slots = (toff >> c["u2"]).astype(np.int64)
            pcs_it = pcs
        else:
            it = fnz(in_tab)
            lanes_it = act[it]
            slots = (toff[it] >> c["u2"]).astype(np.int64)
            pcs_it = pcs[it]
        any_trap = any_halt = any_mem = any_csr = False
        if lanes_it.size:
            flat = lanes_it * self.words.shape[1] + slots
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
            if it is None:
                r_word = word
                r_rd = rd
            else:
                r_word = np.zeros(n, dtype=np.uint32)
                r_rd = np.zeros(n, dtype=np.int64)
                r_word[it] = word
                r_rd[it] = rd
            any_trap, exec_peel, any_halt, any_mem, any_csr = self._exec_kinds(
                act, it, lanes_it, kind, rd, rs1, rs2, flags, a, b, breg,
                imm, pcs_it, word,
                r_cause, r_tval, r_peel, r_halt, r_npc, r_hasrd, r_val,
                r_memk, r_mema, r_mems, r_memd, r_csra, r_csrv,
            )
            any_peel = any_peel or exec_peel
        else:
            r_word = np.zeros(n, dtype=np.uint32)
            r_rd = np.zeros(n, dtype=np.int64)

        # --- split traps: analytic fast path vs dirty-handler peel --------
        tp = None
        if any_trap:
            tp = fnz(r_cause >= 0)
            tl = act[tp]
            fast = self.handler_ok[tl] & self.mtvec_ok[tl]
            if not fast.all():
                dirty = tp[~fast]
                r_peel[dirty] = True
                r_cause[dirty] = -1
                any_peel = True
                tp = tp[fast]

        # --- writeback for plainly-executed lanes -------------------------
        self._grow_cols(self.hi + 1)
        self.hi += 1
        cap = self.cap
        if not (any_trap or any_peel or any_chain):
            E = slice(None)
            lanes_e = act
            has_exec = True
        else:
            badm = r_peel
            if r_chain is not None:
                badm = badm | r_chain
            if any_trap:
                badm = badm | (r_cause >= 0)
            E = fnz(~badm)
            lanes_e = act[E]
            has_exec = E.size > 0
        if has_exec:
            idx = self.counts[lanes_e]
            flatc = lanes_e * cap + idx
            self.c_pc_flat[flatc] = pcs[E]
            self.c_word_flat[flatc] = r_word[E]
            if not self.all_m:
                self.c_priv_flat[flatc] = self.priv[lanes_e]
            rdE = r_rd[E]
            valE = r_val[E]
            wr = fnz(r_hasrd[E] & (rdE > 0))
            if wr.size:
                fw = flatc[wr]
                self.c_rd_flat[fw] = rdE[wr]
                self.c_val_flat[fw] = valE[wr]
                self.regs_flat[lanes_e[wr] * 32 + rdE[wr]] = valE[wr]
            if any_mem:
                memkE = r_memk[E]
                mm = fnz(memkE)
                if mm.size:
                    fm = flatc[mm]
                    self.c_memk_flat[fm] = memkE[mm]
                    self.c_mema_flat[fm] = r_mema[E][mm]
                    self.c_mems_flat[fm] = r_mems[E][mm]
                    self.c_memd_flat[fm] = r_memd[E][mm]
            if any_csr:
                csraE = r_csra[E]
                cs = fnz(csraE >= 0)
                if cs.size:
                    fc = flatc[cs]
                    self.c_ca_flat[fc] = csraE[cs]
                    self.c_cv_flat[fc] = r_csrv[E][cs]
            self.counts[lanes_e] = idx + 1
            self.steps[lanes_e] += 1
            self.pc[lanes_e] = r_npc[E]
            if any_halt:
                lh = lanes_e[r_halt[E]]
                self.stop_code[lh] = 1
                self.running[lh] = False
            over = (self.steps[lanes_e] >= self.config.max_steps) & self.running[lanes_e]
            if over.any():
                lo = lanes_e[over]
                self.stop_code[lo] = 2
                self.running[lo] = False

        if tp is not None and tp.size:
            self._resolve_traps(
                act[tp], pcs[tp], r_cause[tp], r_tval[tp],
                r_word[tp],
            )

        if any_chain:
            for pos in fnz(r_chain).tolist():
                self._chain(int(act[pos]))

        if any_peel:
            for pos in fnz(r_peel).tolist():
                self._peel(int(act[pos]))

    # -- per-kind kernels ---------------------------------------------------

    def _exec_kinds(self, act, it, lanes_it, kind, rd, rs1, rs2, flags, a, b,
                    breg, imm, pcs_it, word,
                    r_cause, r_tval, r_peel, r_halt, r_npc, r_hasrd, r_val,
                    r_memk, r_mema, r_mems, r_memd, r_csra, r_csrv):
        """Masked per-kind execution; returns python-level presence flags
        ``(any_trap, any_peel, any_halt, any_mem, any_csr)`` so the caller
        can skip absent machinery without re-scanning arrays."""
        np = _np
        c = self.c
        # One stable sort replaces a kind == K scan per opcode class: the
        # sorted positions of kind k are order[start_k : start_k + cnt_k].
        cnt = np.bincount(kind, minlength=N_KINDS).tolist()
        order = np.argsort(kind, kind="stable")
        starts = [0] * N_KINDS
        s = 0
        for k_ in range(N_KINDS):
            starts[k_] = s
            s += cnt[k_]

        def grp(k_):
            return order[starts[k_]:starts[k_] + cnt[k_]]

        if it is None:
            def gof(p):
                return p
        else:
            def gof(p):
                return it[p]

        any_trap = any_peel = any_halt = any_mem = any_csr = False

        def sx32(x):
            return ((x & c["m32"]) ^ c["b31"]) - c["b31"]

        if cnt[K_ILLEGAL]:
            p = grp(K_ILLEGAL)
            gp = gof(p)
            r_cause[gp] = spec.EXC_ILLEGAL_INSTRUCTION
            r_tval[gp] = word[p]
            any_trap = True
        if cnt[K_PEEL]:
            r_peel[gof(grp(K_PEEL))] = True
            any_peel = True

        if cnt[K_ADD]:
            p = grp(K_ADD)
            f = flags[p]
            bb = np.where((f & F_X) != 0, c["u0"] - b[p], b[p])
            v = a[p] + bb
            v = np.where((f & F_W32) != 0, sx32(v), v)
            gp = gof(p)
            r_val[gp] = v
            r_hasrd[gp] = True
        if cnt[K_BIT]:
            p = grp(K_BIT)
            sub = (flags[p] >> F_SUB_SHIFT) & 3
            v = np.where(sub == 0, a[p] ^ b[p],
                         np.where(sub == 1, a[p] | b[p], a[p] & b[p]))
            gp = gof(p)
            r_val[gp] = v
            r_hasrd[gp] = True
        if cnt[K_SLT]:
            p = grp(K_SLT)
            lt_s = a[p].astype(np.int64) < b[p].astype(np.int64)
            lt_u = a[p] < b[p]
            v = np.where((flags[p] & F_X) != 0, lt_s, lt_u).astype(np.uint64)
            gp = gof(p)
            r_val[gp] = v
            r_hasrd[gp] = True
        if cnt[K_SHIFT]:
            p = grp(K_SHIFT)
            f = flags[p]
            w32 = (f & F_W32) != 0
            sh = b[p] & np.where(w32, np.uint64(31), np.uint64(63))
            left = a[p] << sh
            srl = np.where(w32, a[p] & c["m32"], a[p]) >> sh
            sra_src = np.where(w32, sx32(a[p]), a[p]).astype(np.int64)
            sra = (sra_src >> sh.astype(np.int64)).astype(np.uint64)
            sub = (f >> F_SUB_SHIFT) & 3
            v = np.where(sub == 0, left, np.where(sub == 1, srl, sra))
            v = np.where(w32, sx32(v), v)
            gp = gof(p)
            r_val[gp] = v
            r_hasrd[gp] = True
        if cnt[K_LUIPC]:
            p = grp(K_LUIPC)
            v = np.where((flags[p] & F_X) != 0, pcs_it[p] + imm[p], imm[p])
            gp = gof(p)
            r_val[gp] = v
            r_hasrd[gp] = True
        if cnt[K_JAL]:
            p = grp(K_JAL)
            is_jalr = (flags[p] & F_X) != 0
            tgt = np.where(is_jalr, (a[p] + imm[p]) & c["not1"], pcs_it[p] + imm[p])
            mis = (tgt & c["u3"]) != c["u0"]
            gp = gof(p)
            if mis.any():
                r_cause[gp[mis]] = spec.EXC_INSTR_MISALIGNED
                r_tval[gp[mis]] = tgt[mis]
                any_trap = True
                ok = ~mis
                go = gp[ok]
                r_npc[go] = tgt[ok]
                r_val[go] = pcs_it[p][ok] + c["u4"]
                r_hasrd[go] = True
            else:
                r_npc[gp] = tgt
                r_val[gp] = pcs_it[p] + c["u4"]
                r_hasrd[gp] = True
        if cnt[K_BR]:
            p = grp(K_BR)
            cc = (flags[p] >> F_CC_SHIFT) & 7
            eq = a[p] == b[p]
            lt = a[p].astype(np.int64) < b[p].astype(np.int64)
            ltu = a[p] < b[p]
            # cc is {eq,ne,lt,ge,ltu,geu}: pick the base compare by cc >> 1,
            # low bit flips the sense — same table np.choose walked, cheaper.
            taken = (np.where(cc < 2, eq, np.where(cc < 4, lt, ltu))
                     ^ ((cc & 1) != 0))
            tgt = pcs_it[p] + imm[p]
            mis = taken & ((tgt & c["u3"]) != c["u0"])
            gp = gof(p)
            if mis.any():
                r_cause[gp[mis]] = spec.EXC_INSTR_MISALIGNED
                r_tval[gp[mis]] = tgt[mis]
                any_trap = True
                go = taken & ~mis
            else:
                go = taken
            r_npc[gp[go]] = tgt[go]
        if cnt[K_LOAD]:
            any_mem = True
            if self._mem_kernel(grp(K_LOAD), gof, lanes_it, flags, a, breg,
                                imm, K_LOAD, r_cause, r_tval, r_hasrd, r_val,
                                r_memk, r_mema, r_mems, r_memd):
                any_trap = True
        if cnt[K_STORE]:
            any_mem = True
            if self._mem_kernel(grp(K_STORE), gof, lanes_it, flags, a, breg,
                                imm, K_STORE, r_cause, r_tval, r_hasrd, r_val,
                                r_memk, r_mema, r_mems, r_memd):
                any_trap = True
        if cnt[K_AMO]:
            p = grp(K_AMO)
            f = flags[p]
            wl = (f >> F_SUB_SHIFT) & 3
            wsz = np.where(wl == 2, np.uint64(4), np.uint64(8))
            addr = a[p]
            is_st = (f & F_X) != 0
            mis = (addr & (wsz - c["u1"])) != c["u0"]
            off = addr - c["dram"]
            unmap = off > (c["dsize"] - wsz)
            bad = mis | unmap
            cause = np.where(
                mis,
                np.where(is_st, spec.EXC_STORE_MISALIGNED, spec.EXC_LOAD_MISALIGNED),
                np.where(is_st, spec.EXC_STORE_ACCESS_FAULT, spec.EXC_LOAD_ACCESS_FAULT),
            )
            gp = gof(p)
            if bad.any():
                r_cause[gp[bad]] = cause[bad]
                r_tval[gp[bad]] = addr[bad]
                any_trap = True
            ok = gp[~bad]
            if ok.size:
                r_peel[ok] = True  # mapped atomics run scalar
                any_peel = True
        if cnt[K_CSR]:
            any_csr = True
            if self._csr_kernel(grp(K_CSR), gof, lanes_it, flags, rd, rs1, a,
                                imm, word, r_cause, r_tval, r_hasrd, r_val,
                                r_csra, r_csrv):
                any_trap = True
        if cnt[K_MUL]:
            p = grp(K_MUL)
            v = a[p] * b[p]
            v = np.where((flags[p] & F_W32) != 0, sx32(v), v)
            gp = gof(p)
            r_val[gp] = v
            r_hasrd[gp] = True
        if cnt[K_MULH]:
            p = grp(K_MULH)
            aa, bb = a[p], b[p]
            al = aa & c["m32"]
            ah = aa >> np.uint64(32)
            bl = bb & c["m32"]
            bh = bb >> np.uint64(32)
            ll = al * bl
            lh = al * bh
            hl = ah * bl
            mid = (ll >> np.uint64(32)) + (lh & c["m32"]) + (hl & c["m32"])
            hu = ah * bh + (lh >> np.uint64(32)) + (hl >> np.uint64(32)) + (mid >> np.uint64(32))
            sub = (flags[p] >> F_SUB_SHIFT) & 3
            a_neg = aa.astype(np.int64) < 0
            b_neg = bb.astype(np.int64) < 0
            v = hu - np.where(a_neg & (sub <= 1), bb, c["u0"])
            v = v - np.where(b_neg & (sub == 0), aa, c["u0"])
            gp = gof(p)
            r_val[gp] = v
            r_hasrd[gp] = True
        if cnt[K_DIV]:
            p = grp(K_DIV)
            f = flags[p]
            w32 = (f & F_W32) != 0
            rem = ((f >> F_SUB_SHIFT) & 3) != 0
            sgn = (f & F_X) != 0
            ua = np.where(w32, a[p] & c["m32"], a[p])
            ub = np.where(w32, b[p] & c["m32"], b[p])
            sa = np.where(w32, sx32(a[p]), a[p]).astype(np.int64)
            sb = np.where(w32, sx32(b[p]), b[p]).astype(np.int64)
            # signed: truncating division via floor + adjust
            ovf_min = np.where(w32, np.int64(-(1 << 31)), np.int64(-(1 << 63)))
            bz_s = sb == 0
            ovf = (sa == ovf_min) & (sb == -1)
            bsafe = np.where(bz_s | ovf, np.int64(1), sb)
            q = sa // bsafe
            r = sa - q * bsafe
            adj = (r != 0) & ((sa < 0) != (bsafe < 0))
            qt = q + adj
            rt = sa - qt * bsafe
            q_s = np.where(bz_s, np.int64(-1), np.where(ovf, sa, qt)).astype(np.uint64)
            r_s = np.where(bz_s, sa, np.where(ovf, np.int64(0), rt)).astype(np.uint64)
            # unsigned
            bz_u = ub == 0
            ubs = np.where(bz_u, c["u1"], ub)
            qu = ua // ubs
            q_u = np.where(bz_u, c["mask"], qu)
            r_u = np.where(bz_u, ua, ua - qu * ubs)
            v = np.where(sgn, np.where(rem, r_s, q_s), np.where(rem, r_u, q_u))
            v = np.where(w32, sx32(v), v)
            gp = gof(p)
            r_val[gp] = v
            r_hasrd[gp] = True
        if cnt[K_WFI]:
            r_halt[gof(grp(K_WFI))] = True
            any_halt = True
        if cnt[K_ECALL]:
            p = grp(K_ECALL)
            gp = gof(p)
            r_cause[gp] = np.where(
                self.priv[lanes_it[p]] == spec.PRV_M,
                spec.EXC_ECALL_FROM_M, spec.EXC_ECALL_FROM_U,
            )
            any_trap = True
        if cnt[K_EBREAK]:
            p = grp(K_EBREAK)
            gp = gof(p)
            r_cause[gp] = spec.EXC_BREAKPOINT
            r_tval[gp] = pcs_it[p]
            any_trap = True
        if cnt[K_MRET]:
            p = grp(K_MRET)
            gp = gof(p)
            lanes_p = lanes_it[p]
            bad = self.priv[lanes_p] != spec.PRV_M
            if bad.any():
                r_cause[gp[bad]] = spec.EXC_ILLEGAL_INSTRUCTION
                r_tval[gp[bad]] = word[p][bad]
                any_trap = True
            ok = ~bad
            lq = lanes_p[ok]
            if lq.size:
                ms = self.csrv[spec.CSR_MSTATUS][lq]
                new_priv = (ms >> np.uint64(MSTATUS_MPP_SHIFT)) & c["u3"]
                r_npc[gp[ok]] = self.csrv[spec.CSR_MEPC][lq]
                keep = np.uint64(
                    spec.WORD_MASK & ~(MSTATUS_MIE | MSTATUS_MPIE | MSTATUS_MPP_MASK)
                )
                msn = ms & keep
                msn |= np.where((ms & np.uint64(MSTATUS_MPIE)) != 0,
                                np.uint64(MSTATUS_MIE), c["u0"])
                msn |= np.uint64(MSTATUS_MPIE)
                self.csrv[spec.CSR_MSTATUS][lq] = msn
                self.priv[lq] = new_priv.astype(np.int64)
                if (new_priv != np.uint64(spec.PRV_M)).any():
                    self.all_m = False
        # K_FENCE retires with defaults (npc = pc+4, no effects).
        return any_trap, any_peel, any_halt, any_mem, any_csr

    def _mem_kernel(self, p, gof, lanes_it, flags, a, breg, imm,
                    which, r_cause, r_tval, r_hasrd, r_val,
                    r_memk, r_mema, r_mems, r_memd) -> bool:
        np = _np
        c = self.c
        is_store = which == K_STORE
        f = flags[p]
        wl = (f >> F_SUB_SHIFT) & 3
        wsz = c["u1"] << wl.astype(np.uint64)
        addr = a[p] + imm[p]
        mis = (addr & (wsz - c["u1"])) != c["u0"]
        off = addr - c["dram"]
        unmap = off > (c["dsize"] - wsz)
        bad = mis | unmap
        gp = gof(p)
        trapped = bool(bad.any())
        if trapped:
            if is_store:
                cause = np.where(mis, spec.EXC_STORE_MISALIGNED,
                                 spec.EXC_STORE_ACCESS_FAULT)
            else:
                cause = np.where(mis, spec.EXC_LOAD_MISALIGNED,
                                 spec.EXC_LOAD_ACCESS_FAULT)
            r_cause[gp[bad]] = cause[bad]
            r_tval[gp[bad]] = addr[bad]
        ok = ~bad
        views = (self.arena, self.arena16, self.arena32, self.arena64)
        for w in range(4):
            q = _nz1(ok & (wl == w))
            if not q.size:
                continue
            lanes_q = lanes_it[p][q]
            gq = gp[q]
            addr_q = addr[q]
            iq = ((addr_q - c["dram"]) >> np.uint64(w)).astype(np.int64)
            if is_store:
                mask_w = np.uint64(spec.WORD_MASK if w == 3 else (1 << (8 << w)) - 1)
                sv = breg[p][q] & mask_w
                views[w][lanes_q, iq] = sv
                match = self.res_valid[lanes_q] & (self.res_addr[lanes_q] == addr_q)
                self.res_valid[lanes_q[match]] = False
                size = 1 << w
                hlo, hhi = self.handler_span
                touch_h = (addr_q < np.uint64(hhi)) & (addr_q + np.uint64(size) > np.uint64(hlo))
                self.handler_ok[lanes_q[touch_h]] = False
                tlo, thi = self.base, self.base + 4 * self.lmax
                touch_t = (addr_q < np.uint64(thi)) & (addr_q + np.uint64(size) > np.uint64(tlo))
                for j in np.flatnonzero(touch_t).tolist():
                    # Rare self-modifying store into the code window:
                    # refresh the affected dispatch-table slots.
                    self.note_write(int(lanes_q[j]), int(addr_q[j]), size)
                r_memk[gq] = 2
                r_memd[gq] = sv
            else:
                raw = views[w][lanes_q, iq].astype(np.uint64)
                if w == 3:
                    v = raw
                else:
                    sbit = np.uint64(1 << ((8 << w) - 1))
                    signed = (f[q] & F_X) != 0
                    v = np.where(signed, (raw ^ sbit) - sbit, raw)
                r_val[gq] = v
                r_hasrd[gq] = True
                r_memk[gq] = 1
                r_memd[gq] = v
            r_mema[gq] = addr_q
            r_mems[gq] = 1 << w
        return trapped

    def _csr_kernel(self, p, gof, lanes_it, flags, rd, rs1, a, imm, word,
                    r_cause, r_tval, r_hasrd, r_val, r_csra, r_csrv) -> bool:
        np = _np
        c = self.c
        f = flags[p]
        caddr = imm[p].astype(np.int64)
        lanes_p = lanes_it[p]
        pl = self.priv[lanes_p]
        impl = _csr_tables()[0][caddr]
        minpriv = _csr_tables()[1][caddr]
        ro = _csr_tables()[2][caddr]
        opk = (f >> F_SUB_SHIFT) & 3
        operand = np.where((f & F_IMM) != 0, rs1[p].astype(np.uint64), a[p])
        will = ~((opk != 0) & (rs1[p] == 0))
        counter = (caddr >= spec.CSR_CYCLE) & (caddr <= spec.CSR_INSTRET)
        gate = counter & (pl < spec.PRV_M) & (
            (self.csrv[spec.CSR_MCOUNTEREN][lanes_p] & c["u1"]) == c["u0"]
        )
        bad = ~impl | (pl < minpriv) | gate | (will & ro)
        gp = gof(p)
        trapped = bool(bad.any())
        if trapped:
            r_cause[gp[bad]] = spec.EXC_ILLEGAL_INSTRUCTION
            r_tval[gp[bad]] = word[p][bad]
        fine = ~bad
        if not fine.any():
            return trapped
        for A in np.unique(caddr[fine]).tolist():
            q = _nz1(fine & (caddr == A))
            lq = lanes_p[q]
            gq = gp[q]
            src = A
            if A in (spec.CSR_CYCLE, spec.CSR_TIME):
                src = spec.CSR_MCYCLE
            elif A == spec.CSR_INSTRET:
                src = spec.CSR_MINSTRET
            old = self.csrv[src][lq]
            if src in (spec.CSR_MCYCLE, spec.CSR_MINSTRET):
                # Counters are stored as offsets from ``steps``.
                old = old + self.steps[lq].astype(np.uint64)
            r_val[gq] = old
            r_hasrd[gq] = True
            wq = _nz1(will[q])
            if not wq.size:
                continue
            op_w = opk[q][wq]
            opd = operand[q][wq]
            old_w = old[wq]
            wv = np.where(op_w == 0, opd,
                          np.where(op_w == 1, old_w | opd, old_w & ~opd))
            if A == spec.CSR_MSTATUS:
                wv = wv & np.uint64(MSTATUS_WRITE_MASK)
                mpp = (wv >> np.uint64(MSTATUS_MPP_SHIFT)) & c["u3"]
                fix = (mpp != np.uint64(spec.PRV_U)) & (mpp != np.uint64(spec.PRV_M))
                forced = (wv & np.uint64(spec.WORD_MASK & ~MSTATUS_MPP_MASK)) | np.uint64(
                    spec.PRV_M << MSTATUS_MPP_SHIFT
                )
                wv = np.where(fix, forced, wv)
            elif A == spec.CSR_MTVEC:
                wv = wv & np.uint64(spec.WORD_MASK & ~0b11)
            elif A == spec.CSR_MEPC:
                wv = wv & c["not1"]
            lw = lq[wq]
            if A in (spec.CSR_MCYCLE, spec.CSR_MINSTRET):
                self.csrv[A][lw] = wv - self.steps[lw].astype(np.uint64)
                r_csra[gq[wq]] = A
                r_csrv[gq[wq]] = wv
                continue
            if A != spec.CSR_MISA:  # misa writes are WARL-ignored
                self.csrv[A][lw] = wv
                if A == spec.CSR_MTVEC:
                    self.mtvec_ok[lw] = wv == np.uint64(spec.TRAP_VECTOR)
            r_csra[gq[wq]] = A
            r_csrv[gq[wq]] = self.csrv[A][lw]
        return trapped

    # -- trace materialisation ----------------------------------------------

    def _materialize(self, lane: int) -> CommitTrace:
        n = int(self.counts[lane])
        ov = self.overrides[lane]
        ncol = min(n, self.cap)
        rows = zip(
            self.c_pc[lane, :ncol].tolist(),
            self.c_word[lane, :ncol].tolist(),
            self.c_priv[lane, :ncol].tolist(),
            self.c_rd[lane, :ncol].tolist(),
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
        entries = [
            TraceEntry(pc_, w_, pr_, rd_ if rd_ else None, v_,
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
        return CommitTrace(entries=entries, stop_reason=reason, instret=n)


@lru_cache(maxsize=1)
def _csr_tables():
    """(implemented, min-privilege, read-only) lookup tables over the
    12-bit CSR address space, mirroring ``CSRFile._check_access``."""
    np = _np
    ok = np.zeros(4096, dtype=bool)
    for addr in spec.IMPLEMENTED_CSRS:
        ok[addr] = True
    addrs = np.arange(4096, dtype=np.int64)
    minpriv = (addrs >> 8) & 0b11
    ro = ((addrs >> 10) & 0b11) == 0b11
    return ok, minpriv, ro
