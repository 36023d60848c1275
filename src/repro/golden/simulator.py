"""The golden-model ISS: program loading, trap handling, commit tracing.

Mirrors how Spike is used in the paper's fuzzing loop: load a test program,
run it to completion, emit a commit log.  A small machine-code trap handler
(the same image the SoC harness installs) skips over faulting instructions so
that a single bad instruction does not end the test — the behaviour hardware
fuzzers rely on to keep exploring past exceptions.

Steady-loop replay
------------------
Many generated bodies settle into a loop whose whole state repeats and then
spin until ``max_steps``.  :meth:`GoldenSimulator.run` and ``RocketCore.run``
append the rest of such a run instead of interpreting it, and one driver
holds the rule for both: :class:`SteadyReplay`.  Each engine keeps its own
step loop and calls :meth:`SteadyReplay.at_head` at each loop head, that is
after each backward control transfer outside the trap handler.  There:

- a trap since the last loop head ends the check, since no period ending
  here can be replayed;
- the state is looked up by its key ``(pc, priv, reservation,
  registers)`` in a table of up to :data:`HEADS_CAP` keys, which starts
  over when it fills (a counting loop brings no key back);
- a period ``P`` is *steady* when the key came back twice with period
  ``P``, every step of both periods is traced, the two periods hold
  identical trace entries, and no instruction in them traps, touches a
  CSR, is a system instruction, an AMO/LR/SC or a fence.  A key whose
  periods repeat but hold such an instruction is not checked again;
- an engine with microarchitectural state passes a function that returns
  it (Rocket passes ``RocketCore._steady_state``).  A steady period then
  replays only when that state equals what it was one period earlier at
  the same key.  Once more than :data:`SETTLE_MISSES` steady periods
  found it different, the run stops looking;
- to replay, the driver appends the period's entries once per whole
  period left before ``max_steps`` and advances ``mcycle`` and
  ``minstret`` by the skipped steps.  It returns the skipped steps and
  the engine's clock ticks they took (the passes times the clock's
  advance over the last period); the engine advances its own clock-side
  state and steps the tail.

Why this is exact: the registers, pc, privilege and reservation at the two
loop heads are equal by the key.  Memory is equal too: the first period
left every byte it stored holding its last stored value, and the second
period stored the same bytes in the same order, so it changed nothing.  No
instruction in the period reads or writes a CSR or traps, so the CSRs
differ at most in the two counters, which nothing in the period reads.  A
deterministic machine started twice from the same state runs the same
period again, so its trace, stop reason and ``instret`` equal stepping's;
an engine's microarchitectural state, equal too, makes every later period
the same cycle by cycle.  :func:`step_instruction` takes every step the
run interprets, and the lane engine peels to it.

The trap contract
-----------------
This module is the one home of how every engine takes a trap.  It holds
the handler stub as data (:data:`TRAP_HANDLER`) with its end address
(:data:`HANDLER_END`), :func:`load_image` (a test program plus the
handler), :func:`take_trap` (enter the handler and return the trap's
trace entry) and the run limits every engine defaults to
(:data:`MAX_STEPS`, :data:`MAX_TRAPS`).  :func:`step_instruction`,
``RocketCore`` and ``BoomCore`` call them; each still checks its own
``max_traps`` budget.  The lane engines take the image and its end from
here and apply the handler's closed form themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.golden.exceptions import Trap
from repro.golden.executor import execute
from repro.golden.memory import SparseMemory
from repro.golden.state import ArchState
from repro.golden.trace import CommitTrace, TraceEntry
from repro.isa.decoder import decode
from repro.isa.encoder import encode
from repro.isa.spec import (
    CSR_MCYCLE,
    CSR_MEPC,
    CSR_MINSTRET,
    CSR_MSCRATCH,
    DRAM_BASE,
    EXC_ILLEGAL_INSTRUCTION,
    PRV_M,
    TRAP_VECTOR,
    WORD_MASK,
)


#: Default run limits of every engine: :class:`SimConfig`, ``RocketParams``
#: and ``BoomParams``.
MAX_STEPS = 4096
MAX_TRAPS = 64

#: The trap-handler stub installed at ``TRAP_VECTOR``.  It advances
#: ``mepc`` past the faulting instruction and returns, preserving all
#: registers via ``mscratch``:
#:
#: .. code-block:: asm
#:
#:     csrrw x31, mscratch, x31   # save x31
#:     csrrs x31, mepc, x0        # x31 = mepc
#:     addi  x31, x31, 4
#:     csrrw x0,  mepc, x31       # mepc += 4
#:     csrrw x31, mscratch, x31   # restore x31
#:     mret
TRAP_HANDLER = (
    encode("csrrw", rd=31, csr=CSR_MSCRATCH, rs1=31),
    encode("csrrs", rd=31, csr=CSR_MEPC, rs1=0),
    encode("addi", rd=31, rs1=31, imm=4),
    encode("csrrw", rd=0, csr=CSR_MEPC, rs1=31),
    encode("csrrw", rd=31, csr=CSR_MSCRATCH, rs1=31),
    encode("mret"),
)

#: First address past the handler: steps at ``TRAP_VECTOR <= pc <
#: HANDLER_END`` run the handler and go untraced.
HANDLER_END = TRAP_VECTOR + 4 * len(TRAP_HANDLER)


def trap_handler_image() -> list[int]:
    """The trap-handler stub, :data:`TRAP_HANDLER`, as a fresh list."""
    return list(TRAP_HANDLER)


def load_image(program: list[int], base: int) -> SparseMemory:
    """A fresh memory holding ``program`` at ``base`` and the trap handler
    at ``TRAP_VECTOR``: the image every scalar engine runs."""
    memory = SparseMemory()
    memory.load_program(program, base)
    memory.load_program(TRAP_HANDLER, TRAP_VECTOR)
    return memory


def take_trap(state: ArchState, pc: int, word: int, cause: int, tval: int,
              priv: int) -> TraceEntry:
    """Take a synchronous trap raised at ``pc`` by instruction ``word``.

    Clears the reservation, records the trap in the CSRs (``mepc``,
    ``mcause``, ``mtval``, the ``mstatus`` stack), enters the handler in
    M-mode and counts the trap as one cycle and one instruction.  Returns
    the trap's trace entry, which carries ``priv``, the privilege the
    instruction ran at.
    """
    state.reservation = None
    state.pc = state.csr.enter_trap(cause, pc, tval, priv)
    state.priv = PRV_M
    state.csr.tick()
    return TraceEntry(pc, word, priv, None, 0, None, cause, tval)


def step_instruction(
    state: ArchState,
    memory: SparseMemory,
    config: "SimConfig",
    traps_taken: int,
) -> tuple[TraceEntry | None, int, str | None]:
    """One iteration of the golden run loop: execute a single instruction or
    take a single trap, advancing ``state``/``memory`` in place.

    Returns ``(entry, traps_taken, stop_reason)`` where ``entry`` is the
    commit-trace entry to record (``None`` for untraced trap-handler steps),
    ``traps_taken`` is the updated trap count, and ``stop_reason`` is
    ``"max_traps"``/``"wfi"`` when the run must stop after this step (the
    caller owns the ``max_steps`` budget).

    This is the single source of truth for per-instruction semantics: the
    scalar :class:`GoldenSimulator` loop and the batched engine's lane peel
    (``repro.golden.batch``) both call it, so the hard cases (traps, CSRs,
    atomics, misaligned access) have exactly one implementation.

    A step is a direct fetch (:meth:`SparseMemory.fetch`), a memoized
    decode, one handler-table dispatch in :func:`execute`, one
    :class:`TraceEntry` tuple and an in-place advance of
    ``mcycle``/``minstret``.
    """
    pc = state.pc
    word = 0
    try:
        word = memory.fetch(pc)
        instr = decode(word)
        if instr is None:
            raise Trap(EXC_ILLEGAL_INSTRUCTION, tval=word)
        result = execute(state, memory, instr, pc)
    except Trap as trap:
        traps_taken += 1
        entry = take_trap(state, pc, word, trap.cause, trap.tval, state.priv)
        if traps_taken >= config.max_traps:
            return entry, traps_taken, "max_traps"
        return entry, traps_taken, None

    entry = None
    if not TRAP_VECTOR <= pc < HANDLER_END:
        rd = result.rd or None  # x0 write-backs are not traced
        entry = TraceEntry(pc, word, state.priv, rd,
                           result.rd_value if rd else 0, result.mem, None, 0,
                           result.csr_write)
    state.pc = result.next_pc & WORD_MASK
    counters = state.csr.values
    counters[CSR_MCYCLE] = (counters[CSR_MCYCLE] + 1) & WORD_MASK
    counters[CSR_MINSTRET] = (counters[CSR_MINSTRET] + 1) & WORD_MASK
    if result.halt:
        return entry, traps_taken, "wfi"
    return entry, traps_taken, None


#: Loop-head keys one run keeps.  A steady loop brings its few keys back
#: within a few periods; keys that fill the table come from a loop that is
#: not steady (a register counts every pass), so the table starts over.
HEADS_CAP = 256

#: Steady periods whose microarchitectural state may differ from one period
#: earlier before a run stops looking for steady loops; the next such
#: period stops it.
SETTLE_MISSES = 8


def _replayable(entry: TraceEntry) -> bool:
    """True when ``entry`` may be part of a replayed period: it did not
    trap, and its instruction is no CSR, system, AMO/LR/SC or fence."""
    if entry.trap_cause is not None:
        return False
    spec = decode(entry.instr).spec
    return not (spec.is_csr or spec.is_system or spec.is_amo
                or spec.is_fence)


class SteadyReplay:
    """The loop-head side of steady-loop replay for one run (see the
    module docstring).

    ``steady``, when given, returns the engine's microarchitectural state,
    which a steady period must find equal one period earlier.
    """

    __slots__ = ("max_steps", "steady", "heads", "traps", "misses")

    def __init__(self, max_steps: int, steady=None) -> None:
        self.max_steps = max_steps
        self.steady = steady
        #: key -> (step, trace length, period, (steady state, clock) when
        #: the period was steady but the state had not settled).  A period
        #: of None marks a key whose periods cannot be replayed.
        self.heads: dict = {}
        self.traps = 0  # trap count at the last loop head
        self.misses = 0

    def at_head(self, state: ArchState, steps: int, traps: int,
                entries: list[TraceEntry], clock: int = 0) -> tuple[int, int]:
        """Check the loop head a run reached after ``steps`` steps and
        ``traps`` traps, having traced ``entries``, with the engine's clock
        at ``clock``.  Replays the whole periods left when the period
        ending here is steady; returns ``(steps, clock ticks)`` replayed,
        ``(0, 0)`` when none.
        """
        if traps != self.traps or self.misses > SETTLE_MISSES:
            self.traps = traps
            return 0, 0
        key = (state.pc, state.priv, state.reservation, *state.regs)
        heads = self.heads
        n = len(entries)
        seen = heads.get(key)
        if seen is None:
            if len(heads) >= HEADS_CAP:
                heads.clear()
            heads[key] = (steps, n, 0, None)
            return 0, 0
        last_step, last_n, last_period, settled = seen
        if last_period is None:
            return 0, 0
        period = steps - last_step
        if n - last_n != period:
            period = 0  # a handler step went untraced
        elif period == last_period and (entries[n - 2 * period:n - period]
                                        == entries[n - period:]):
            if not all(map(_replayable, entries[n - period:])):
                heads[key] = (steps, n, None, None)
                return 0, 0
            if self.steady is not None:
                steady = self.steady()
                if settled is None or settled[0] != steady:
                    self.misses += 1
                    heads[key] = (steps, n, period, (steady, clock))
                    return 0, 0
                clock -= settled[1]
            passes = (self.max_steps - steps) // period
            skipped = passes * period
            entries.extend(entries[-period:] * passes)
            counters = state.csr.values
            for csr in (CSR_MCYCLE, CSR_MINSTRET):
                counters[csr] = (counters[csr] + skipped) & WORD_MASK
            return skipped, passes * clock
        heads[key] = (steps, n, period, None)
        return 0, 0


@dataclass
class SimConfig:
    """Execution limits for one simulation run."""

    max_steps: int = MAX_STEPS
    #: Abort if this many traps occur (runaway trap loops — e.g. a wild jump
    #: into unmapped space faults on every subsequent fetch).
    max_traps: int = MAX_TRAPS


class GoldenSimulator:
    """Single-hart RV64IMA_Zicsr ISS with commit tracing.

    >>> sim = GoldenSimulator()
    >>> trace = sim.run([0x00500513])   # addi a0, zero, 5
    >>> trace[0].rd_value
    5
    """

    def __init__(self, config: SimConfig | None = None) -> None:
        self.config = config or SimConfig()

    def run(self, program: list[int], base: int = DRAM_BASE) -> CommitTrace:
        """Execute ``program`` (a list of 32-bit words) and return its
        trace, replaying steady loops (see the module docstring)."""
        state = ArchState(pc=base)
        memory = load_image(program, base)
        trace = CommitTrace()
        traps_taken = 0

        config = self.config
        max_steps = config.max_steps
        step = step_instruction
        entries = trace.entries
        append = entries.append
        replay = SteadyReplay(max_steps)
        for steps in range(1, max_steps + 1):
            pc = state.pc
            entry, traps_taken, stop = step(state, memory, config, traps_taken)
            if entry is not None:
                append(entry)
            if stop is not None:
                trace.stop_reason = stop
                break
            # Loop heads follow backward transfers outside the handler.
            if state.pc > pc or TRAP_VECTOR <= pc < HANDLER_END:
                continue
            skipped = replay.at_head(state, steps, traps_taken, entries)[0]
            if skipped:
                # The tail repeats the period's first steps, which neither
                # stop the run nor go untraced.
                for _ in range(max_steps - steps - skipped):
                    append(step(state, memory, config, traps_taken)[0])
                trace.stop_reason = "max_steps"
                break
        else:
            trace.stop_reason = "max_steps"
        trace.instret = len(entries)
        return trace
