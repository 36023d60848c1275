"""The golden-model ISS: program loading, trap handling, commit tracing.

Mirrors how Spike is used in the paper's fuzzing loop: load a test program,
run it to completion, emit a commit log.  A small machine-code trap handler
(the same image the SoC harness installs) skips over faulting instructions so
that a single bad instruction does not end the test — the behaviour hardware
fuzzers rely on to keep exploring past exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=1)
def _handler_image_cached() -> tuple[int, ...]:
    """Encoded trap-handler stub — fixed, so encoded once per process."""
    return (
        encode("csrrw", rd=31, csr=CSR_MSCRATCH, rs1=31),
        encode("csrrs", rd=31, csr=CSR_MEPC, rs1=0),
        encode("addi", rd=31, rs1=31, imm=4),
        encode("csrrw", rd=0, csr=CSR_MEPC, rs1=31),
        encode("csrrw", rd=31, csr=CSR_MSCRATCH, rs1=31),
        encode("mret"),
    )


def trap_handler_image() -> list[int]:
    """The trap-handler stub installed at ``TRAP_VECTOR``.

    Advances ``mepc`` past the faulting instruction and returns, preserving
    all registers via ``mscratch``:

    .. code-block:: asm

        csrrw x31, mscratch, x31   # save x31
        csrrs x31, mepc, x0        # x31 = mepc
        addi  x31, x31, 4
        csrrw x0,  mepc, x31       # mepc += 4
        csrrw x31, mscratch, x31   # restore x31
        mret
    """
    return list(_handler_image_cached())


def step_instruction(
    state: ArchState,
    memory: SparseMemory,
    config: "SimConfig",
    handler_lo: int,
    handler_hi: int,
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
        entry = TraceEntry(pc, word, state.priv, None, 0, None, trap.cause,
                           trap.tval)
        state.reservation = None
        handler_pc = state.csr.enter_trap(trap.cause, pc, trap.tval, state.priv)
        state.priv = PRV_M
        state.pc = handler_pc
        state.csr.tick()
        if traps_taken >= config.max_traps:
            return entry, traps_taken, "max_traps"
        return entry, traps_taken, None

    entry = None
    if config.trace_handler or not handler_lo <= pc < handler_hi:
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


@dataclass
class SimConfig:
    """Execution limits and trace policy for one simulation run."""

    max_steps: int = 4096
    #: Include instructions executed inside the trap handler in the trace.
    trace_handler: bool = False
    #: Abort if this many traps occur (runaway trap loops — e.g. a wild jump
    #: into unmapped space faults on every subsequent fetch).
    max_traps: int = 64


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
        """Execute ``program`` (a list of 32-bit words) and return its trace."""
        memory = SparseMemory()
        memory.load_program(program, base)
        memory.load_program(trap_handler_image(), TRAP_VECTOR)
        state = ArchState(pc=base)
        return self._run_loop(state, memory)

    def _run_loop(self, state: ArchState, memory: SparseMemory) -> CommitTrace:
        trace = CommitTrace()
        handler_lo = TRAP_VECTOR
        handler_hi = TRAP_VECTOR + 4 * len(trap_handler_image())
        traps_taken = 0

        config = self.config
        append = trace.entries.append
        for _ in range(config.max_steps):
            entry, traps_taken, stop = step_instruction(
                state, memory, config, handler_lo, handler_hi, traps_taken
            )
            if entry is not None:
                append(entry)
            if stop is not None:
                trace.stop_reason = stop
                break
        else:
            trace.stop_reason = "max_steps"
        trace.instret = len(trace.entries)
        return trace
