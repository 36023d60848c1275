"""Golden simulator: whole-program runs, trap handling, tracing policy."""

from repro.golden.csr import MSTATUS_MIE, MSTATUS_MPIE, MSTATUS_MPP_SHIFT
from repro.golden.simulator import (
    HANDLER_END,
    GoldenSimulator,
    SimConfig,
    load_image,
    take_trap,
    trap_handler_image,
)
from repro.golden.state import ArchState
from repro.golden.trace import TraceEntry
from repro.isa.assembler import Assembler
from repro.isa.encoder import encode
from repro.isa.spec import (
    CSR_MCAUSE,
    CSR_MCYCLE,
    CSR_MEPC,
    CSR_MINSTRET,
    CSR_MSTATUS,
    CSR_MTVAL,
    CSR_MTVEC,
    DRAM_BASE,
    EXC_ECALL_FROM_M,
    EXC_ILLEGAL_INSTRUCTION,
    EXC_LOAD_MISALIGNED,
    PRV_M,
    PRV_U,
    TRAP_VECTOR,
)


def run(text, config=None):
    program = Assembler(base=DRAM_BASE).assemble(text)
    return GoldenSimulator(config).run(program)


class TestBasicRuns:
    def test_wfi_stops(self):
        trace = run("li a0, 1\nwfi")
        assert trace.stop_reason == "wfi"
        assert len(trace) == 2

    def test_max_steps_stops(self):
        trace = run("loop: j loop", SimConfig(max_steps=10))
        assert trace.stop_reason == "max_steps"

    def test_loop_executes_expected_iterations(self):
        trace = run("""
            li a0, 3
        loop:
            addi a0, a0, -1
            bnez a0, loop
            wfi
        """)
        # 1 li + 3*(addi+bnez) + wfi = 8 retired instructions.
        assert trace.instret == 8

    def test_trace_records_rd_writes(self):
        trace = run("li a0, 7\nwfi")
        assert trace[0].rd == 10
        assert trace[0].rd_value == 7

    def test_trace_never_records_x0_writes(self):
        """Finding3 contrast: the golden model suppresses x0 write records."""
        trace = run("addi x0, x0, 5\nj next\nnext: wfi")
        assert all(entry.rd != 0 for entry in trace if entry.rd is not None)

    def test_trace_records_memory_ops(self):
        trace = run("""
            auipc s0, 0x80
            sd a0, 0(s0)
            ld a1, 0(s0)
            wfi
        """)
        stores = [e for e in trace if e.mem is not None and e.mem.is_store]
        loads = [e for e in trace if e.mem is not None and not e.mem.is_store]
        assert len(stores) == 1
        assert len(loads) == 1


class TestTrapHandling:
    def test_trap_skips_faulting_instruction(self):
        """The stub handler advances mepc: execution continues after a trap."""
        trace = run("""
            li a0, 1
            ecall
            li a1, 2
            wfi
        """)
        assert trace.stop_reason == "wfi"
        causes = [e.trap_cause for e in trace if e.trapped]
        assert causes == [EXC_ECALL_FROM_M]
        writes = [(e.rd, e.rd_value) for e in trace if e.rd is not None]
        assert (11, 2) in writes  # the instruction after ecall still ran

    def test_illegal_instruction_trap(self):
        trace = run(".word 0x00000000\nwfi")
        assert trace[0].trap_cause == EXC_ILLEGAL_INSTRUCTION

    def test_handler_instructions_not_traced_by_default(self):
        trace = run("ecall\nwfi")
        assert len(trace) == 2  # the trap entry + wfi; handler is hidden

    def test_trap_preserves_registers(self):
        """The handler must not clobber any architectural register."""
        trace = run("""
            li a0, 111
            li t6, 222
            ecall
            add a1, a0, t6
            wfi
        """)
        writes = {e.rd: e.rd_value for e in trace if e.rd is not None}
        assert writes[11] == 333

    def test_max_traps_stops_runaway(self):
        # A wild jump into unmapped space faults on every fetch.
        trace = run("""
            lui t0, 1
            jr t0
        """, SimConfig(max_traps=8))
        assert trace.stop_reason == "max_traps"
        assert sum(e.trapped for e in trace) == 8

    def test_wild_jump_within_dram_hits_illegal_zeros(self):
        trace = run("j 0x400\nwfi", SimConfig(max_traps=4))
        assert sum(e.trapped for e in trace) == 4
        assert all(
            e.trap_cause == EXC_ILLEGAL_INSTRUCTION for e in trace if e.trapped
        )


class TestCounters:
    def test_instret_visible_to_program(self):
        trace = run("""
            csrr a0, instret
            csrr a1, instret
            wfi
        """)
        writes = {e.rd: e.rd_value for e in trace if e.rd is not None}
        assert writes[11] == writes[10] + 1


class TestHandlerImage:
    def test_is_six_instructions(self):
        assert len(trap_handler_image()) == 6

    def test_ends_with_mret(self):
        assert trap_handler_image()[-1] == encode("mret")


class TestTrapUnit:
    """``take_trap`` and ``load_image``: the trap contract every engine
    shares."""

    PC = DRAM_BASE + 0x40
    WORD = encode("ld", rd=5, rs1=6, imm=3)
    TVAL = DRAM_BASE + 0x1003

    def trapped_state(self) -> tuple[ArchState, TraceEntry]:
        """A U-mode hart with interrupts enabled, a live reservation, a
        retargeted mtvec and nonzero counters, after one misaligned-load
        trap."""
        state = ArchState(pc=self.PC)
        state.priv = PRV_U
        state.reservation = DRAM_BASE + 0x800
        values = state.csr.values
        values[CSR_MSTATUS] = MSTATUS_MIE
        values[CSR_MTVEC] = DRAM_BASE + 0x200
        values[CSR_MCYCLE] = 10
        values[CSR_MINSTRET] = 7
        entry = take_trap(state, self.PC, self.WORD, EXC_LOAD_MISALIGNED,
                          self.TVAL, state.priv)
        return state, entry

    def test_enters_the_mtvec_target_in_m_mode_without_a_reservation(self):
        state, _ = self.trapped_state()
        assert state.pc == DRAM_BASE + 0x200
        assert state.priv == PRV_M
        assert state.reservation is None

    def test_records_the_trap_in_the_csrs(self):
        state, _ = self.trapped_state()
        values = state.csr.values
        assert values[CSR_MEPC] == self.PC
        assert values[CSR_MCAUSE] == EXC_LOAD_MISALIGNED
        assert values[CSR_MTVAL] == self.TVAL
        # mstatus stack: MIE moves to MPIE, MPP holds the trapped privilege.
        assert values[CSR_MSTATUS] == (MSTATUS_MPIE
                                       | PRV_U << MSTATUS_MPP_SHIFT)
        assert values[CSR_MCYCLE] == 11
        assert values[CSR_MINSTRET] == 8

    def test_returns_the_trap_entry_with_the_pre_trap_privilege(self):
        _, entry = self.trapped_state()
        assert entry == TraceEntry(pc=self.PC, instr=self.WORD, priv=PRV_U,
                                   trap_cause=EXC_LOAD_MISALIGNED,
                                   trap_tval=self.TVAL)

    def test_load_image_holds_program_and_handler(self):
        program = [encode("addi", rd=5, rs1=0, imm=i) for i in range(1, 4)]
        base = DRAM_BASE + 0x100
        memory = load_image(program, base)
        assert [memory.fetch(base + 4 * i) for i in range(3)] == program
        handler = trap_handler_image()
        assert [memory.fetch(TRAP_VECTOR + 4 * i)
                for i in range(len(handler))] == handler
        assert HANDLER_END == TRAP_VECTOR + 4 * len(handler)
