"""Edge-case coverage for small utilities across packages."""

import numpy as np

from repro.fuzzing.input import TestInput as FuzzInput
from repro.fuzzing.simclock import SimClock
from repro.golden.trace import CommitTrace, MemOp, TraceEntry
from repro.ml.tensor import Tensor
from repro.rtl.coverage import ConditionCoverage
from repro.soc.rocket.uncore import (
    DEBUG_CONDITIONS,
    IRQ_CONDITIONS,
    DebugUnit,
    InterruptController,
)


class TestFuzzInput:
    def test_provenance_fields(self):
        child = FuzzInput([2], source="mutation")
        assert child.source == "mutation"
        assert len(child) == 1
        assert list(child) == [2]


class TestSimClockCustom:
    def test_custom_cost_model(self):
        clock = SimClock(elab_seconds=100.0, per_test_seconds=2.0)
        clock.charge_tests(5)
        assert clock.seconds == 110.0
        assert clock.minutes == 110.0 / 60.0


class TestUncore:
    def test_debug_unit_declares_but_never_records(self):
        cov = ConditionCoverage()
        DebugUnit("dm", cov)
        cov.freeze()
        assert cov.total_arms == 2 * len(DEBUG_CONDITIONS)
        assert cov.run_hits == set()

    def test_irq_poll_hits_only_false_arms(self):
        cov = ConditionCoverage()
        irq = InterruptController("clint", cov)
        cov.freeze()
        cov.record_mask(irq._idle_mask)  # what a core records every cycle
        assert len(cov.run_hits) == len(IRQ_CONDITIONS)
        assert all(arm % 2 == 0 for arm in cov.run_hits)  # false arms only


class TestTraceRendering:
    def test_memop_str(self):
        assert str(MemOp(0x100, 8, True, 0x2A)) == "ST[0x100,8]=0x2a"
        assert str(MemOp(0x100, 4, False, 1)) == "LD[0x100,4]=0x1"

    def test_entry_summary_fields(self):
        entry = TraceEntry(pc=0x80000000, instr=0x13, priv=3, rd=5,
                           rd_value=7, csr_write=(0x300, 1))
        text = entry.summary()
        assert "x5<-0x7" in text
        assert "csr[0x300]<-0x1" in text

    def test_trap_entry_summary(self):
        entry = TraceEntry(pc=0, instr=0, priv=3, trap_cause=5, trap_tval=0x10)
        assert "trap=5" in entry.summary()
        assert entry.trapped

    def test_trace_render_limit(self):
        trace = CommitTrace()
        for i in range(10):
            trace.append(TraceEntry(pc=4 * i, instr=0x13, priv=3))
        text = trace.render(limit=3)
        assert "(7 more)" in text


class TestTensorOperatorEdges:
    def test_rsub_rdiv(self):
        t = Tensor.param(np.array([2.0], dtype=np.float32))
        assert float((10.0 - t).data[0]) == 8.0
        assert float((10.0 / t).data[0]) == 5.0

    def test_default_transpose_reverses(self):
        t = Tensor(np.zeros((2, 3, 4), dtype=np.float32))
        assert t.transpose().shape == (4, 3, 2)

    def test_zeros_constructor(self):
        t = Tensor.zeros(2, 3)
        assert t.shape == (2, 3)
        assert not t.requires_grad

    def test_repr(self):
        assert "shape=(2,)" in repr(Tensor(np.zeros(2, dtype=np.float32)))


class TestCommitTraceCounters:
    def test_append_counts_instret(self):
        trace = CommitTrace()
        trace.append(TraceEntry(pc=0, instr=0, priv=3, trap_cause=2))
        trace.append(TraceEntry(pc=4, instr=0x13, priv=3))
        assert trace.instret == 2
        assert trace[0].trapped
