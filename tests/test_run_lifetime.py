"""A finished simulation frees its state without the cyclic GC.

A run's memory (a private :class:`SparseMemory`, or a lane group's 16 MiB
arena) must die with the run's last reference.  State kept alive by a
reference cycle lingers until the collector runs, so a batch of runs
holds many memories and arenas at once: that was most of the peak RSS of
a lane-engine workload.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.golden import batch as golden_batch
from repro.golden.batch import GoldenBatchSimulator
from repro.golden.memory import SparseMemory
from repro.golden.simulator import GoldenSimulator
from repro.isa.assembler import Assembler
from repro.soc.batch import DutBatchSimulator
from repro.soc.harness import build_program

# Misaligned and unmapped loads and stores, an illegal word, ecall and a
# CSR write: every data-address trap path, and work the lanes peel.
TRAPS = """
    ld t0, 1(gp)
    lw t0, 0(x0)
    sd t0, 3(gp)
    sw t0, 0(x0)
    .word 0xFFFFFFFF
    csrw mscratch, t0
    ecall
    lr.w t1, (gp)
    addi a0, a0, 1
"""


@pytest.fixture
def tracked(monkeypatch):
    """Weak references to every memory and lane group built, with the
    cyclic GC off until the test ends."""
    refs: dict[str, list[weakref.ref]] = {"memory": [], "group": []}

    def tracking(cls, kind):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            refs[kind].append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", __init__)

    tracking(SparseMemory, "memory")
    tracking(golden_batch._LaneGroup, "group")
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


def _alive(refs) -> int:
    return sum(ref() is not None for ref in refs)


def _programs(n: int) -> list[list[int]]:
    body = Assembler().assemble(TRAPS)
    return [build_program(body[i % len(body):] + body) for i in range(n)]


def test_golden_run_is_freed(tracked):
    trace = GoldenSimulator().run(_programs(1)[0])
    assert sum(e.trapped for e in trace) >= 5
    assert len(tracked["memory"]) == 1
    assert _alive(tracked["memory"]) == 0


@pytest.mark.parametrize("engine", [GoldenBatchSimulator, DutBatchSimulator])
def test_lane_group_is_freed(tracked, engine):
    results = engine(lanes=8).run_batch(_programs(8))
    assert len(results) == 8
    # The group ran and peeled lanes to the scalar step through
    # _LaneMemory views of its arena.
    assert len(tracked["group"]) == 1
    assert len(tracked["memory"]) >= 1
    assert _alive(tracked["group"]) == 0
    assert _alive(tracked["memory"]) == 0
