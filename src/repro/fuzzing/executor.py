"""Harness executors: how a batch of test bodies gets simulated.

The differential step of the fuzzing loop — run each body on the DUT and on
the golden ISS, collect (dut trace, golden trace, coverage report) — is
embarrassingly parallel: tests in a batch are independent and a
:class:`~repro.soc.harness.DutHarness` run is a pure function of the body
(``RocketCore.run`` resets all microarchitectural state up front).  This
module defines the execution strategy as an injectable component so the
same :class:`~repro.fuzzing.chatfuzz.FuzzLoop` can simulate serially (the
default) or shard a batch across a process pool
(:class:`~repro.fuzzing.pool.ShardedExecutor`).

Whatever the strategy, :meth:`HarnessExecutor.run_batch` returns results in
**submission order**, so the coverage calculator, mismatch detector, sim
clock and generator feedback all see byte-identical streams to the serial
path — pinned by the parity tests in ``tests/fuzzing/test_executor.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.golden.trace import CommitTrace
from repro.obs.events import NULL_SINK, EventSink
from repro.rtl.report import CoverageReport


@dataclass(frozen=True)
class DifferentialResult:
    """Everything one differential simulation of a test body produced.

    The coverage report's hits travel as a packed
    :class:`~repro.rtl.bitset.Bitset` (``total_arms / 8`` bytes on the
    wire), so shipping a chunk of results back from a worker process costs
    an order of magnitude less IPC than the per-arm pickled frozensets it
    replaced — see ``tests/fuzzing/test_report_pickle.py``.
    """

    dut_trace: CommitTrace
    golden_trace: CommitTrace
    report: CoverageReport


def run_chunk(harness, bodies: list[list[int]]) -> list[DifferentialResult]:
    """Differentially simulate ``bodies`` on one harness, in order.

    The whole chunk goes through ``run_differential_batch`` so the batched
    engines (a :class:`~repro.soc.harness.DutHarness` with
    ``golden_lanes > 0`` and/or ``dut_lanes > 0``) run it as one vectorised
    call; harnesses without the batch method (test stubs) run per body.
    """
    batched = getattr(harness, "run_differential_batch", None)
    if batched is not None:
        return [DifferentialResult(*r) for r in batched(bodies)]
    return [DifferentialResult(*harness.run_differential(body))
            for body in bodies]


class HarnessExecutor:
    """Base class / protocol for harness execution strategies.

    An executor receives its harness (or a factory for one) when it is
    built, runs batches with :meth:`run_batch`, and releases any held
    resources on :meth:`close`.  Executors are context managers; ``close``
    is idempotent.
    """

    #: Telemetry sink (:mod:`repro.obs.events`): executors report pool
    #: health events (e.g. ``pool_rebuilt`` after worker death) to it.
    #: Assign a live sink directly; the default no-op sink keeps the
    #: unobserved hot path free of telemetry work.
    sink: EventSink = NULL_SINK

    @property
    def total_arms(self) -> int:
        """Static size of the DUT's condition-coverage universe."""
        raise NotImplementedError

    def run_batch(self, bodies: list[list[int]]) -> list[DifferentialResult]:
        """Differentially simulate every body; results in submission order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release executor resources (idempotent)."""

    def __enter__(self) -> "HarnessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(HarnessExecutor):
    """One harness, tests simulated in order, in-process.

    Takes a live harness or a zero-arg factory such as
    :class:`~repro.soc.harness.HarnessFactory`, which is called once here.
    """

    def __init__(self, harness_or_factory) -> None:
        #: The process-local harness.
        self.harness = (harness_or_factory() if callable(harness_or_factory)
                        else harness_or_factory)

    @property
    def total_arms(self) -> int:
        return self.harness.total_arms

    def run_batch(self, bodies: list[list[int]]) -> list[DifferentialResult]:
        return run_chunk(self.harness, bodies)
