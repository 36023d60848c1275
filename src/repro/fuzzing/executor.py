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


def _as_factory(harness_or_factory):
    """Normalise to a zero-arg callable returning a harness.

    Accepts either an already-built harness object (wrapped in a trivial
    closure — fine for in-process executors, rejected by process-pool ones)
    or a zero-arg factory such as
    :class:`~repro.soc.harness.HarnessFactory`.
    """
    if harness_or_factory is None:
        raise TypeError("executor needs a harness or harness factory")
    if callable(harness_or_factory):
        return harness_or_factory
    return lambda: harness_or_factory


class HarnessExecutor:
    """Base class / protocol for harness execution strategies.

    An executor is bound to a harness factory (at construction or later via
    :meth:`bind`, which is what ``FuzzLoop`` uses when it receives both a
    factory and an unbound executor), runs batches with :meth:`run_batch`,
    and releases any held resources on :meth:`close`.  Executors are context
    managers; ``close`` is idempotent.
    """

    #: Telemetry sink (:mod:`repro.obs.events`): executors report pool
    #: health events (e.g. ``pool_rebuilt`` after worker death) to it.
    #: Assign a live sink directly; the default no-op sink keeps the
    #: unobserved hot path free of telemetry work.
    sink: EventSink = NULL_SINK

    def __init__(self, harness_or_factory=None) -> None:
        self._factory = (
            _as_factory(harness_or_factory)
            if harness_or_factory is not None else None
        )

    # -- binding ---------------------------------------------------------------

    @property
    def bound(self) -> bool:
        return self._factory is not None

    def bind(self, harness_or_factory) -> "HarnessExecutor":
        """Attach the harness source; a no-op when already bound."""
        if self._factory is None:
            self._factory = _as_factory(harness_or_factory)
        return self

    def _require_factory(self):
        if self._factory is None:
            raise RuntimeError(
                f"{type(self).__name__} is not bound to a harness factory; "
                "pass one at construction or via bind()"
            )
        return self._factory

    # -- interface -------------------------------------------------------------

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
    """Current behaviour: one harness, tests simulated in order, in-process."""

    def __init__(self, harness_or_factory=None) -> None:
        super().__init__(harness_or_factory)
        self._harness = None

    @property
    def harness(self):
        """The lazily-built process-local harness."""
        if self._harness is None:
            self._harness = self._require_factory()()
        return self._harness

    @property
    def total_arms(self) -> int:
        return self.harness.total_arms

    def run_batch(self, bodies: list[list[int]]) -> list[DifferentialResult]:
        harness = self.harness
        # Whole-batch routing lets the batched engines (DutHarness with
        # golden_lanes > 0 and/or dut_lanes > 0) run every golden trace —
        # and every DUT trace+report — in one vectorised call; harnesses
        # without the batch method (test stubs) run per body.
        batched = getattr(harness, "run_differential_batch", None)
        if batched is not None:
            return [DifferentialResult(*r) for r in batched(bodies)]
        return [DifferentialResult(*harness.run_differential(body))
                for body in bodies]
