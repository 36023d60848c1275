"""The fuzzing loop of Figure 1a.

Generic over the input generator, so the same loop drives ChatFuzz (the LLM
generator), TheHuzz, DifuzzRTL and random regression — only the generator
differs, which is exactly the paper's experimental control.

Per batch:

1. the generator produces test bodies;
2. each body runs on the DUT (trace + coverage report) and on the golden ISS
   (trace);
3. the Mismatch Detector diffs the traces;
4. the Coverage Calculator scores each input (stand-alone / incremental /
   total) and the scores are fed back to the generator via ``observe`` —
   mutation fuzzers use them for corpus selection; the LLM generator may use
   them for online PPO.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.coverage.calculator import CoverageCalculator, InputCoverage
from repro.coverage.scoring import CoverageScorer
from repro.fuzzing.executor import HarnessExecutor, SerialExecutor
from repro.fuzzing.input import TestInput
from repro.fuzzing.mismatch import MismatchDetector, counter_csr_filter
from repro.fuzzing.simclock import SimClock
from repro.obs.events import NULL_SINK, EventSink


@dataclass
class BatchOutcome:
    """Everything the loop learned from one generation batch."""

    inputs: list[TestInput]
    coverages: list[InputCoverage]
    scores: list[float]
    mismatch_count: int
    total_percent: float


class FuzzLoop:
    """The differential fuzzing loop (see module docstring).

    Parameters
    ----------
    generator:
        Object with ``generate_batch(n) -> list[list[int]]`` and optionally
        ``observe(inputs, coverages, scores)`` for feedback-driven fuzzers.
    harness:
        A :class:`~repro.soc.harness.DutHarness`, or a zero-arg factory for
        one (e.g. :class:`~repro.soc.harness.HarnessFactory`), run on a
        :class:`~repro.fuzzing.executor.SerialExecutor`.  Pass exactly one
        of ``harness`` and ``executor``.
    batch_size:
        Tests per generation batch (the paper's batch granularity drives
        incremental-coverage baselines).
    use_default_filters:
        Install the counter-CSR false-positive filter (paper §IV-A).
    executor:
        Execution strategy for the differential step
        (:class:`~repro.fuzzing.executor.HarnessExecutor`), built around
        its own harness: pass ``ShardedExecutor(factory, n_workers=...)``
        to spread each batch over a process pool.  Whatever the strategy,
        per-test results reach the calculator, detector and generator
        feedback in submission order, identical to serial.
    sink:
        Telemetry sink (:mod:`repro.obs.events`).  With the default
        :data:`~repro.obs.events.NULL_SINK` the loop does *no* telemetry
        work — not even ``perf_counter`` calls — and behaves bit-identical
        to an uninstrumented loop.  An enabled sink receives per-phase
        timer events (``batch_generated`` / ``batch_executed`` /
        ``batch_folded``: generation vs. execution vs. coverage-fold wall
        time per batch) and a ``mismatch_found`` event per *new* unique
        mismatch signature.  Sinks never feed back into the loop; the
        sink is deliberately excluded from :meth:`state_dict` (telemetry
        is an observer, not campaign state).
    """

    def __init__(
        self,
        generator,
        harness=None,
        batch_size: int = 16,
        use_default_filters: bool = True,
        executor: HarnessExecutor | None = None,
        sink: EventSink = NULL_SINK,
    ) -> None:
        if batch_size < 1:
            # An empty batch never advances tests_run: budgets would spin.
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.generator = generator
        self.sink = sink
        if (harness is None) == (executor is None):
            raise TypeError("FuzzLoop takes exactly one of harness and "
                            "executor")
        self.executor = (executor if executor is not None
                         else SerialExecutor(harness))
        self.batch_size = batch_size
        self.clock = SimClock()
        self.calculator = CoverageCalculator(self.executor.total_arms)
        self.scorer = CoverageScorer()
        self.detector = MismatchDetector(
            filters=[counter_csr_filter] if use_default_filters else []
        )
        self.tests_run = 0

    @property
    def harness(self):
        """The in-process harness, when the executor owns one (serial path)."""
        return getattr(self.executor, "harness", None)

    def close(self) -> None:
        """Release executor resources (worker processes, for pooled runs).
        Idempotent."""
        self.executor.close()

    def __enter__(self) -> "FuzzLoop":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- state capture (fleet checkpoint/resume) -------------------------------

    def state_dict(self) -> dict:
        """Picklable snapshot of the loop's mutable state.

        The generator and detector are carried whole (both are small,
        picklable objects — mutation corpora are lists of ints, the LLM
        generator's model a few small arrays); coverage travels as one packed
        :class:`~repro.rtl.bitset.Bitset`.  Restoring the snapshot into a
        freshly-built loop of the same configuration reproduces future
        batches exactly, which is what lets a fleet continue a campaign on
        any worker (see ``repro.fuzzing.fleet``).
        """
        return {
            "generator": self.generator,
            "detector": self.detector,
            "coverage": self.calculator.cumulative.hits,
            "clock_seconds": self.clock.seconds,
            "clock_started": self.clock.started,
            "tests_run": self.tests_run,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (inverse operation)."""
        self.generator = state["generator"]
        self.detector = state["detector"]
        calculator = CoverageCalculator(self.calculator.total_arms)
        calculator.cumulative.merge_bits(state["coverage"].to_int())
        self.calculator = calculator
        self.clock.seconds = state["clock_seconds"]
        self.clock.started = state["clock_started"]
        self.tests_run = state["tests_run"]

    # -- one batch ------------------------------------------------------------

    def _generate_inputs(self) -> list[TestInput]:
        bodies = self.generator.generate_batch(self.batch_size)
        return [
            body if isinstance(body, TestInput) else TestInput(list(body))
            for body in bodies
        ]

    def run_batch(self) -> BatchOutcome:
        if self.sink.enabled:
            return self._run_batch_timed()
        inputs = self._generate_inputs()
        # Simulate the whole batch first (possibly sharded over workers)
        # and only then fold results into campaign state, so a failed
        # batch leaves tests_run / coverage / mismatch accounting
        # untouched.
        results = self.executor.run_batch([test.words for test in inputs])
        return self._fold(inputs, results)

    def _run_batch_timed(self) -> BatchOutcome:
        """The synchronous batch with per-phase timers (enabled sinks only).

        The profiling hooks of the observability layer: one timer event per
        phase — generation, differential execution, coverage fold — so
        hot-path regressions show up in the results store, not just in
        ``BENCH_*.json``.  Phase structure and fold semantics are identical
        to the untimed path; only ``perf_counter`` sampling and event
        emission are added.
        """
        t0 = time.perf_counter()
        inputs = self._generate_inputs()
        t1 = time.perf_counter()
        self.sink.emit("batch_generated", n=len(inputs), seconds=t1 - t0)
        results = self.executor.run_batch([test.words for test in inputs])
        t2 = time.perf_counter()
        self.sink.emit("batch_executed", n=len(inputs), seconds=t2 - t1)
        outcome = self._fold(inputs, results)
        self.sink.emit(
            "batch_folded", n=len(inputs),
            seconds=time.perf_counter() - t2,
            mismatches=outcome.mismatch_count,
        )
        return outcome

    def _fold(self, inputs: list[TestInput], results) -> BatchOutcome:
        unique_before = self.detector.unique_count if self.sink.enabled else 0
        mismatches = 0
        for res in results:
            mismatches += len(
                self.detector.observe(res.dut_trace, res.golden_trace)
            )
        if self.sink.enabled and self.detector.unique_count > unique_before:
            # Announce each *new* unique signature once (dict preserves
            # insertion order, so the new ones are exactly the tail).
            for found in list(self.detector.unique.values())[unique_before:]:
                self.sink.emit(
                    "mismatch_found", kind=found.kind,
                    signature=list(found.signature), pc=found.pc,
                    detail=found.detail,
                )
        reports = [res.report for res in results]
        coverages: list[InputCoverage] = self.calculator.observe_batch(reports)
        self.clock.charge_tests(len(inputs))
        self.tests_run += len(inputs)
        scores = self.scorer.score_batch(coverages)
        observe = getattr(self.generator, "observe", None)
        if observe is not None:
            observe(inputs, coverages, scores, reports)
        return BatchOutcome(
            inputs=inputs,
            coverages=coverages,
            scores=scores,
            mismatch_count=mismatches,
            total_percent=self.calculator.total_percent,
        )

    @property
    def total_percent(self) -> float:
        return self.calculator.total_percent
