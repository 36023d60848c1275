"""Campaign driver: run a fuzzer to a budget, record the coverage curve.

Benches use this to regenerate the paper's evaluation artifacts: Figure 2's
coverage-over-time series and the coverage-at-budget / time-to-coverage
numbers of §V-A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fuzzing.chatfuzz import FuzzLoop
from repro.fuzzing.mismatch import Mismatch
from repro.rtl.bitset import Bitset
from repro.rtl.report import coverage_percent


@dataclass(frozen=True)
class CurvePoint:
    """One sample of the campaign's coverage trajectory.

    ``hits`` optionally carries the packed cumulative bitmap at this point,
    which is what lets fleet aggregation merge curves from many campaigns
    onto one sim-hours epoch by *union* instead of by (meaningless) percent
    arithmetic — see :meth:`repro.fuzzing.fleet.FleetResult.merged_curve`.
    """

    tests: int
    sim_hours: float
    coverage_percent: float
    hits: Bitset | None = None


@dataclass
class CampaignResult:
    """Outcome of one fuzzing campaign."""

    name: str
    curve: list[CurvePoint] = field(default_factory=list)
    tests_run: int = 0
    sim_hours: float = 0.0
    final_coverage_percent: float = 0.0
    raw_mismatches: int = 0
    unique_mismatches: int = 0
    #: Packed bitmap of every arm the campaign covered — lets campaign
    #: results be unioned (multi-campaign sharding) without re-simulating.
    final_coverage: Bitset = field(default_factory=Bitset)
    #: The unique mismatch representatives (one per signature), so fleets can
    #: dedupe identical signatures found by different campaigns while keeping
    #: per-campaign attribution (see ``repro.analysis.fleet``).
    mismatches: list[Mismatch] = field(default_factory=list)

    @classmethod
    def from_state(cls, name: str, loop: dict,
                   curve: list[CurvePoint]) -> "CampaignResult":
        """The result of a campaign whose loop is in state ``loop`` (a
        :meth:`~repro.fuzzing.chatfuzz.FuzzLoop.state_dict`), so a live
        campaign and a fleet holding only its state report the same
        figures."""
        coverage: Bitset = loop["coverage"]
        detector = loop["detector"]
        return cls(
            name=name,
            curve=curve,
            tests_run=loop["tests_run"],
            sim_hours=loop["clock_seconds"] / 3600.0,
            final_coverage_percent=coverage_percent(len(coverage),
                                                    coverage.nbits),
            raw_mismatches=detector.raw_count,
            unique_mismatches=detector.unique_count,
            final_coverage=coverage,
            mismatches=list(detector.unique.values()),
        )

    @property
    def total_arms(self) -> int:
        """Size of the DUT's coverage universe (from the packed bitmap)."""
        return self.final_coverage.nbits

    def coverage_at_tests(self, n: int) -> float:
        """Coverage percent at the last curve point with <= n tests."""
        best = 0.0
        for point in self.curve:
            if point.tests <= n:
                best = point.coverage_percent
        return best

    def time_to_coverage(self, percent: float) -> float | None:
        """Simulated hours when coverage first reached ``percent``, or None."""
        for point in self.curve:
            if point.coverage_percent >= percent:
                return point.sim_hours
        return None

    def summary(self) -> str:
        return (
            f"{self.name}: {self.tests_run} tests, "
            f"{self.sim_hours:.2f} sim-hours, "
            f"coverage {self.final_coverage_percent:.2f}%, "
            f"mismatches raw={self.raw_mismatches} unique={self.unique_mismatches}"
        )


class Campaign:
    """Runs a :class:`FuzzLoop` until a test/time/coverage budget is hit.

    Usable as a context manager, which closes the loop's executor on exit —
    relevant when the loop runs on a worker pool
    (:class:`~repro.fuzzing.pool.ShardedExecutor`)::

        executor = ShardedExecutor(factory, n_workers=4)
        with Campaign(FuzzLoop(gen, executor=executor), "c") as camp:
            result = camp.run_tests(1000)
    """

    def __init__(self, loop: FuzzLoop, name: str = "campaign") -> None:
        self.loop = loop
        self.name = name
        #: Persistent result the slice API accumulates into (run_slice); the
        #: whole-budget entry points below each build a fresh result instead.
        self._result: CampaignResult | None = None

    def close(self) -> None:
        """Release the loop's executor resources."""
        self.loop.close()

    def __enter__(self) -> "Campaign":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _snapshot(self, result: CampaignResult) -> None:
        point = CurvePoint(
            tests=self.loop.tests_run,
            sim_hours=self.loop.clock.hours,
            coverage_percent=self.loop.total_percent,
            hits=self.loop.calculator.cumulative.hits,
        )
        result.curve.append(point)
        if self.loop.sink.enabled:
            self.loop.sink.emit(
                "coverage_point", campaign=self.name, tests=point.tests,
                sim_hours=point.sim_hours,
                coverage_percent=point.coverage_percent,
            )

    def _run(self, result: CampaignResult | None, more) -> CampaignResult:
        """The batch loop behind every entry point: run batches while
        ``more()`` holds, snapshotting after each, and bring ``result`` up
        to date.

        ``None`` starts a fresh result.  Elaboration is charged up front
        (as :meth:`run_sim_hours` always has), so the sim_hours epoch of
        every CurvePoint — including the initial snapshot — is consistent
        across all entry points.
        """
        if result is None:
            result = CampaignResult(name=self.name)
            self.loop.clock.start()
            self._snapshot(result)
        while more():
            self.loop.run_batch()
            self._snapshot(result)
        # In place: run_slice hands out one accumulating object.
        vars(result).update(vars(CampaignResult.from_state(
            self.name, self.loop.state_dict(), result.curve)))
        return result

    # -- slice API (fleet scheduling) -------------------------------------------

    @property
    def result(self) -> CampaignResult | None:
        """The accumulating slice-API result (None before the first slice)."""
        return self._result

    def run_slice(self, n_tests: int) -> CampaignResult:
        """Run ``n_tests`` *more* tests (whole batches) and return the
        up-to-date result.

        Unlike :meth:`run_tests`, successive calls continue one campaign —
        the curve, coverage, mismatch accounting and sim clock all carry
        over.  This is the unit of work a fleet budget scheduler allocates
        (:mod:`repro.fuzzing.scheduler`): the returned
        :class:`CampaignResult` is a live snapshot whose ``final_coverage``
        delta against the fleet union is the scheduler's reward signal.
        """
        target = self.loop.tests_run + n_tests
        self._result = self._run(self._result,
                                 lambda: self.loop.tests_run < target)
        return self._result

    def state_dict(self) -> dict:
        """Picklable snapshot of all mutable campaign state.

        Together with the :class:`~repro.fuzzing.fleet.CampaignSpec` that
        built this campaign, the state dict fully determines future
        behaviour: fleets ship it between scheduler slices (any worker can
        continue any campaign) and persist it in checkpoints.
        """
        return {
            "loop": self.loop.state_dict(),
            "curve": list(self._result.curve) if self._result is not None
            else None,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this campaign shell."""
        self.loop.load_state_dict(state["loop"])
        if state["curve"] is None:
            self._result = None
        else:
            self._result = CampaignResult.from_state(
                self.name, self.loop.state_dict(), list(state["curve"]))

    def run_tests(self, n_tests: int) -> CampaignResult:
        """Run until at least ``n_tests`` tests have executed."""
        return self._run(None, lambda: self.loop.tests_run < n_tests)

    def run_sim_hours(self, hours: float, max_tests: int | None = None) -> CampaignResult:
        """Run until the simulated clock passes ``hours``."""
        return self._run(None, lambda: (
            self.loop.clock.hours < hours
            and (max_tests is None or self.loop.tests_run < max_tests)))

    def run_to_coverage(self, percent: float, max_tests: int) -> CampaignResult:
        """Run until total coverage reaches ``percent`` (or the test cap)."""
        return self._run(None, lambda: (
            self.loop.total_percent < percent
            and self.loop.tests_run < max_tests))
