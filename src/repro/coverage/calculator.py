"""The Coverage Calculator (paper §IV-B).

Receives per-test :class:`~repro.rtl.report.CoverageReport` objects from the
RTL simulator and computes, for each test input:

- **stand-alone coverage** — cover points attained by the input alone;
- **incremental coverage** — newly achieved points relative to the total
  recorded at the end of the previous *batch*, as the paper computes them;
- **total coverage** — the cumulative tally so far.

The state is packed bitmaps end to end: incremental coverage is
``report & ~baseline`` (one AND-NOT plus popcount), merging is a bitwise OR
(parity with the set engine pinned by
``tests/coverage/test_bitset_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rtl.report import CoverageReport, CumulativeCoverage


@dataclass(frozen=True)
class InputCoverage:
    """The three coverage values the calculator assigns to one test input."""

    standalone: int
    incremental: int
    total: int
    total_arms: int

    @property
    def standalone_fraction(self) -> float:
        return self.standalone / self.total_arms if self.total_arms else 0.0

    @property
    def total_fraction(self) -> float:
        return self.total / self.total_arms if self.total_arms else 0.0

    @property
    def total_percent(self) -> float:
        return 100.0 * self.total_fraction

    @property
    def improved(self) -> bool:
        """Did this input reach any new cover point?"""
        return self.incremental > 0


class CoverageCalculator:
    """Stateful accumulator over a fuzzing campaign.

    Reproduces the paper exactly: incremental coverage is measured against
    the total recorded at the last :meth:`begin_batch`, the end of the
    *previous batch*, so inputs within a batch do not shadow each other.
    """

    def __init__(self, total_arms: int) -> None:
        self.cumulative = CumulativeCoverage(total_arms=total_arms)
        #: Packed bitmap snapshot of the cumulative total at batch start.
        self._batch_baseline = 0

    @property
    def total_arms(self) -> int:
        return self.cumulative.total_arms

    @property
    def total_percent(self) -> float:
        return self.cumulative.percent

    def begin_batch(self) -> None:
        """Snapshot the baseline used for incremental coverage this batch."""
        self._batch_baseline = self.cumulative.bits()

    def observe(self, report: CoverageReport) -> InputCoverage:
        """Fold one test's report into the totals and score it."""
        bits = report.hits.to_int()
        incremental = (bits & ~self._batch_baseline).bit_count()
        self.cumulative.merge_bits(bits)
        return InputCoverage(
            standalone=report.standalone_count,
            incremental=incremental,
            total=self.cumulative.count,
            total_arms=self.cumulative.total_arms,
        )

    def observe_batch(self, reports: list[CoverageReport]) -> list[InputCoverage]:
        """Score a whole generation batch (paper's granularity):
        :meth:`begin_batch`, then one :meth:`observe` per report."""
        self.begin_batch()
        return [self.observe(report) for report in reports]
