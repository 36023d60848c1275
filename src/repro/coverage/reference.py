"""The retained set-based coverage engine — reference for the bitset path.

This module preserves, verbatim in behaviour, the original hash-set
implementation of the coverage data path (recording, per-test reports,
cumulative merging, calculator scoring) that the packed-bitset engine in
``repro.rtl.coverage`` / ``repro.rtl.report`` / ``repro.coverage.calculator``
replaced.  It exists for two jobs:

- **parity pinning** — ``tests/coverage/test_bitset_parity.py`` drives both
  engines with identical observation streams and asserts bit-for-bit equal
  hits, counts, increments, totals and scores;
- **benchmarking** — ``benchmarks/test_perf_coverage.py`` measures the
  bitset engine's tests/sec against this implementation as the "before"
  baseline.

It is *not* part of the production data path; nothing outside tests and
benchmarks should import it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coverage.calculator import InputCoverage
from repro.rtl.report import coverage_percent


class SetConditionCoverage:
    """Original set-based coverage database (one ``set.add`` per record)."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._frozen = False
        self.run_hits: set[int] = set()

    def declare(self, name: str) -> int:
        if self._frozen:
            raise RuntimeError(f"cannot declare {name!r}: frozen")
        self._names.append(name)
        return len(self._names) - 1

    def freeze(self) -> None:
        self._frozen = True

    def record(self, handle: int, value) -> bool:
        value = bool(value)
        self.run_hits.add(2 * handle + (1 if value else 0))
        return value

    def begin_run(self) -> None:
        self.run_hits = set()

    @property
    def total_arms(self) -> int:
        return 2 * len(self._names)


@dataclass(frozen=True)
class SetCoverageReport:
    """Original per-test report: a frozenset of arm indices."""

    hits: frozenset[int]
    total_arms: int
    cycles: int = 0

    @classmethod
    def from_coverage(cls, cov: SetConditionCoverage, cycles: int = 0) -> "SetCoverageReport":
        return cls(hits=frozenset(cov.run_hits), total_arms=cov.total_arms,
                   cycles=cycles)

    @property
    def standalone_count(self) -> int:
        return len(self.hits)


@dataclass
class SetCumulativeCoverage:
    """Original mutable union-of-hits accumulator."""

    total_arms: int
    hits: set[int] = field(default_factory=set)

    def merge(self, report) -> int:
        new = set(report.hits) - self.hits
        self.hits |= new
        return len(new)

    @property
    def count(self) -> int:
        return len(self.hits)

    @property
    def percent(self) -> float:
        return coverage_percent(len(self.hits), self.total_arms)


class SetCoverageCalculator:
    """Original calculator: per-report set differences and unions."""

    def __init__(self, total_arms: int) -> None:
        self.cumulative = SetCumulativeCoverage(total_arms=total_arms)
        self._batch_baseline: set[int] = set()

    @property
    def total_arms(self) -> int:
        return self.cumulative.total_arms

    @property
    def total_percent(self) -> float:
        return self.cumulative.percent

    def begin_batch(self) -> None:
        self._batch_baseline = set(self.cumulative.hits)

    def observe(self, report) -> InputCoverage:
        incremental = len(set(report.hits) - self._batch_baseline)
        self.cumulative.merge(report)
        return InputCoverage(
            standalone=report.standalone_count,
            incremental=incremental,
            total=self.cumulative.count,
            total_arms=self.cumulative.total_arms,
        )

    def observe_batch(self, reports) -> list[InputCoverage]:
        self.begin_batch()
        return [self.observe(report) for report in reports]
