"""Per-test coverage reports — the RTL simulator's output to the fuzzer.

A :class:`CoverageReport` is what "parsing the VCS coverage report" yields in
the paper's Coverage Calculator (§IV-B): the set of condition arms this test
hit, plus the design's static totals.  Reports are cheap, immutable value
objects; cumulative accounting lives in
:class:`repro.coverage.calculator.CoverageCalculator`.

Hits are carried as a packed :class:`~repro.rtl.bitset.Bitset` — snapshotting
a report off the coverage database is one int copy, merging is a bitwise OR
plus popcount, and the pickle payload shipped across the sharded executor's
process pool is ``total_arms / 8`` bytes instead of a per-arm pickled
frozenset.  The bitset keeps the old set API (membership, iteration,
``len``, equality with sets), so report consumers are source-compatible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rtl.bitset import Bitset
from repro.rtl.coverage import ConditionCoverage


def coverage_percent(covered: int, arms: int) -> float:
    """Percent of ``arms`` covered, as ``100.0 * (covered / arms)``; 0.0 for
    an empty universe.

    Every coverage percent goes through here (calculators, the set
    reference, fleet unions and curves, the store), so two figures built
    from the same counts compare exactly; ``100.0 * covered / arms`` rounds
    differently on about a quarter of counts.
    """
    return 100.0 * (covered / arms) if arms else 0.0


@dataclass(frozen=True)
class CoverageReport:
    """Coverage outcome of simulating one test input."""

    #: Packed arm indices hit during this test (ConditionCoverage indexing).
    #: Accepts any iterable of arm indices at construction; normalised to a
    #: :class:`Bitset`.
    hits: Bitset
    #: Static number of condition arms in the design (2 per condition).
    total_arms: int
    #: Simulated clock cycles consumed by the test.
    cycles: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.hits, Bitset):
            object.__setattr__(
                self, "hits", Bitset.from_iterable(self.hits, self.total_arms)
            )

    @classmethod
    def from_coverage(cls, cov: ConditionCoverage, cycles: int = 0) -> "CoverageReport":
        """Snapshot the per-run hit bitmap of a coverage database."""
        return cls(hits=Bitset(cov.run_bits(), cov.total_arms),
                   total_arms=cov.total_arms, cycles=cycles)

    @property
    def standalone_count(self) -> int:
        """Number of cover points attained by this input alone (paper §IV-B)."""
        return len(self.hits)

    @property
    def standalone_fraction(self) -> float:
        if self.total_arms == 0:
            return 0.0
        return len(self.hits) / self.total_arms


class CumulativeCoverage:
    """Mutable union of report hits — the "total coverage" accumulator.

    Internally one int bitmap + a popcount kept incrementally, so
    :meth:`merge` is a bitwise OR and the coverage percent never rescans
    the set.
    """

    def __init__(self, total_arms: int, hits=None) -> None:
        self.total_arms = total_arms
        self._bits = Bitset.from_iterable(hits or (), total_arms).to_int()
        self._count = self._bits.bit_count()

    def merge(self, report: CoverageReport) -> int:
        """Fold one report in; returns the number of newly-hit arms."""
        return self.merge_bits(report.hits.to_int())

    def merge_bits(self, bits: int) -> int:
        """Fold a raw packed bitmap in; returns the number of new arms."""
        new = bits & ~self._bits
        if not new:
            return 0
        self._bits |= new
        gained = new.bit_count()
        self._count += gained
        return gained

    @property
    def hits(self) -> Bitset:
        """The merged arm set (immutable packed view)."""
        return Bitset(self._bits, self.total_arms)

    def bits(self) -> int:
        """The raw packed bitmap (zero-copy view for the calculator)."""
        return self._bits

    def missing(self) -> Bitset:
        """The arms not yet covered (complement within the universe)."""
        return ~self.hits

    @property
    def count(self) -> int:
        return self._count

    @property
    def percent(self) -> float:
        return coverage_percent(self._count, self.total_arms)


def disjoint_union_percent(unions: dict[int, int]) -> float:
    """Coverage percent of a union that may span several designs.

    ``unions`` maps a universe size (arm count) to the OR of the bitmaps
    drawn from it.  Different designs share no arm, so this is the covered
    arms summed over universes divided by the arms summed over universes;
    with one universe it is that universe's percent.
    """
    return coverage_percent(sum(bits.bit_count() for bits in unions.values()),
                            sum(unions))
