"""Analysis: bug classification and experiment reporting.

- :mod:`repro.analysis.bugs` — maps unique mismatches to the paper's named
  findings (Bug1/CWE-1202, Bug2/CWE-440, Findings 1–3).
- :mod:`repro.analysis.fleet` — cross-campaign views: mismatch signatures
  deduped across a fleet with per-campaign attribution, the fleet-level
  E-BUGS detection table, and the dispatch throughput/utilisation table.
- :mod:`repro.analysis.report` — plain-text tables used by the benchmark
  harness to print paper-style result rows.
"""

from repro.analysis.bugs import KNOWN_BUGS, BugMatch, classify_mismatches
from repro.analysis.fleet import (
    FleetMismatch,
    dedupe_mismatches,
    fleet_bug_table,
    fleet_stats_table,
)
from repro.analysis.report import format_table

__all__ = [
    "BugMatch",
    "FleetMismatch",
    "KNOWN_BUGS",
    "classify_mismatches",
    "dedupe_mismatches",
    "fleet_bug_table",
    "fleet_stats_table",
    "format_table",
]
