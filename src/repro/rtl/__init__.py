"""Condition coverage for the cycle-level core models.

This package stands in for Synopsys VCS in the paper's stack: the fuzzing
loop scores every input by the condition coverage the core models
(:mod:`repro.soc`) record here.  It provides:

- :class:`~repro.rtl.coverage.ConditionCoverage` — declare-before-use
  condition cover points; each condition contributes a *true arm* and a
  *false arm*, matching VCS condition-coverage accounting.
- :class:`~repro.rtl.module.Module` — hierarchical design units whose
  conditions are prefixed with the instance path and whose arm pairs are
  prebound in ``arms`` for one-mask-per-cycle recording.
- :class:`~repro.rtl.report.CoverageReport` — the per-test coverage report
  consumed by the Coverage Calculator (:mod:`repro.coverage`).
- :class:`~repro.rtl.bitset.Bitset` — the packed, set-compatible bitmap the
  whole coverage data path (recording, reports, merging, IPC) runs on.
"""

from repro.rtl.bitset import Bitset
from repro.rtl.coverage import ConditionCoverage
from repro.rtl.module import Module
from repro.rtl.report import CoverageReport

__all__ = ["Bitset", "ConditionCoverage", "CoverageReport", "Module"]
