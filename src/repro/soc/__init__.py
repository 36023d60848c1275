"""SoC models: the designs under test.

Two processor models stand in for the paper's RTL testbeds:

- :mod:`repro.soc.rocket` — a RocketCore-like in-order RV64IMA_Zicsr pipeline
  with I$/D$, branch prediction, a store buffer and the five documented
  RocketCore behaviours injected (Bug1, Bug2, Findings 1–3).
- :mod:`repro.soc.boom` — a BOOM-like out-of-order core whose coverage
  profile saturates quickly under varied legal code, as in the paper.

Both are *timed interpreters*: each retired instruction advances the clock by
its microarchitectural latency (cache misses, hazards, mispredicts), while
instruction semantics come from the golden executor so ISA correctness lives
in one place.  :class:`~repro.soc.harness.DutHarness` runs a program and
returns ``(CommitTrace, CoverageReport)`` — the two artifacts the fuzzing
loop consumes.  ``make_harness(kind)`` builds one for a registered core
kind; :class:`~repro.soc.harness.HarnessFactory` is the picklable recipe
that executors and fleet specs carry instead of a live harness.
"""

from repro.soc.harness import DutHarness, HarnessFactory, make_harness

__all__ = ["DutHarness", "HarnessFactory", "make_harness"]
