"""PERF-COVERAGE — the coverage data path, set engine vs bitset engine.

Coverage bookkeeping is the dominant *serial* cost of every simulated
instruction: with generation on the KV-cached fast path (PERF-SAMPLING) and
the differential step sharded (PERF-HARNESS), what remains on the hot loop
is recording condition observations and scoring the resulting reports.

Methodology ("before/after")
----------------------------
The "before" engine is the original hash-set implementation, retained
verbatim in ``repro.coverage.reference``: one ``set.add`` per observation,
``frozenset`` report snapshots, set-difference scoring.  The "after" engine
is the packed-bitset data path that replaced it (``repro.rtl.coverage`` /
``repro.coverage.calculator``).  Both engines are driven with **identical
observation streams** shaped like one real simulated instruction (measured
on ``RocketCore.run``):

- one *decode-style group* of 23 conditions whose outcome is a pure
  function of the instruction word (drawn from a small hot-word pool, as in
  a real test body) — the set engine records each arm individually, which
  is what the old core code did; the bitset engine uses the memoized
  ``record_mask`` group fold, which is what the migrated cores do;
- one *idle-IRQ group* of 12 always-false conditions (the per-cycle
  ``InterruptController.poll``), same treatment;
- one *hazard-style group* of 10 data-dependent conditions — not
  memoizable, but foldable: the bitset engine indexes prebound
  (false_bit, true_bit) pairs with each condition's bool and records the
  group as one mask, as ``RocketCore``'s hazard block now does;
- 6 further scalar conditions through each engine's ``record`` (the
  branch-interleaved residue: cache/predictor/CSR conditions).

Per test the engines snapshot a report, and per 64-test batch the matching
calculator (+ scorer) computes standalone/incremental/total coverage and
scores.  Outputs are asserted identical before timing — the speedup is
never bought with a behaviour change (see also
``tests/coverage/test_bitset_parity.py``).

Results go to ``BENCH_coverage.json`` and ``bench_results.txt``.  Marked
``perf``: run with ``pytest --runperf benchmarks/test_perf_coverage.py``.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.conftest import emit, write_bench_json
from repro.analysis.report import format_table
from repro.coverage.calculator import CoverageCalculator
from repro.coverage.reference import (
    SetConditionCoverage,
    SetCoverageCalculator,
    SetCoverageReport,
)
from repro.coverage.scoring import CoverageScorer
from repro.rtl.coverage import ConditionCoverage
from repro.rtl.report import CoverageReport

#: The standard batch (matches PERF-HARNESS) and a RocketCore-scale design.
BATCH = 64
N_CONDITIONS = 160
#: Per-test instruction count and the real cores' per-instruction group mix.
INSTRUCTIONS_PER_TEST = 60
DECODE_GROUP = 23   # word-determined decode conditions (RocketCore)
IRQ_GROUP = 12      # always-false idle interrupt poll
HAZARD_GROUP = 10   # data-dependent but pair-foldable (hazard block)
SCALAR_CONDS = 6    # branch-interleaved conditions recorded one by one
HOT_WORDS = 48      # distinct instruction words per test body
REPEATS = 3


def _make_streams(seed: int = 0):
    """The observation streams of one 64-test batch, engine-agnostic.

    Each instruction is ``(word_key, scalar_observations)``; the per-word
    decode group and the constant IRQ group are derived from the key so both
    engines see exactly the same arms.
    """
    rng = random.Random(seed)
    word_outcomes = {
        w: [(rng.randrange(N_CONDITIONS), rng.random() < 0.5)
            for _ in range(DECODE_GROUP)]
        for w in range(HOT_WORDS)
    }
    irq_group = [(rng.randrange(N_CONDITIONS), False) for _ in range(IRQ_GROUP)]
    hazard_handles = [rng.randrange(N_CONDITIONS) for _ in range(HAZARD_GROUP)]
    tests = []
    for _ in range(BATCH):
        body = [
            (
                rng.randrange(HOT_WORDS),
                tuple(rng.random() < 0.5 for _ in range(HAZARD_GROUP)),
                [(rng.randrange(N_CONDITIONS), rng.random() < 0.5)
                 for _ in range(SCALAR_CONDS)],
            )
            for _ in range(INSTRUCTIONS_PER_TEST)
        ]
        tests.append(body)
    return word_outcomes, irq_group, hazard_handles, tests


def _declare(cov):
    for i in range(N_CONDITIONS):
        cov.declare(f"unit.c{i}")
    cov.freeze()
    return cov


def _run_set_engine(streams):
    """Original data path: per-arm record, frozenset snapshot, set scoring."""
    word_outcomes, irq_group, hazard_handles, tests = streams
    cov = _declare(SetConditionCoverage())
    calc = SetCoverageCalculator(cov.total_arms)
    scorer = CoverageScorer()
    reports = []
    for body in tests:
        cov.begin_run()
        record = cov.record
        for word, hazard_values, scalars in body:
            for handle, value in word_outcomes[word]:
                record(handle, value)
            for handle, value in irq_group:
                record(handle, value)
            for handle, value in zip(hazard_handles, hazard_values):
                record(handle, value)
            for handle, value in scalars:
                record(handle, value)
        reports.append(SetCoverageReport.from_coverage(cov))
    coverages = calc.observe_batch(reports)
    scores = [scorer.score(c) for c in coverages]
    return coverages, scores, calc.total_percent


def _run_bitset_engine(streams):
    """Bitset data path: memoized group masks, pair-folded hazard group,
    packed snapshot, AND-NOT/popcount batch scoring — exactly what the
    migrated cores and FuzzLoop do."""
    word_outcomes, irq_group, hazard_handles, tests = streams
    cov = _declare(ConditionCoverage())
    calc = CoverageCalculator(cov.total_arms)
    scorer = CoverageScorer()
    # Group masks are memoized per key, as the cores memoize decode masks
    # per instruction word and the IRQ poll precomputes its idle mask; the
    # hazard group prebinds (false_bit, true_bit) pairs indexed by bool.
    mask_cache: dict[int, int] = {}
    irq_mask = 0
    for handle, value in irq_group:
        irq_mask |= cov.arm_bit(handle, value)
    hazard_pairs = tuple(
        (cov.arm_bit(handle, False), cov.arm_bit(handle, True))
        for handle in hazard_handles
    )
    reports = []
    for body in tests:
        cov.begin_run()
        record = cov.record
        record_mask = cov.record_mask
        for word, hazard_values, scalars in body:
            mask = mask_cache.get(word)
            if mask is None:
                mask = 0
                for handle, value in word_outcomes[word]:
                    mask |= cov.arm_bit(handle, value)
                mask_cache[word] = mask
            mask |= irq_mask
            for pair, value in zip(hazard_pairs, hazard_values):
                mask |= pair[value]
            record_mask(mask)
            for handle, value in scalars:
                record(handle, value)
        reports.append(CoverageReport.from_coverage(cov))
    coverages = calc.observe_batch(reports)
    scores = scorer.score_batch(coverages)
    return coverages, scores, calc.total_percent


def _tests_per_sec(fn, streams) -> float:
    fn(streams)  # warm-up (mask memoization)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(streams)
        best = min(best, time.perf_counter() - start)
    return BATCH / best


@pytest.mark.perf
def test_coverage_engine_tests_per_sec():
    streams = _make_streams(seed=0)

    # Parity first: the engines must agree bit-for-bit on this workload.
    set_out = _run_set_engine(streams)
    bit_out = _run_bitset_engine(streams)
    assert bit_out[0] == set_out[0]   # InputCoverage triples
    assert bit_out[1] == set_out[1]   # scores
    assert bit_out[2] == set_out[2]   # total percent

    set_tps = _tests_per_sec(_run_set_engine, streams)
    bit_tps = _tests_per_sec(_run_bitset_engine, streams)
    speedup = bit_tps / set_tps

    obs_per_test = INSTRUCTIONS_PER_TEST * (
        DECODE_GROUP + IRQ_GROUP + HAZARD_GROUP + SCALAR_CONDS
    )
    record = {
        "benchmark": "coverage_engine_tests_per_sec",
        "batch": BATCH,
        "conditions": N_CONDITIONS,
        "instructions_per_test": INSTRUCTIONS_PER_TEST,
        "observations_per_test": obs_per_test,
        "group_mix": {
            "decode_group": DECODE_GROUP,
            "irq_group": IRQ_GROUP,
            "hazard_group": HAZARD_GROUP,
            "scalar": SCALAR_CONDS,
        },
        "methodology": (
            "identical observation streams through both engines; set engine "
            "= retained reference (per-arm set.add, frozenset reports, set "
            "calculator); bitset engine = memoized/pair-folded group masks "
            "+ packed reports + bitmap batch calculator, mirroring the "
            "migrated cores; outputs asserted identical before timing; "
            f"best of {REPEATS} timed runs"
        ),
        "set_tests_per_sec": round(set_tps, 1),
        "bitset_tests_per_sec": round(bit_tps, 1),
        "speedup": round(speedup, 2),
    }
    write_bench_json(
        "BENCH_coverage.json", record,
        headline=f"bitset engine {speedup:.2f}x ({bit_tps:.0f} tests/s)",
    )

    emit(format_table(
        ["engine", "tests/sec", "speedup"],
        [
            ["set (reference)", f"{set_tps:.1f}", "1.00x"],
            ["bitset", f"{bit_tps:.1f}", f"{speedup:.2f}x"],
        ],
        title=(
            f"PERF-COVERAGE: coverage data path, batch {BATCH} x "
            f"{obs_per_test} observations/test"
        ),
    ))

    # Acceptance: the bitset engine must at least double coverage
    # throughput on the standard batch.
    assert speedup >= 2.0
