"""PERF-DUT — DUT-model throughput, scalar vs batched numpy lanes.

The DUT half of the differential step was the dominant serial cost once the
golden ISS went vectorised (PERF-GOLDEN): the scalar cores stepped
instruction-by-instruction while the golden side ran lockstep lanes.  This
micro-benchmark pins the batched structure-of-arrays DUT engines'
advantage, parametrised over every core kind with a batch engine in
``ENGINE_REGISTRY`` (today only Rocket's ``DutBatchSimulator``): a fixed
batch of random test programs is executed by the scalar core and by the
batch engine across a lane-width ladder (8/32/128), measuring tests/sec on
identical work — bit-identical traces *and* coverage reports, in fact (see
``tests/soc/test_batch.py``).

Each parametrisation merges its ladder into the shared ``BENCH_dut.json``
under ``cores.<kind>``, so one artifact carries the whole matrix; rungs
that fall under scalar break-even are annotated rather than hidden.  Also
emitted to ``bench_results.txt``.  Marked ``perf``: run with ``pytest
--runperf benchmarks/test_perf_dut.py``.

Timing takes the best of ``REPEATS`` runs per configuration: the engines
are single-threaded pure compute (the lane width is a batch size, not
parallelism — everything here runs on one core), so minimum wall-clock is
the measurement least polluted by scheduler noise on shared machines.  The
acceptance gate (>= 2x somewhere on the ladder at width >= 32, per kind)
sits well under the quiet-machine headroom for the same reason.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from benchmarks.conftest import emit, write_bench_json
from repro.analysis.report import format_table
from repro.baselines.random_regression import RandomRegressionGenerator
from repro.soc.harness import ENGINE_REGISTRY, build_program, resolve_engine

#: Bench workload: one program per lane at the widest rung.
BATCH = 128
BODY_INSTRUCTIONS = 48
LANE_WIDTHS = (8, 32, 128)
REPEATS = 5

#: Every registered kind that declares a batch engine rides the ladder.
BATCHED_KINDS = tuple(
    kind for kind in ENGINE_REGISTRY if resolve_engine(kind).batch_cls
)


def _fixed_programs() -> list[list[int]]:
    generator = RandomRegressionGenerator(
        body_instructions=BODY_INSTRUCTIONS, seed=0
    )
    return [build_program(list(test.words))
            for test in generator.generate_batch(BATCH)]


def _best_of(run, n_tests: int) -> float:
    run()  # warm-up: decode-meta/arm-table/cond-block caches
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return n_tests / best


def _merge_record(kind: str, entry: dict) -> tuple[dict, str]:
    """Fold one kind's ladder into the shared multi-core record.

    ``write_bench_json`` replaces the artifact wholesale, so the previous
    record's other cores are read back and carried over — each
    parametrisation refreshes only its own ``cores.<kind>`` entry.
    """
    path = Path(__file__).resolve().parent.parent / "BENCH_dut.json"
    cores: dict = {}
    if path.exists():
        prior = json.loads(path.read_text())
        cores = prior.get("cores", {})
    cores[kind] = entry
    record = {
        "benchmark": "dut_tests_per_sec",
        "batch": BATCH,
        "body_instructions": BODY_INSTRUCTIONS,
        "note": ("single-threaded pure compute: lane width is batch size,"
                 " not parallelism"),
        "cores": {k: cores[k] for k in sorted(cores)},
    }
    parts = []
    for k in sorted(cores):
        ladder = cores[k]["lanes"]
        best_n = max(ladder, key=lambda n: ladder[n]["tests_per_sec"])
        parts.append(f"{k} {ladder[best_n]['speedup']:.2f}x at {best_n} lanes")
    return record, "batched " + ", ".join(parts)


@pytest.mark.perf
@pytest.mark.parametrize("kind", BATCHED_KINDS)
def test_dut_tests_per_sec(kind):
    engine = resolve_engine(kind)
    programs = _fixed_programs()

    scalar = engine.core_cls()
    scalar_tps = _best_of(
        lambda: [scalar.run(p) for p in programs], len(programs)
    )

    lane_tps: dict[int, float] = {}
    for lanes in LANE_WIDTHS:
        sim = engine.batch_cls(lanes=lanes)
        lane_tps[lanes] = _best_of(
            lambda: sim.run_batch(programs), len(programs)
        )

    entry = {
        "scalar_tests_per_sec": round(scalar_tps, 1),
        "lanes": {
            str(n): {
                "tests_per_sec": round(tps, 1),
                "speedup": round(tps / scalar_tps, 2),
                **({"below_break_even": True} if tps < scalar_tps else {}),
            }
            for n, tps in lane_tps.items()
        },
    }
    record, headline = _merge_record(kind, entry)
    write_bench_json("BENCH_dut.json", record, headline=headline)

    rows = [["scalar", f"{scalar_tps:.1f}", "1.00x"]]
    rows += [[f"{n} lanes", f"{tps:.1f}", f"{tps / scalar_tps:.2f}x"]
             for n, tps in lane_tps.items()]
    emit(format_table(
        ["engine", "tests/sec", "speedup"], rows,
        title=(
            f"PERF-DUT[{kind}]: DUT throughput, batch {BATCH} x "
            f"{BODY_INSTRUCTIONS} instr"
        ),
    ))

    # Acceptance: >= 2x scalar somewhere on the ladder at width >= 32.
    gate = max(lane_tps[n] / scalar_tps for n in LANE_WIDTHS if n >= 32)
    assert gate >= 2.0, (
        f"{kind}: best >=32-lane speedup {gate:.2f}x under the 2x gate")
