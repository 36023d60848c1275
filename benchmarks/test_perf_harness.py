"""PERF-HARNESS — differential-simulation throughput, serial vs sharded.

With generation on the KV-cached fast path (PERF-SAMPLING), campaign
throughput is bounded by the differential step: DUT + golden ISS simulation
of every test body.  This micro-benchmark pins the worker-pool executor's
advantage: a fixed batch of random test bodies is simulated with
``SerialExecutor`` and with ``ShardedExecutor`` at 2/4/8 workers, measuring
steady-state tests/sec (pool spin-up and per-worker harness construction are
amortised by a warm-up batch, as they are across a real campaign's batches).

Results go to ``BENCH_harness.json`` and ``bench_results.txt``.  Marked
``perf``: run with ``pytest --runperf benchmarks/test_perf_harness.py``.

Speed-up is hardware-bound: a worker pool cannot beat serial on a
single-CPU machine (the simulators are pure-Python compute), so the
benchmark is *core-aware*: worker counts exceeding the machine's cores are
skipped (their tests/sec would measure pure IPC overhead — 0.84-0.90x on a
1-core box — and read as a regression), recorded in the JSON as
``{"skipped": ...}`` entries next to ``n_cores``.  On a machine with no
eligible count, the smallest one still runs, annotated
``"exceeds_cores": true``, so the artifact always carries one sharded data
point.  The 2x acceptance gate applies only where the pool has >= 4 cores.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import emit, write_bench_json
from repro.analysis.report import format_table
from repro.baselines.random_regression import RandomRegressionGenerator
from repro.fuzzing.executor import SerialExecutor
from repro.fuzzing.pool import ShardedExecutor
from repro.soc.harness import HarnessFactory

#: Batch size (acceptance point: >= 32) and per-test body length.
BATCH = 64
BODY_INSTRUCTIONS = 48
WORKER_COUNTS = (2, 4, 8)
REPEATS = 3
#: Batched engine lane widths (the end-to-end path under test rides the
#: vectorised golden ISS *and* the vectorised DUT; 0s would restore the
#: scalar baselines).
GOLDEN_LANES = 32
DUT_LANES = 32


def _fixed_bodies() -> list[list[int]]:
    generator = RandomRegressionGenerator(
        body_instructions=BODY_INSTRUCTIONS, seed=0
    )
    return [list(test.words) for test in generator.generate_batch(BATCH)]


def _tests_per_sec(executor, bodies) -> float:
    executor.run_batch(bodies)  # warm-up: builds harnesses, spins the pool
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        results = executor.run_batch(bodies)
        best = min(best, time.perf_counter() - start)
        assert len(results) == len(bodies)
    return len(bodies) / best


def eligible_worker_counts(cores: int) -> list[int]:
    """Worker counts worth measuring on a ``cores``-core machine.

    Counts beyond the core count only measure pool overhead; when *none*
    fit (single-core box), keep the smallest so the artifact still has a
    sharded point — annotated, not asserted on.
    """
    fitting = [n for n in WORKER_COUNTS if n <= cores]
    return fitting or [WORKER_COUNTS[0]]


@pytest.mark.perf
def test_harness_tests_per_sec():
    factory = HarnessFactory("rocket", golden_lanes=GOLDEN_LANES,
                             dut_lanes=DUT_LANES)
    bodies = _fixed_bodies()
    cores = os.cpu_count() or 1
    measured_counts = eligible_worker_counts(cores)

    with SerialExecutor(factory) as serial:
        serial_tps = _tests_per_sec(serial, bodies)

    sharded_tps: dict[int, float] = {}
    for n_workers in measured_counts:
        with ShardedExecutor(factory, n_workers=n_workers) as sharded:
            sharded_tps[n_workers] = _tests_per_sec(sharded, bodies)

    def entry(n: int) -> dict:
        if n not in sharded_tps:
            return {"skipped": f"{n} workers exceed {cores} cores"}
        result = {
            "tests_per_sec": round(sharded_tps[n], 1),
            "speedup": round(sharded_tps[n] / serial_tps, 2),
        }
        if n > cores:
            result["exceeds_cores"] = True  # overhead probe, not a speedup
        return result

    record = {
        "benchmark": "harness_tests_per_sec",
        "batch": BATCH,
        "body_instructions": BODY_INSTRUCTIONS,
        # Rocket arm: the only kind with a batched DUT engine.
        "harness_kind": "rocket",
        "golden_lanes": GOLDEN_LANES,
        "dut_lanes": DUT_LANES,
        "n_cores": cores,
        "serial_tests_per_sec": round(serial_tps, 1),
        "sharded": {str(n): entry(n) for n in WORKER_COUNTS},
    }
    best_n = max(sharded_tps, key=sharded_tps.get)
    best_ratio = sharded_tps[best_n] / serial_tps
    headline = (
        f"rocket lanes {GOLDEN_LANES}g/{DUT_LANES}d: sharded "
        f"{best_ratio:.2f}x at {best_n} workers ({cores} cores)"
    )
    if best_n > cores:
        headline += " [pool-overhead bound: workers exceed cores]"
    write_bench_json("BENCH_harness.json", record, headline=headline)

    rows = [["serial", f"{serial_tps:.1f}", "1.00x"]]
    rows += [
        [f"{n} workers" + (" (> cores)" if n > cores else ""),
         f"{tps:.1f}", f"{tps / serial_tps:.2f}x"]
        for n, tps in sharded_tps.items()
    ]
    emit(format_table(
        ["executor", "tests/sec", "speedup"], rows,
        title=(
            f"PERF-HARNESS: differential throughput, batch {BATCH} x "
            f"{BODY_INSTRUCTIONS} instr ({cores} cores)"
        ),
    ))

    # Acceptance: >= 2x at 4 workers — reachable only with cores to use.
    if cores >= 4:
        assert sharded_tps[4] / serial_tps >= 2.0
    elif cores >= 2:
        assert sharded_tps[2] / serial_tps >= 1.3
