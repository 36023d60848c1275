"""PERF-OBS — what does watching a fuzzing run cost?

The telemetry contract (``repro.obs``) is that observation is opt-in and
near-free: the default :data:`~repro.obs.events.NULL_SINK` does *no*
telemetry work (instrumented code guards payload construction and even its
``perf_counter`` calls behind ``sink.enabled``), an in-memory
:class:`~repro.obs.events.ListSink` pays only for event objects, and a
durable :class:`~repro.obs.store.StoreSink` adds one flushed JSONL append
per event.  Events fire at *batch* rate (a handful per batch), not test
rate, so even the durable sink should be noise next to differential
simulation.

One TheHuzz campaign runs to a fixed budget under each sink; tests/sec and
the overhead ratios versus the disabled-telemetry baseline go to
``BENCH_obs.json`` and ``bench_results.txt``.  The curves and mismatch
sets must be identical across sinks — telemetry observes, never perturbs.

Marked ``perf``: run with ``pytest --runperf benchmarks/test_perf_obs.py``.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import emit, scaled, write_bench_json
from repro.analysis.report import format_table
from repro.baselines.thehuzz import TheHuzzGenerator
from repro.fuzzing.campaign import Campaign
from repro.fuzzing.chatfuzz import FuzzLoop
from repro.obs.events import NULL_SINK, ListSink
from repro.obs.store import ResultsStore
from repro.soc.harness import HarnessFactory

BATCH_SIZE = 16
BODY_INSTRUCTIONS = 24


#: Timed repetitions per sink; best-of wins.  One campaign at this budget
#: runs well under a second, so scheduler/allocator noise and slow machine
#: drift dominate single runs — the sinks are measured *interleaved*
#: (round-robin, one run of each per round) so drift hits all three
#: equally, and the best round per sink is the stable cost estimate.
REPEATS = 3


def _run_campaign(sink, budget: int) -> tuple[float, object]:
    generator = TheHuzzGenerator(body_instructions=BODY_INSTRUCTIONS, seed=7)
    loop = FuzzLoop(generator, HarnessFactory("rocket"),
                    batch_size=BATCH_SIZE, sink=sink)
    start = time.perf_counter()
    with Campaign(loop, "obs-bench") as campaign:
        result = campaign.run_tests(budget)
    elapsed = time.perf_counter() - start
    return result.tests_run / elapsed, result


@pytest.mark.perf
def test_telemetry_overhead(tmp_path):
    budget = scaled(96)

    _run_campaign(NULL_SINK, budget)  # warm caches/allocator
    list_sink = ListSink()
    store = ResultsStore(tmp_path / "store")
    best: dict[str, float] = {}
    results: dict[str, object] = {}
    with store.sink() as store_sink:
        for _ in range(REPEATS):
            for name, sink in (("null", NULL_SINK), ("list", list_sink),
                               ("store", store_sink)):
                tps, results[name] = _run_campaign(sink, budget)
                best[name] = max(best.get(name, 0.0), tps)
    null_tps, list_tps, store_tps = best["null"], best["list"], best["store"]
    baseline, listed, stored = (results["null"], results["list"],
                                results["store"])

    # Telemetry observes, never perturbs: identical trajectories.
    assert listed.curve == baseline.curve
    assert stored.curve == baseline.curve
    assert {m.signature for m in stored.mismatches} == \
        {m.signature for m in baseline.mismatches}
    # And the durable sink actually recorded the run.
    assert list_sink.events
    assert len(store.read_events()) == len(list_sink.events) + 1  # +worker_started

    list_overhead = null_tps / list_tps if list_tps else 1.0
    store_overhead = null_tps / store_tps if store_tps else 1.0
    events_per_test = len(list_sink.events) / (REPEATS * budget)

    record = {
        "benchmark": "telemetry_overhead",
        "budget_tests": budget,
        "batch_size": BATCH_SIZE,
        "body_instructions": BODY_INSTRUCTIONS,
        "events_per_test": round(events_per_test, 2),
        "null_sink_tests_per_sec": round(null_tps, 1),
        "list_sink_tests_per_sec": round(list_tps, 1),
        "store_sink_tests_per_sec": round(store_tps, 1),
        # > 1.0 means telemetry costs throughput; the gates keep the
        # durable path within the acceptance budget.
        "list_sink_overhead": round(list_overhead, 3),
        "store_sink_overhead": round(store_overhead, 3),
    }
    headline = (
        f"store sink {store_overhead:.3f}x baseline "
        f"({events_per_test:.1f} events/test); list {list_overhead:.3f}x"
    )
    write_bench_json("BENCH_obs.json", record, headline=headline)

    emit(format_table(
        ["sink", "tests/sec", "overhead"],
        [["null (telemetry off)", f"{null_tps:.1f}", "1.000x"],
         ["list (in-memory)", f"{list_tps:.1f}", f"{list_overhead:.3f}x"],
         ["store (durable JSONL)", f"{store_tps:.1f}",
          f"{store_overhead:.3f}x"]],
        title=f"PERF-OBS: telemetry sink overhead ({budget} tests, "
              f"batch {BATCH_SIZE})",
    ))

    # Acceptance: the durable sink stays within a few percent of the
    # disabled-telemetry baseline (3% target + measurement noise).
    assert store_overhead <= 1.08
    assert list_overhead <= 1.05
