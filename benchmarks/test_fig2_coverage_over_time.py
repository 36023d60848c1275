"""FIG2 — condition coverage over time, RocketCore (paper Figure 2).

The paper plots ChatFuzz and TheHuzz condition coverage across 24 hours of
fuzzing: ChatFuzz rises steeply to ~75% within the first hour and plateaus
near 79%, while TheHuzz climbs slowly toward ~77%.  This bench reruns both
campaigns on the RocketCore model, maps test counts onto the paper's time
axis with the calibrated SimClock, and prints the two series.
"""

from benchmarks.conftest import bench_executor, emit, scaled
from repro.analysis.report import format_table
from repro.baselines.thehuzz import TheHuzzGenerator
from repro.fuzzing.campaign import Campaign
from repro.fuzzing.chatfuzz import FuzzLoop
from repro.soc.harness import HarnessFactory


def _run_campaigns(chatfuzz, n_tests):
    results = {}
    for name, generator in [
        ("ChatFuzz", chatfuzz.generator(seed=101)),
        ("TheHuzz", TheHuzzGenerator(body_instructions=24, seed=7)),
    ]:
        # CHATFUZZ_BENCH_WORKERS shards simulation over a worker pool;
        # curves are identical to serial either way (executor parity).
        loop = FuzzLoop(generator, batch_size=20,
                        executor=bench_executor(HarnessFactory("rocket")))
        with Campaign(loop, name) as campaign:
            results[name] = campaign.run_tests(n_tests)
    return results


def test_fig2_coverage_over_time(benchmark, chatfuzz):
    n_tests = scaled(500)
    results = benchmark.pedantic(
        _run_campaigns, args=(chatfuzz, n_tests), rounds=1, iterations=1
    )
    # Sample both series at the same simulated-time points.
    fractions = (0.1, 0.25, 0.5, 0.75, 1.0)
    total = results["ChatFuzz"].curve[-1].tests
    rows = []
    for fraction in fractions:
        at = int(total * fraction)
        chat = results["ChatFuzz"].coverage_at_tests(at)
        huzz = results["TheHuzz"].coverage_at_tests(at)
        hours = results["ChatFuzz"].curve[-1].sim_hours * fraction
        rows.append([at, f"{hours:.2f}", f"{chat:.2f}", f"{huzz:.2f}"])
    emit(format_table(
        ["tests", "sim-hours", "ChatFuzz cov%", "TheHuzz cov%"], rows,
        title=f"FIG2: coverage over time, RocketCore ({n_tests} tests/fuzzer)\n"
              "paper shape: ChatFuzz rises fast to ~75-79%, TheHuzz trails",
    ))
    chat_final = results["ChatFuzz"].final_coverage_percent
    huzz_final = results["TheHuzz"].final_coverage_percent
    # Shape assertions: ChatFuzz dominates at every sampled point.
    for fraction in fractions:
        at = int(total * fraction)
        assert (results["ChatFuzz"].coverage_at_tests(at)
                >= results["TheHuzz"].coverage_at_tests(at) - 0.5), fraction
    assert chat_final > huzz_final
