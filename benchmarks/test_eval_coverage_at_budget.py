"""E-1P8K / E-199K — coverage at matched test budgets (paper §V-A).

Paper numbers for RocketCore:

- at 1.8 K tests (same instruction count per test):
  ChatFuzz **74.96%** vs TheHuzz **67.4%** condition coverage;
- at 199 K tests: ChatFuzz **79.14%** vs TheHuzz **76.7%**.

The bench runs both fuzzers at a scaled-down matched budget (the short-run
point) and a 4x longer budget (the long-run point), checking that the gap
and the ordering match the paper's shape.
"""

from benchmarks.conftest import bench_executor, emit, scaled
from repro.analysis.report import format_table
from repro.baselines.thehuzz import TheHuzzGenerator
from repro.fuzzing.campaign import Campaign
from repro.fuzzing.chatfuzz import FuzzLoop
from repro.soc.harness import HarnessFactory

PAPER = {
    "short": {"ChatFuzz": 74.96, "TheHuzz": 67.4, "tests": 1800},
    "long": {"ChatFuzz": 79.14, "TheHuzz": 76.7, "tests": 199_000},
}


def _run(chatfuzz, budget_short, budget_long):
    outcomes = {}
    for name, generator in [
        ("ChatFuzz", chatfuzz.generator(seed=111)),
        ("TheHuzz", TheHuzzGenerator(body_instructions=24, seed=17)),
    ]:
        # CHATFUZZ_BENCH_WORKERS shards simulation over a worker pool;
        # curves are identical to serial either way (executor parity).
        loop = FuzzLoop(generator, batch_size=20,
                        executor=bench_executor(HarnessFactory("rocket")))
        with Campaign(loop, name) as campaign:
            result = campaign.run_tests(budget_long)
        outcomes[name] = {
            "short": result.coverage_at_tests(budget_short),
            "long": result.final_coverage_percent,
        }
    return outcomes


def test_coverage_at_budget(benchmark, chatfuzz):
    budget_short = scaled(150)
    budget_long = scaled(600)
    outcomes = benchmark.pedantic(
        _run, args=(chatfuzz, budget_short, budget_long), rounds=1, iterations=1
    )
    rows = []
    for point, budget in (("short", budget_short), ("long", budget_long)):
        for fuzzer in ("ChatFuzz", "TheHuzz"):
            rows.append([
                point, budget, fuzzer,
                f"{outcomes[fuzzer][point]:.2f}",
                f"{PAPER[point][fuzzer]:.2f} @ {PAPER[point]['tests']}",
            ])
    emit(format_table(
        ["point", "tests (scaled)", "fuzzer", "measured cov%", "paper cov% @ tests"],
        rows,
        title="E-1P8K / E-199K: condition coverage at matched budgets, RocketCore",
    ))
    # Shape: ChatFuzz leads at both budgets; the short-run gap is the larger
    # one (paper: 7.6 points short vs 2.4 long).
    short_gap = outcomes["ChatFuzz"]["short"] - outcomes["TheHuzz"]["short"]
    long_gap = outcomes["ChatFuzz"]["long"] - outcomes["TheHuzz"]["long"]
    assert short_gap > 0, f"short-run gap {short_gap:.2f}"
    assert long_gap > 0, f"long-run gap {long_gap:.2f}"
    assert outcomes["ChatFuzz"]["short"] > 65.0
