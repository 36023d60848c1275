"""E-DIFU — baseline ordering (paper §I context claims).

"TheHuzz exhibits greater efficiency compared to random regression
techniques and is approximately **3.33x swifter** than DifuzzRTL."  The
bench races TheHuzz, DifuzzRTL (same engine, control-register-only feedback)
and random regression to a common coverage target and reports the simulated
time each one needed.
"""

from benchmarks.conftest import emit, scaled
from repro.analysis.report import format_table
from repro.baselines.difuzzrtl import DifuzzRTLGenerator
from repro.baselines.random_regression import RandomRegressionGenerator
from repro.baselines.thehuzz import TheHuzzGenerator
from repro.fuzzing.campaign import Campaign
from repro.fuzzing.chatfuzz import FuzzLoop
from repro.soc.harness import make_harness


def _race(target, max_tests):
    outcomes = {}
    for name in ("TheHuzz", "DifuzzRTL", "random"):
        harness = make_harness("rocket")
        if name == "TheHuzz":
            generator = TheHuzzGenerator(body_instructions=24, seed=37)
        elif name == "DifuzzRTL":
            generator = DifuzzRTLGenerator.for_core(
                harness.core, body_instructions=24, seed=37)
        else:
            generator = RandomRegressionGenerator(body_instructions=24, seed=37)
        loop = FuzzLoop(generator, harness, batch_size=20)
        result = Campaign(loop, name).run_to_coverage(target, max_tests)
        outcomes[name] = result
    return outcomes


def _fuzz_hours(result, target):
    """Simulated fuzzing time to target, excluding the one-time elaboration
    cost (the paper's throughput comparison is about the fuzzing itself)."""
    total = result.time_to_coverage(target)
    if total is None:
        return None
    from repro.fuzzing.simclock import DEFAULT_ELAB_SECONDS

    return max(total - DEFAULT_ELAB_SECONDS / 3600.0, 1e-9)


def test_baseline_comparison(benchmark):
    target = 71.0
    max_tests = scaled(1200)
    outcomes = benchmark.pedantic(_race, args=(target, max_tests),
                                  rounds=1, iterations=1)
    rows = []
    for name, result in outcomes.items():
        hours = _fuzz_hours(result, target)
        rows.append([
            name,
            f"{result.final_coverage_percent:.2f}",
            str(result.tests_run),
            f"{hours:.3f} h" if hours else f"not reached @ {result.tests_run}",
        ])
    the_huzz = _fuzz_hours(outcomes["TheHuzz"], target)
    difuzz = _fuzz_hours(outcomes["DifuzzRTL"], target)
    if the_huzz and difuzz:
        rows.append(["TheHuzz vs DifuzzRTL", "", "",
                     f"{difuzz / the_huzz:.2f}x (paper ~3.33x)"])
    emit(format_table(
        ["fuzzer", "final cov%", "tests", f"fuzz-time to {target}%"],
        rows,
        title="E-DIFU: coverage-guided baselines race, RocketCore "
              "(times exclude the one-off elaboration cost)",
    ))
    # Ordering: the paper's claim is TheHuzz >= DifuzzRTL.  Tolerate noise
    # in absolute times but require TheHuzz not to lose.
    assert the_huzz is not None, "TheHuzz failed to reach the target"
    if difuzz is not None:
        assert the_huzz <= difuzz * 1.15
