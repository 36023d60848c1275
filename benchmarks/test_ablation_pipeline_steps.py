"""A-NOCLEAN / A-NOCOV — ablating pipeline steps.

The paper motivates step 2 ("helps avoid unnecessary CPU simulation of
bad/malformed data") and step 3 (coverage-directed exploration) but does not
sweep them.  This ablation trains three variants from the same step-1
checkpoint — full pipeline, no-cleanup (skip step 2) and no-coverage-RL
(skip step 3) — and compares generation validity and campaign coverage.
"""

import numpy as np

from benchmarks.conftest import emit, scaled
from repro.analysis.report import format_table
from repro.fuzzing.campaign import Campaign
from repro.fuzzing.chatfuzz import FuzzLoop
from repro.ml.lm_training import LMTrainConfig
from repro.ml.pipeline import ChatFuzzPipeline, PipelineConfig
from repro.ml.rewards import DisassemblerReward
from repro.ml.transformer import GPT2Config
from repro.soc.harness import make_harness

CONFIG = PipelineConfig(
    corpus_functions=150,
    tokenizer_max_vocab=2048,
    model=GPT2Config(dim=48, n_layers=2, n_heads=2, max_seq=80),
    lm=LMTrainConfig(steps=250, batch_size=12, lr=2e-3),
    step2_steps=5,
    step3_steps=3,
    ppo_batch_size=12,
    response_instructions=16,
)


def _measure(pipeline, n_tests, seed):
    reward = DisassemblerReward()
    bodies = pipeline.make_generator(seed=seed).generate_batch(16)
    validity = float(np.mean([reward.validity_rate(b) for b in bodies]))
    loop = FuzzLoop(pipeline.make_generator(seed=seed + 1),
                    make_harness("rocket"), batch_size=20)
    result = Campaign(loop, "ablation").run_tests(n_tests)
    return validity, result.final_coverage_percent


def _run(n_tests):
    outcomes = {}
    for variant in ("full", "no-cleanup", "no-coverage-rl"):
        pipeline = ChatFuzzPipeline(CONFIG)
        pipeline.run_step1()
        if variant != "no-cleanup":
            pipeline.run_step2()
        if variant != "no-coverage-rl":
            pipeline.run_step3(make_harness("rocket"))
        outcomes[variant] = _measure(pipeline, n_tests, seed=71)
    return outcomes


def test_pipeline_step_ablation(benchmark):
    n_tests = scaled(200)
    outcomes = benchmark.pedantic(_run, args=(n_tests,), rounds=1, iterations=1)
    rows = [
        [variant, f"{validity:.2%}", f"{coverage:.2f}"]
        for variant, (validity, coverage) in outcomes.items()
    ]
    emit(format_table(
        ["pipeline variant", "generation validity", f"coverage% @ {n_tests}"],
        rows,
        title="A-NOCLEAN / A-NOCOV: ablating pipeline steps",
    ))
    full_validity, full_coverage = outcomes["full"]
    # The full pipeline should not lose to either ablation on its own
    # objective (small tolerances absorb sampling noise).
    assert full_validity >= outcomes["no-cleanup"][0] - 0.08
    assert full_coverage >= outcomes["no-coverage-rl"][1] - 2.0
