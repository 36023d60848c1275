"""A-PENALTY / A-SCORE — reward-design ablations.

- A-PENALTY sweeps the invalid-instruction penalty around the paper's
  ``f = N − 5·Invalid`` (Eq. 1): with no penalty there is no pressure toward
  legality; heavier penalties push validity up.
- A-SCORE adds Gaussian noise to the reward agent, quantifying the paper's
  argument for *deterministic* reward agents ("prevent uncertainty and
  reduce errors").
"""

import numpy as np

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.ml.lm_training import LMTrainConfig
from repro.ml.pipeline import ChatFuzzPipeline, PipelineConfig
from repro.ml.rewards import DisassemblerReward
from repro.ml.transformer import GPT2Config

CONFIG = PipelineConfig(
    corpus_functions=120,
    tokenizer_max_vocab=2048,
    model=GPT2Config(dim=32, n_layers=2, n_heads=2, max_seq=80),
    lm=LMTrainConfig(steps=200, batch_size=12, lr=2e-3),
    step2_steps=5,
    ppo_batch_size=12,
    response_instructions=16,
)


def _validity(pipeline, seed=81):
    probe = DisassemblerReward()
    bodies = pipeline.make_generator(seed=seed).generate_batch(16)
    return float(np.mean([probe.validity_rate(b) for b in bodies]))


def _train_with(reward):
    pipeline = ChatFuzzPipeline(CONFIG)
    pipeline.run_step1()
    pipeline.run_step2(reward=reward)
    return _validity(pipeline), pipeline.result.step2_history.mean_rewards[-1]


def _run():
    outcomes = {}
    for label, reward in [
        ("penalty=0", DisassemblerReward(penalty=0.0)),
        ("penalty=5 (paper)", DisassemblerReward(penalty=5.0)),
        ("penalty=10", DisassemblerReward(penalty=10.0)),
        ("penalty=5 + noise(1.0)", DisassemblerReward(penalty=5.0,
                                                      noise_stddev=1.0)),
    ]:
        outcomes[label] = _train_with(reward)
    return outcomes


def test_reward_ablation(benchmark):
    outcomes = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = [
        [label, f"{validity:.2%}", f"{reward:+.3f}"]
        for label, (validity, reward) in outcomes.items()
    ]
    emit(format_table(
        ["reward agent", "validity after step2", "final mean reward"],
        rows,
        title="A-PENALTY / A-SCORE: step-2 reward design ablation",
    ))
    # All variants train stably; the deterministic paper setting must not
    # lose badly to its own noisy variant (the paper's determinism argument
    # is about precision of guidance, which shows up as lower variance —
    # with one seed we only check it stays competitive).
    paper = outcomes["penalty=5 (paper)"][0]
    assert paper >= outcomes["penalty=0"][0] - 0.10
    assert all(np.isfinite(v) for v, _ in outcomes.values())
