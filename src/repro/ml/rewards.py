"""Deterministic reward agents for the PPO steps (paper §III-B2/3).

The paper deliberately avoids learned reward models: "Employing a
deterministic reward agent, we can provide the model with more precise
guidance".  Both agents here are deterministic; the optional
``noise_stddev`` on the disassembler agent exists solely for the A-SCORE
ablation, which quantifies that design argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coverage.calculator import CoverageCalculator
from repro.coverage.scoring import CoverageScorer, ScoreWeights
from repro.isa.disassembler import Disassembler


@dataclass
class DisassemblerReward:
    """Eq. 1: ``f(GenText_i) = N_i − penalty · Invalid_i`` (penalty = 5).

    ``normalize=True`` divides by the sequence length so rewards are
    comparable across response lengths (helps small-scale PPO stability
    without changing the optimum).
    """

    penalty: float = 5.0
    normalize: bool = True
    noise_stddev: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        self._disassembler = Disassembler()
        self._rng = np.random.default_rng(self.seed)

    def __call__(self, words: list[int]) -> float:
        total = len(words)
        invalid = self._disassembler.count_invalid(words)
        reward = float(total - self.penalty * invalid)
        if self.normalize and total:
            reward /= total
        if self.noise_stddev:
            reward += float(self._rng.normal(0.0, self.noise_stddev))
        return reward

    def validity_rate(self, words: list[int]) -> float:
        if not words:
            return 1.0
        return 1.0 - self._disassembler.count_invalid(words) / len(words)


class CoverageReward:
    """Step-3 reward: RTL-simulate the generation, score its coverage.

    Wraps a DUT harness with the Coverage Calculator and Scorer; the reward
    embeds stand-alone coverage, incremental coverage against the running
    campaign total, and the remaining-exploration bonus (paper §III-B3).
    ``begin_batch`` must be called once per PPO rollout batch so increments
    use the paper's batch-relative baseline.
    """

    def __init__(self, harness, weights: ScoreWeights | None = None) -> None:
        self.harness = harness
        self.calculator = CoverageCalculator(harness.total_arms)
        self.scorer = CoverageScorer(weights)
        #: Campaign telemetry, exposed for training curves.
        self.history: list[float] = []

    def begin_batch(self) -> None:
        self.calculator.begin_batch()

    def __call__(self, words: list[int]) -> float:
        _, report = self.harness.run_dut(list(words))
        coverage = self.calculator.observe(report)
        self.history.append(self.calculator.total_percent)
        return self.scorer.score(coverage)

    @property
    def total_percent(self) -> float:
        return self.calculator.total_percent
