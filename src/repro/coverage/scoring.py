"""Input scoring: coverage values -> scalar score/reward (paper §III-B3).

The paper's step-3 reward "takes into account the overall knowledge of
architecture until the i-th step, the incremental coverage (i.e., whether
there was an improvement), and stand-alone coverage", giving a bonus to
inputs that increase coverage and a negative reward to those that do not.
:class:`CoverageScorer` implements exactly that shape with explicit weights.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.coverage.calculator import InputCoverage


@dataclass(frozen=True)
class ScoreWeights:
    """Weights of the coverage-based reward.

    score = standalone_weight * standalone_fraction
          + incremental_weight * (incremental / total_arms)
          + improvement_bonus                    (if incremental > 0)
          - stagnation_penalty                   (if incremental == 0)
          + exploration_weight * (1 - total_fraction)  * standalone_fraction

    The final term scales the value of standalone coverage by how much of the
    design is still unexplored ("overall knowledge of the architecture").
    """

    standalone_weight: float = 2.0
    incremental_weight: float = 30.0
    improvement_bonus: float = 1.0
    stagnation_penalty: float = 1.0
    exploration_weight: float = 1.0


class CoverageScorer:
    """Deterministic reward agent for coverage feedback (no learned scorer —
    the paper argues deterministic agents give more precise guidance)."""

    def __init__(self, weights: ScoreWeights | None = None) -> None:
        self.weights = weights or ScoreWeights()

    def score(self, coverage: InputCoverage) -> float:
        """Scalar score for one test input's coverage outcome."""
        w = self.weights
        value = w.standalone_weight * coverage.standalone_fraction
        if coverage.total_arms:
            value += w.incremental_weight * (
                coverage.incremental / coverage.total_arms
            )
        if coverage.improved:
            value += w.improvement_bonus
        else:
            value -= w.stagnation_penalty
        value += (
            w.exploration_weight
            * (1.0 - coverage.total_fraction)
            * coverage.standalone_fraction
        )
        return value

    def score_batch(self, coverages: list[InputCoverage]) -> list[float]:
        """Score a whole batch, one :meth:`score` per input."""
        return [self.score(coverage) for coverage in coverages]
