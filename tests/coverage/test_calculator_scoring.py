"""Coverage Calculator (§IV-B) and input scoring (§III-B3) semantics."""

import pytest

from repro.coverage.calculator import CoverageCalculator, InputCoverage
from repro.coverage.scoring import CoverageScorer, ScoreWeights
from repro.rtl.report import CoverageReport


def report(hits, total=20):
    return CoverageReport(hits=frozenset(hits), total_arms=total)


class TestCalculator:
    def test_standalone_incremental_total(self):
        calc = CoverageCalculator(total_arms=20)
        calc.begin_batch()
        first = calc.observe(report({0, 1, 2}))
        assert first.standalone == 3
        assert first.incremental == 3
        assert first.total == 3
        second = calc.observe(report({2, 3}))
        assert second.standalone == 2
        assert second.incremental == 2   # batch baseline was empty
        assert second.total == 4

    def test_batch_mode_baseline(self):
        """Within a batch, increments are measured against the *previous
        batch's* total — the paper's granularity."""
        calc = CoverageCalculator(total_arms=20)
        calc.begin_batch()
        calc.observe(report({0, 1}))
        repeat = calc.observe(report({0, 1}))
        assert repeat.incremental == 2  # not shadowed within the batch
        calc.begin_batch()
        after = calc.observe(report({0, 1}))
        assert after.incremental == 0   # now part of the baseline

    def test_observe_batch_resets_baseline(self):
        calc = CoverageCalculator(total_arms=20)
        outcomes = calc.observe_batch([report({0}), report({0, 1})])
        assert [o.incremental for o in outcomes] == [1, 2]

    def test_percent(self):
        calc = CoverageCalculator(total_arms=10)
        calc.begin_batch()
        calc.observe(report({0, 1, 2, 3, 4}, total=10))
        assert calc.total_percent == 50.0


class TestInputCoverage:
    def test_fractions(self):
        cov = InputCoverage(standalone=5, incremental=2, total=10, total_arms=20)
        assert cov.standalone_fraction == 0.25
        assert cov.total_fraction == 0.5
        assert cov.total_percent == 50.0
        assert cov.improved

    def test_zero_arms(self):
        cov = InputCoverage(0, 0, 0, 0)
        assert cov.standalone_fraction == 0.0
        assert not cov.improved


class TestScorer:
    def test_improvement_beats_stagnation(self):
        scorer = CoverageScorer()
        improved = InputCoverage(5, 3, 10, 100)
        stagnant = InputCoverage(5, 0, 10, 100)
        assert scorer.score(improved) > scorer.score(stagnant)

    def test_stagnation_penalty_applied(self):
        scorer = CoverageScorer(ScoreWeights(
            standalone_weight=0, incremental_weight=0,
            improvement_bonus=0, stagnation_penalty=2.5, exploration_weight=0))
        assert scorer.score(InputCoverage(5, 0, 10, 100)) == -2.5

    def test_exploration_term_decays_with_total(self):
        scorer = CoverageScorer(ScoreWeights(
            standalone_weight=0, incremental_weight=0,
            improvement_bonus=0, stagnation_penalty=0, exploration_weight=1.0))
        early = scorer.score(InputCoverage(50, 0, 10, 100))
        late = scorer.score(InputCoverage(50, 0, 90, 100))
        assert early > late

    def test_score_batch(self):
        scorer = CoverageScorer()
        scores = scorer.score_batch([InputCoverage(1, 1, 1, 10)] * 3)
        assert len(scores) == 3
        assert scores[0] == scores[1] == scores[2]
