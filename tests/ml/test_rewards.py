"""Reward agents: Eq. 1 semantics and coverage-reward bookkeeping."""

import pytest

from repro.isa.encoder import encode
from repro.ml.rewards import CoverageReward, DisassemblerReward
from repro.soc.harness import make_harness

NOP = encode("addi", rd=0, rs1=0, imm=0)


class TestDisassemblerReward:
    def test_equation_one_unnormalised(self):
        reward = DisassemblerReward(normalize=False)
        # N=4, Invalid=1  ->  4 - 5*1 = -1
        assert reward([NOP, NOP, NOP, 0]) == -1.0

    def test_all_valid_unnormalised(self):
        reward = DisassemblerReward(normalize=False)
        assert reward([NOP] * 6 ) == 6.0

    def test_normalised_bounds(self):
        reward = DisassemblerReward(normalize=True)
        assert reward([NOP] * 8) == 1.0
        # all invalid: (N - 5N) / N = -4
        assert reward([0] * 8) == -4.0

    def test_penalty_configurable(self):
        reward = DisassemblerReward(penalty=2.0, normalize=False)
        assert reward([NOP, 0]) == 0.0

    def test_empty_sequence(self):
        assert DisassemblerReward()([]) == 0.0

    def test_validity_rate(self):
        reward = DisassemblerReward()
        assert reward.validity_rate([NOP, 0]) == 0.5
        assert reward.validity_rate([]) == 1.0

    def test_noise_only_for_ablation(self):
        clean = DisassemblerReward(seed=1)
        noisy = DisassemblerReward(noise_stddev=1.0, seed=1)
        words = [NOP] * 4
        assert clean(words) == clean(words)
        assert noisy(words) != noisy(words)  # fresh noise each call


class TestCoverageReward:
    def test_reward_positive_for_first_input(self):
        harness = make_harness("rocket")
        reward = CoverageReward(harness)
        reward.begin_batch()
        value = reward([encode("mul", rd=5, rs1=10, rs2=11)])
        assert value > 0
        assert reward.total_percent > 0

    def test_stagnation_scores_below_discovery(self):
        harness = make_harness("rocket")
        reward = CoverageReward(harness)
        body = [encode("addi", rd=5, rs1=0, imm=1)]
        reward.begin_batch()
        first = reward(body)
        reward.begin_batch()
        second = reward(body)  # identical input: no new coverage
        assert second < first

    def test_history_tracks_campaign_total(self):
        harness = make_harness("rocket")
        reward = CoverageReward(harness)
        reward.begin_batch()
        reward([NOP])
        reward([encode("mul", rd=5, rs1=10, rs2=11)])
        assert len(reward.history) == 2
        assert reward.history[1] >= reward.history[0]
