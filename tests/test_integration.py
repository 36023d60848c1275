"""End-to-end integration: a miniature ChatFuzz campaign finds the paper's
bugs and out-covers the mutation baseline on the same budget."""

import pytest

from repro.analysis.bugs import detected_bugs
from repro.baselines.thehuzz import TheHuzzGenerator
from repro.fuzzing.campaign import Campaign
from repro.fuzzing.chatfuzz import FuzzLoop
from repro.ml.lm_training import LMTrainConfig
from repro.ml.pipeline import ChatFuzzPipeline, PipelineConfig
from repro.ml.transformer import GPT2Config
from repro.soc.harness import make_harness


@pytest.fixture(scope="module")
def trained_pipeline():
    config = PipelineConfig(
        corpus_functions=150,
        tokenizer_max_vocab=2048,
        model=GPT2Config(dim=48, n_layers=2, n_heads=2, max_seq=80),
        lm=LMTrainConfig(steps=300, batch_size=12, lr=2e-3),
        step2_steps=4,
        step3_steps=2,
        ppo_batch_size=8,
        response_instructions=20,
    )
    pipeline = ChatFuzzPipeline(config)
    pipeline.run_all(make_harness("rocket"))
    return pipeline


class TestEndToEnd:
    def test_chatfuzz_campaign_finds_bugs(self, trained_pipeline):
        loop = FuzzLoop(trained_pipeline.make_generator(seed=31),
                        make_harness("rocket"), batch_size=16)
        result = Campaign(loop, "chatfuzz-mini").run_tests(160)
        assert result.raw_mismatches > 0
        assert result.unique_mismatches >= 3
        bugs = detected_bugs(loop.detector.unique.values())
        # Bug2 fires on any mul/div; Bug1 needs an unfenced patch sequence;
        # a mini campaign must find at least these plus one more behaviour.
        assert "BUG2" in bugs
        assert len(bugs) >= 2, bugs

    def test_chatfuzz_beats_thehuzz_at_equal_budget(self, trained_pipeline):
        budget = 160
        chat_loop = FuzzLoop(trained_pipeline.make_generator(seed=33),
                             make_harness("rocket"), batch_size=16)
        chat = Campaign(chat_loop, "chatfuzz").run_tests(budget)
        huzz_loop = FuzzLoop(TheHuzzGenerator(body_instructions=24, seed=5),
                             make_harness("rocket"), batch_size=16)
        huzz = Campaign(huzz_loop, "thehuzz").run_tests(budget)
        assert chat.final_coverage_percent > huzz.final_coverage_percent

    def test_clock_maps_tests_to_paper_time_axis(self, trained_pipeline):
        loop = FuzzLoop(trained_pipeline.make_generator(seed=35),
                        make_harness("rocket"), batch_size=16)
        result = Campaign(loop, "timed").run_tests(32)
        expected_hours = (2360.0 + 32 * 0.4223) / 3600.0
        assert result.sim_hours == pytest.approx(expected_hours, rel=1e-6)
