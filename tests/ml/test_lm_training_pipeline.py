"""Step-1 LM training and the full three-step pipeline at tiny scale."""

import numpy as np
import pytest

from repro.dataset.corpus import Corpus
from repro.ml.lm_training import LMTrainConfig, LMTrainer
from repro.ml.pipeline import ChatFuzzPipeline, PipelineConfig, PromptSampler
from repro.ml.rewards import DisassemblerReward
from repro.ml.tokenizer import HalfwordTokenizer
from repro.ml.transformer import GPT2Config, GPT2LMModel
from repro.soc.harness import make_harness

TINY_MODEL = GPT2Config(dim=16, n_layers=1, n_heads=2, max_seq=48)


@pytest.fixture(scope="module")
def corpus():
    return Corpus.synthesize(30, seed=3)


class TestLMTrainer:
    def test_loss_decreases(self, corpus):
        tokenizer = HalfwordTokenizer(max_vocab=512).train(corpus)
        model = GPT2LMModel(
            GPT2Config(vocab_size=tokenizer.vocab_size, max_seq=48,
                       dim=16, n_layers=1, n_heads=2), seed=0)
        trainer = LMTrainer(model, tokenizer,
                            LMTrainConfig(steps=60, batch_size=8, lr=2e-3))
        result = trainer.train(corpus)
        assert result.final_loss < result.initial_loss * 0.7

    def test_sequences_chunked_to_context(self, corpus):
        tokenizer = HalfwordTokenizer().train(corpus)
        model = GPT2LMModel(
            GPT2Config(vocab_size=tokenizer.vocab_size, max_seq=32,
                       dim=16, n_layers=1, n_heads=2))
        trainer = LMTrainer(model, tokenizer)
        sequences = trainer._build_sequences(corpus)
        assert sequences.shape[1] == 32
        assert sequences.dtype == np.int64

    def test_perplexity_finite(self, corpus):
        tokenizer = HalfwordTokenizer().train(corpus)
        model = GPT2LMModel(
            GPT2Config(vocab_size=tokenizer.vocab_size, max_seq=32,
                       dim=16, n_layers=1, n_heads=2))
        trainer = LMTrainer(model, tokenizer)
        assert np.isfinite(trainer.perplexity(corpus))

    def test_empty_corpus_rejected(self):
        tokenizer = HalfwordTokenizer().train([[0x13]])
        model = GPT2LMModel(GPT2Config(vocab_size=8, max_seq=16,
                                       dim=16, n_layers=1, n_heads=2))
        with pytest.raises(ValueError):
            LMTrainer(model, tokenizer).train([])


class TestPromptSampler:
    def test_prompt_lengths_in_bounds(self, corpus):
        tokenizer = HalfwordTokenizer().train(corpus)
        sampler = PromptSampler(corpus, tokenizer, (2, 5), seed=1)
        for _ in range(10):
            batch, n_instr = sampler.sample(4)
            assert 2 <= n_instr <= 5
            assert batch.shape == (4, 1 + 2 * n_instr)  # BOS + halfwords


@pytest.fixture(scope="module")
def tiny_pipeline():
    config = PipelineConfig(
        corpus_functions=30,
        tokenizer_max_vocab=512,
        model=TINY_MODEL,
        lm=LMTrainConfig(steps=50, batch_size=8, lr=2e-3),
        step2_steps=2,
        step3_steps=1,
        ppo_batch_size=6,
        response_instructions=6,
    )
    return ChatFuzzPipeline(config)


class TestPipeline:
    def test_vocab_wired_into_model(self, tiny_pipeline):
        assert (tiny_pipeline.model.config.vocab_size
                == tiny_pipeline.tokenizer.vocab_size)

    def test_all_three_steps_run(self, tiny_pipeline):
        result = tiny_pipeline.run_all(make_harness("rocket"))
        assert result.lm_result is not None
        assert len(result.step2_history.steps) == 2
        assert len(result.step3_history.steps) == 1
        assert result.step3_coverage_percent > 0

    def test_generator_emits_decodable_bodies(self, tiny_pipeline):
        generator = tiny_pipeline.make_generator(seed=1)
        bodies = generator.generate_batch(4)
        assert len(bodies) == 4
        for body in bodies:
            assert len(body) > 0
            assert all(isinstance(w, int) for w in body)

    def test_generator_bodies_mostly_valid(self, tiny_pipeline):
        """Even a tiny trained model produces mostly-decodable instructions
        (the corpus prompts alone guarantee a floor)."""
        reward = DisassemblerReward()
        bodies = tiny_pipeline.make_generator(seed=2).generate_batch(8)
        rates = [reward.validity_rate(b) for b in bodies]
        assert sum(rates) / len(rates) > 0.4
