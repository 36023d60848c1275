"""The three-step ChatFuzz training pipeline (paper Figure 1b).

1. **Initial Training** — train the tokenizer on the corpus and the GPT-2
   model with unsupervised next-token prediction, learning the machine
   language's structure.
2. **Model Language Cleanup** — PPO with the *disassembler* as deterministic
   reward agent (Eq. 1), removing illegal instruction combinations.
3. **Model Optimization** — PPO with the *coverage* reward computed from RTL
   simulation of each generation, steering the model toward unexplored
   hardware behaviour.

Prompts for both RL steps follow §IV-C2: the first 2–5 instructions of a
corpus sample, which the model must complete.

:class:`LLMInputGenerator` wraps the trained model for the fuzzing loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dataset.corpus import Corpus
from repro.ml.lm_training import LMTrainConfig, LMTrainer, LMTrainResult
from repro.ml.ppo import PPOConfig, PPOHistory, PPOTrainer
from repro.ml.rewards import CoverageReward, DisassemblerReward
from repro.ml.sampling import Sampler, SamplerConfig
from repro.ml.tokenizer import BOS, EOS, PAD, HalfwordTokenizer
from repro.ml.transformer import GPT2Config, GPT2LMModel


@dataclass
class PipelineConfig:
    """End-to-end configuration; defaults are laptop-scale (the comments
    give the paper's sizes)."""

    # Dataset (paper: ~500K vectors from the Linux kernel; 51.2K RL samples).
    corpus_functions: int = 300
    corpus_seed: int = 1

    # Tokenizer / model.
    tokenizer_max_vocab: int | None = 2048
    model: GPT2Config = field(default_factory=GPT2Config)
    model_seed: int = 0

    # Step 1.
    lm: LMTrainConfig = field(default_factory=LMTrainConfig)

    # Steps 2 and 3 (paper: 30 and 15 epochs respectively).
    ppo: PPOConfig = field(default_factory=PPOConfig)
    step2_steps: int = 12
    step3_steps: int = 6
    ppo_batch_size: int = 16
    prompt_instructions: tuple[int, int] = (2, 5)
    response_instructions: int = 16
    seed: int = 0


@dataclass
class PipelineResult:
    """Telemetry of a full pipeline run."""

    lm_result: LMTrainResult | None = None
    step2_history: PPOHistory | None = None
    step3_history: PPOHistory | None = None
    step3_coverage_percent: float = 0.0


class PromptSampler:
    """Samples PPO prompts: the first 2–5 instructions of corpus entries.

    Every batch uses a single prompt length so rows stay rectangular (the
    sampler and PPO then need no padding masks).
    """

    def __init__(self, corpus: Corpus, tokenizer, bounds: tuple[int, int],
                 seed: int = 0) -> None:
        self.corpus = corpus
        self.tokenizer = tokenizer
        self.bounds = bounds
        self.rng = np.random.default_rng(seed)

    def sample(self, batch_size: int) -> tuple[np.ndarray, int]:
        """Returns (token batch, n_prompt_instructions)."""
        lo, hi = self.bounds
        n_instr = int(self.rng.integers(lo, hi + 1))
        rows = []
        while len(rows) < batch_size:
            entry = self.corpus[int(self.rng.integers(0, len(self.corpus)))]
            if len(entry) < n_instr:
                continue
            tokens = self.tokenizer.encode_words(entry[:n_instr], add_bos=True)
            rows.append(tokens)
        return np.asarray(rows, dtype=np.int64), n_instr


class LLMInputGenerator:
    """The trained model, packaged as the fuzzing loop's input generator.

    ``generate_batch(n)`` returns ``n`` test bodies (lists of instruction
    words): prompt instructions + the model's completion, exactly how the
    paper's fuzzer builds test vectors.

    Batches are produced on the sampler's KV-cached decode fast path, so
    campaign throughput scales linearly (not quadratically) with the test
    body length — this is the fuzzer's hottest loop.
    """

    def __init__(self, model, tokenizer, corpus: Corpus,
                 prompt_bounds: tuple[int, int] = (2, 5),
                 response_instructions: int = 16,
                 sampler_config: SamplerConfig | None = None,
                 seed: int = 0) -> None:
        self.model = model
        self.tokenizer = tokenizer
        self.prompt_sampler = PromptSampler(corpus, tokenizer, prompt_bounds,
                                            seed=seed)
        self.response_instructions = response_instructions
        # Specials are suppressed so every generated body has the full,
        # TheHuzz-comparable instruction count (the paper holds instruction
        # counts equal across fuzzers).
        default_config = SamplerConfig(top_k=50,
                                       forbidden_tokens=(PAD, BOS, EOS))
        self.sampler = Sampler(model, sampler_config or default_config,
                               seed=seed + 1)

    def generate_batch(self, n: int) -> list[list[int]]:
        prompts, n_prompt_instr = self.prompt_sampler.sample(n)
        n_new = self.response_instructions * self.tokenizer.tokens_per_instruction
        budget = self.model.config.max_seq - prompts.shape[1]
        n_new = min(n_new, max(budget, self.tokenizer.tokens_per_instruction))
        tokens = self.sampler.generate(prompts, n_new)
        bodies = []
        for row in tokens:
            words = self.tokenizer.decode_tokens(row.tolist())
            bodies.append(words)
        return bodies


class ChatFuzzPipeline:
    """Orchestrates corpus synthesis + the three training steps."""

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.config = config or PipelineConfig()
        self.corpus = Corpus.synthesize(self.config.corpus_functions,
                                        seed=self.config.corpus_seed)
        self.tokenizer = HalfwordTokenizer(self.config.tokenizer_max_vocab)
        self.tokenizer.train(self.corpus)
        model_config = GPT2Config(
            vocab_size=self.tokenizer.vocab_size,
            max_seq=self.config.model.max_seq,
            dim=self.config.model.dim,
            n_layers=self.config.model.n_layers,
            n_heads=self.config.model.n_heads,
            mlp_ratio=self.config.model.mlp_ratio,
            tie_embeddings=self.config.model.tie_embeddings,
        )
        self.model = GPT2LMModel(model_config, seed=self.config.model_seed)
        self.result = PipelineResult()

    # -- step 1 -------------------------------------------------------------------

    def run_step1(self) -> LMTrainResult:
        """Unsupervised training on the corpus."""
        trainer = LMTrainer(self.model, self.tokenizer, self.config.lm)
        self.result.lm_result = trainer.train(self.corpus)
        return self.result.lm_result

    # -- step 2 -------------------------------------------------------------------

    def run_step2(self, reward: DisassemblerReward | None = None) -> PPOHistory:
        """PPO clean-up with the disassembler reward agent."""
        reward = reward or DisassemblerReward()
        trainer = PPOTrainer(
            self.model, self.model.clone(), reward, self.tokenizer,
            config=self.config.ppo, seed=self.config.seed,
        )
        prompts = PromptSampler(self.corpus, self.tokenizer,
                                self.config.prompt_instructions,
                                seed=self.config.seed + 2)
        tokens_per = self.tokenizer.tokens_per_instruction
        for _ in range(self.config.step2_steps):
            batch, _ = prompts.sample(self.config.ppo_batch_size)
            budget = self.model.config.max_seq - batch.shape[1]
            n_new = min(self.config.response_instructions * tokens_per, budget)
            trainer.step(batch, n_new)
        self.result.step2_history = trainer.history
        return trainer.history

    # -- step 3 -------------------------------------------------------------------

    def run_step3(self, harness, reward: CoverageReward | None = None) -> PPOHistory:
        """PPO coverage optimisation against a DUT harness."""
        reward = reward or CoverageReward(harness)
        trainer = PPOTrainer(
            self.model, self.model.clone(), reward, self.tokenizer,
            config=self.config.ppo, seed=self.config.seed + 10,
        )
        prompts = PromptSampler(self.corpus, self.tokenizer,
                                self.config.prompt_instructions,
                                seed=self.config.seed + 12)
        tokens_per = self.tokenizer.tokens_per_instruction
        for _ in range(self.config.step3_steps):
            reward.begin_batch()
            batch, _ = prompts.sample(self.config.ppo_batch_size)
            budget = self.model.config.max_seq - batch.shape[1]
            n_new = min(self.config.response_instructions * tokens_per, budget)
            trainer.step(batch, n_new)
        self.result.step3_history = trainer.history
        self.result.step3_coverage_percent = reward.total_percent
        return trainer.history

    # -- all together ----------------------------------------------------------------

    def run_all(self, harness) -> PipelineResult:
        self.run_step1()
        self.run_step2()
        self.run_step3(harness)
        return self.result

    def make_generator(self, seed: int = 100,
                       response_instructions: int | None = None) -> LLMInputGenerator:
        """Package the (current) model for the fuzzing loop."""
        return LLMInputGenerator(
            self.model,
            self.tokenizer,
            self.corpus,
            prompt_bounds=self.config.prompt_instructions,
            response_instructions=(
                response_instructions or self.config.response_instructions
            ),
            seed=seed,
        )
