"""Step 1 — unsupervised language-model training (paper §III-B1, §IV-C1).

The model "receives an input fragment of valid test vectors from our
collected dataset … and learns how to complete it": plain next-token
cross-entropy over tokenized corpus functions, chunked to the context size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.optim import Adam
from repro.ml.tokenizer import PAD


@dataclass
class LMTrainConfig:
    """Hyper-parameters for the unsupervised step."""

    batch_size: int = 16
    steps: int = 300
    lr: float = 1e-3
    grad_clip: float = 1.0
    seed: int = 0


@dataclass
class LMTrainResult:
    """Loss telemetry of one training run."""

    losses: list[float] = field(default_factory=list)

    @property
    def initial_loss(self) -> float:
        return self.losses[0] if self.losses else float("nan")

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


class LMTrainer:
    """Teacher-forced LM training over a tokenized corpus."""

    def __init__(self, model, tokenizer, config: LMTrainConfig | None = None):
        self.model = model
        self.tokenizer = tokenizer
        self.config = config or LMTrainConfig()
        self.rng = np.random.default_rng(self.config.seed)

    def _build_sequences(self, corpus) -> np.ndarray:
        """Tokenize every function and pack into fixed-length rows.

        Functions shorter than the context are PAD-extended (PAD targets are
        still predicted; with a tiny vocab this costs little and keeps the
        batch dense); longer ones are split into context-sized chunks.
        """
        length = self.model.config.max_seq
        rows: list[list[int]] = []
        for entry in corpus:
            tokens = self.tokenizer.encode_words(entry, add_bos=True, add_eos=True)
            for start in range(0, len(tokens), length):
                chunk = tokens[start : start + length]
                if len(chunk) < 8:  # skip degenerate tails
                    continue
                chunk = chunk + [PAD] * (length - len(chunk))
                rows.append(chunk)
        if not rows:
            raise ValueError("corpus produced no training sequences")
        return np.asarray(rows, dtype=np.int64)

    def train(self, corpus) -> LMTrainResult:
        """Run the configured number of steps; returns the loss history."""
        sequences = self._build_sequences(corpus)
        optimizer = Adam(self.model.parameters(), lr=self.config.lr,
                         grad_clip=self.config.grad_clip)
        result = LMTrainResult()
        n = sequences.shape[0]
        for step in range(self.config.steps):
            batch_idx = self.rng.integers(0, n, size=min(self.config.batch_size, n))
            batch = sequences[batch_idx]
            loss = self.model.lm_loss(batch)
            loss.backward()
            optimizer.step()
            result.losses.append(loss.item())
        return result

    def perplexity(self, corpus, max_rows: int = 64) -> float:
        """Evaluation perplexity over (a sample of) a held-out corpus."""
        sequences = self._build_sequences(corpus)[:max_rows]
        loss = self.model.lm_loss(sequences)
        return float(np.exp(loss.item()))
