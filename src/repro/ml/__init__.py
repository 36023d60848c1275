"""The ML subsystem: everything the paper builds on PyTorch/HuggingFace/TRL,
re-implemented on numpy.

Layers of the stack:

- :mod:`repro.ml.tensor` — a vectorised reverse-mode autograd engine.
- :mod:`repro.ml.layers`, :mod:`repro.ml.attention`,
  :mod:`repro.ml.transformer` — a GPT-2-family causal LM with a value head.
- :mod:`repro.ml.tokenizer` — machine-language tokenizers (half-word, the
  paper's representation; and an instruction-field alternative).
- :mod:`repro.ml.optim`, :mod:`repro.ml.sampling` — Adam and
  temperature/top-k/top-p generation.
- :mod:`repro.ml.kvcache` — the per-layer K/V cache behind the
  prefill/decode inference fast path.  Training forwards run on the
  autograd engine; generation (fuzzing campaigns, PPO rollouts) runs on a
  raw-numpy cached path that is token-identical but O(T·L) instead of
  O(T²·L) per sequence.
- :mod:`repro.ml.lm_training` — step 1: unsupervised language modelling.
- :mod:`repro.ml.ppo` — TRL-style PPO with per-token KL penalty vs. a frozen
  reference model (steps 2 and 3).
- :mod:`repro.ml.rewards` — the deterministic reward agents: disassembler
  (Eq. 1) and coverage scorer.
- :mod:`repro.ml.pipeline` — the three-step training orchestration of
  Figure 1b.
"""

from repro.ml.kvcache import KVCache
from repro.ml.pipeline import ChatFuzzPipeline, PipelineConfig
from repro.ml.tokenizer import FieldTokenizer, HalfwordTokenizer
from repro.ml.transformer import GPT2Config, GPT2LMModel

__all__ = [
    "ChatFuzzPipeline",
    "FieldTokenizer",
    "GPT2Config",
    "GPT2LMModel",
    "HalfwordTokenizer",
    "KVCache",
    "PipelineConfig",
]
