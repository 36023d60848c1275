"""Shared infrastructure for the experiment benchmarks.

Every benchmark regenerates one paper artifact, named in its module
docstring.  The trained ChatFuzz model is expensive, so it is built once
per session and cached on disk under ``.bench_cache/`` — delete the
directory to retrain.

Scaling: campaigns default to a few hundred tests (laptop-scale); set
``CHATFUZZ_BENCH_SCALE`` (float ≥ 1) to run longer campaigns approaching
paper scale.  Result tables are printed *and* appended to
``bench_results.txt`` in the repository root, which EXPERIMENTS.md references.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import pytest

from repro.fuzzing.executor import HarnessExecutor, SerialExecutor
from repro.fuzzing.pool import ShardedExecutor

from repro.dataset.corpus import Corpus
from repro.ml.lm_training import LMTrainConfig, LMTrainer
from repro.ml.pipeline import LLMInputGenerator, PipelineConfig, ChatFuzzPipeline
from repro.ml.tokenizer import HalfwordTokenizer
from repro.ml.transformer import GPT2Config, GPT2LMModel
from repro.soc.harness import make_harness

REPO_ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = REPO_ROOT / ".bench_cache"
RESULTS_PATH = REPO_ROOT / "bench_results.txt"

#: Scale factor for campaign budgets (1.0 = laptop-scale defaults).
SCALE = float(os.environ.get("CHATFUZZ_BENCH_SCALE", "1.0"))


def scaled(n: int) -> int:
    """Scale a test budget by CHATFUZZ_BENCH_SCALE."""
    return max(16, int(n * SCALE))


def _section_key(title: str) -> str:
    """The part of a section title that identifies the *artifact*.

    Benchmark titles follow ``"NAME: parameters"``, and the parameters can
    embed machine facts (core counts), so matching on the full title would
    re-append rather than replace when the same benchmark runs on different
    hardware.  Key on the name before the colon; titles without one are
    their own key.
    """
    return title.split(":", 1)[0].strip()


def emit(table: str) -> None:
    """Print a result table and write it to bench_results.txt.

    Sections are keyed by benchmark (see :func:`_section_key`): re-running
    one *replaces* its section in place instead of appending another copy —
    the file stays one-section-per-artifact no matter how many times
    ``--runperf`` runs or on which machine.  Unknown benchmarks append at
    the end, preserving the historical ordering of the file.
    """
    print("\n" + table)
    key = _section_key(table.splitlines()[0])
    blocks = []
    if RESULTS_PATH.exists():
        blocks = [block for block in RESULTS_PATH.read_text().split("\n\n")
                  if block.strip()]
    replaced = False
    kept: list[str] = []
    for block in blocks:
        if _section_key(block.splitlines()[0]) == key:
            if not replaced:
                kept.append(table)  # replace the first occurrence in place
                replaced = True
            continue  # drop historical duplicates of the same section
        kept.append(block)
    if not replaced:
        kept.append(table)
    RESULTS_PATH.write_text("\n\n".join(kept) + "\n\n")


#: One line per BENCH_*.json written this session, for the terminal summary.
_BENCH_SUMMARY: list[str] = []


def machine_context() -> dict:
    """The host facts every benchmark artifact should carry, uniformly."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def write_bench_json(filename: str, record: dict,
                     headline: str | None = None) -> Path:
    """Write a machine-readable benchmark artifact (``BENCH_*.json``) to the
    repository root; shared by the perf micro-benchmarks.

    Every record is stamped with the host's :func:`machine_context` so
    numbers from different machines are comparable, and registered for the
    one-line-per-benchmark table printed at the end of ``--runperf`` runs
    (``headline`` is that line's free-text result summary).
    """
    record = dict(record)
    record.setdefault("machine", machine_context())
    if headline is not None:
        record.setdefault("headline", headline)
    path = REPO_ROOT / filename
    path.write_text(json.dumps(record, indent=2) + "\n")
    name = record.get("benchmark", filename)
    _BENCH_SUMMARY.append(
        f"{filename:<24} {name:<28} {record.get('headline', '')}".rstrip()
    )
    # The one-line-per-artifact table is printed at session end by the root
    # conftest's pytest_terminal_summary (this module is imported by the
    # benchmarks as a plain module, not as pytest's conftest plugin, so the
    # hook cannot live here).
    return path


#: Worker-pool size for campaign benches (0 = serial, the default).
BENCH_WORKERS = int(os.environ.get("CHATFUZZ_BENCH_WORKERS", "0"))


def bench_executor(factory) -> HarnessExecutor:
    """Executor for campaign benches per ``CHATFUZZ_BENCH_WORKERS``.

    A serial in-process executor by default, else a ShardedExecutor over
    ``factory``.  Sharded results are order-identical to serial (see
    ``repro.fuzzing.executor``), so the knob changes wall-clock only, never
    the curves.
    """
    if BENCH_WORKERS <= 1:
        return SerialExecutor(factory)
    return ShardedExecutor(factory, n_workers=BENCH_WORKERS)


BENCH_PIPELINE_CONFIG = PipelineConfig(
    corpus_functions=250,
    tokenizer_max_vocab=2048,
    model=GPT2Config(dim=48, n_layers=2, n_heads=2, max_seq=80),
    lm=LMTrainConfig(steps=450, batch_size=12, lr=2e-3),
    step2_steps=6,
    step3_steps=3,
    ppo_batch_size=12,
    response_instructions=20,
)


class TrainedChatFuzz:
    """The trained artifacts a fuzzing campaign needs."""

    def __init__(self, model, tokenizer, corpus):
        self.model = model
        self.tokenizer = tokenizer
        self.corpus = corpus

    def generator(self, seed: int = 0,
                  response_instructions: int = 20) -> LLMInputGenerator:
        return LLMInputGenerator(
            self.model, self.tokenizer, self.corpus,
            prompt_bounds=(2, 5),
            response_instructions=response_instructions,
            seed=seed,
        )


def _train_and_cache() -> TrainedChatFuzz:
    CACHE_DIR.mkdir(exist_ok=True)
    model_path = CACHE_DIR / "model.npz"
    tokenizer_path = CACHE_DIR / "tokenizer.json"
    corpus_path = CACHE_DIR / "corpus.json"
    if model_path.exists() and tokenizer_path.exists() and corpus_path.exists():
        return TrainedChatFuzz(
            GPT2LMModel.load(model_path),
            HalfwordTokenizer.load(tokenizer_path),
            Corpus.load(corpus_path),
        )
    pipeline = ChatFuzzPipeline(BENCH_PIPELINE_CONFIG)
    pipeline.run_step1()
    pipeline.run_step2()
    pipeline.run_step3(make_harness("rocket"))
    pipeline.model.save(model_path)
    pipeline.tokenizer.save(tokenizer_path)
    pipeline.corpus.save(corpus_path)
    return TrainedChatFuzz(pipeline.model, pipeline.tokenizer, pipeline.corpus)


@pytest.fixture(scope="session")
def chatfuzz() -> TrainedChatFuzz:
    """The fully-trained (3-step) ChatFuzz model, cached across sessions."""
    return _train_and_cache()
