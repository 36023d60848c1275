"""The benchmark's four workloads, each a closed loop with one client.

Every workload is a sequence of *episodes*: fixed-budget runs of the
public API (``FuzzLoop``/``Campaign``, ``FleetRunner``, ``PPOTrainer``),
each seeded from the run's ``--seed`` and the episode index, so the same
seed always gives the same inputs.  An episode starts from fresh fuzzer
state (and, for PPO, from the committed model), so its result digest is a
pure function of its seed; that is what the correctness checks compare.

Why these four (see README.md for the per-layer predictions):

- ``chatfuzz``: the paper's loop on the bodies the model emits.  The
  bodies are loop-heavy and some run to ``max_steps``, so the scalar cores
  and the sampler do the work; lanes, pool and fleet are bypassed.
- ``thehuzz_lanes``: short straight-line mutation bodies on 32-wide golden
  and DUT lanes, the traffic the lane engines were built for.
- ``fleet_mixed``: the fuzzer comparison as a 2-worker streaming fleet;
  the only workload on the pool, scheduler, slice shipping and BOOM.
- ``ppo_coverage``: step-3 PPO with the coverage reward; the only workload
  on the autograd/optimizer layers, with unbatched DUT runs.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.baselines.thehuzz import TheHuzzGenerator
from repro.dataset.corpus import Corpus
from repro.fuzzing.campaign import Campaign
from repro.fuzzing.chatfuzz import FuzzLoop
from repro.fuzzing.fleet import CampaignSpec, FleetRunner
from repro.fuzzing.scheduler import RoundRobin
from repro.ml.pipeline import LLMInputGenerator, PromptSampler
from repro.ml.ppo import PPOConfig, PPOTrainer
from repro.ml.rewards import CoverageReward
from repro.ml.tokenizer import HalfwordTokenizer
from repro.ml.transformer import GPT2LMModel
from repro.soc.harness import make_harness

#: A private copy of the repository's trained model, so the workload
#: cannot drift when the shared cache is retrained.
MODEL_DIR = Path(__file__).resolve().parent / "model"

#: The loop configuration of ``examples/fuzz_rocketcore.py``.
PROMPT_BOUNDS = (2, 5)
RESPONSE_INSTRUCTIONS = 20


def episode_seed(seed: int, index: int) -> int:
    """Independent 31-bit seed for episode ``index`` of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] >> 1)


#: Episode index of the untimed warm-up batch: no timed episode uses it.
WARMUP = 1 << 20


def load_model():
    return (GPT2LMModel.load(MODEL_DIR / "model.npz"),
            HalfwordTokenizer.load(MODEL_DIR / "tokenizer.json"),
            Corpus.load(MODEL_DIR / "corpus.json"))


def digest(*parts) -> str:
    """Stable hash of coverage bitmaps, signatures and stats (via repr)."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _campaign_digest(result) -> tuple:
    return (result.tests_run, result.final_coverage.to_int(),
            sorted(m.signature for m in result.mismatches))


@dataclass
class Episode:
    """What one fixed-budget episode produced."""

    tests: int
    #: Host seconds per batch (per PPO step; per slice of busy time for
    #: the fleet, where only the per-episode mean is observable untraced).
    batch_seconds: list[float]
    coverage_pct: float
    unique_mismatches: int
    digest: str
    #: Fleet dispatch accounting (``FleetStats``), fleet only.
    fleet: dict = field(default_factory=dict)
    #: Peak RSS of the episode's worker processes, summed (MB).
    workers_rss_mb: float = 0.0


def _run_batches(loop: FuzzLoop, batches: int) -> Episode:
    """Drive a campaign one batch at a time, timing each batch."""
    campaign = Campaign(loop, "bench")
    seconds = []
    for _ in range(batches):
        started = time.perf_counter()
        result = campaign.run_slice(loop.batch_size)
        seconds.append(time.perf_counter() - started)
    return Episode(result.tests_run, seconds, result.final_coverage_percent,
                   result.unique_mismatches,
                   digest(_campaign_digest(result)))


class ChatFuzz:
    name = "chatfuzz"
    batch_size = 20

    def __init__(self, batches: int = 3) -> None:
        self.batches = batches
        self.budget = batches * self.batch_size

    def setup(self) -> None:
        self.model, self.tokenizer, self.corpus = load_model()
        self.harness = make_harness("rocket")

    def episode(self, seed: int, batches: int | None = None) -> Episode:
        generator = LLMInputGenerator(
            self.model, self.tokenizer, self.corpus,
            prompt_bounds=PROMPT_BOUNDS,
            response_instructions=RESPONSE_INSTRUCTIONS, seed=seed)
        return _run_batches(FuzzLoop(generator, self.harness,
                                     batch_size=self.batch_size),
                            batches or self.batches)

    reference = episode

    def warmup(self, seed: int) -> None:
        self.episode(seed, batches=1)


class TheHuzzLanes:
    name = "thehuzz_lanes"
    batch_size = 64
    lanes = 32

    def __init__(self, batches: int = 4) -> None:
        self.batches = batches
        self.budget = batches * self.batch_size

    def setup(self) -> None:
        self.harness = make_harness("rocket", golden_lanes=self.lanes,
                                    dut_lanes=self.lanes)

    def episode(self, seed: int, harness=None,
                batches: int | None = None) -> Episode:
        generator = TheHuzzGenerator(body_instructions=24, seed=seed)
        return _run_batches(FuzzLoop(generator, harness or self.harness,
                                     batch_size=self.batch_size),
                            batches or self.batches)

    def reference(self, seed: int) -> Episode:
        """The same episode on the scalar engines (lanes are a perf knob)."""
        return self.episode(seed, make_harness("rocket"))

    def warmup(self, seed: int) -> None:
        self.episode(seed, batches=1)


def _children_hwm_mb() -> float:
    """Summed peak RSS of this process's live children (Linux /proc)."""
    me = str(os.getpid())
    total_kb = 0
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            status = (entry / "status").read_text()
        except OSError:
            continue
        fields = dict(line.split(":", 1) for line in status.splitlines()
                      if ":" in line)
        if fields.get("PPid", "").strip() == me and "VmHWM" in fields:
            total_kb += int(fields["VmHWM"].split()[0])
    return total_kb / 1024.0


class FleetMixed:
    name = "fleet_mixed"
    batch_size = 20
    workers = 2

    def __init__(self, arm_tests: int = 60) -> None:
        self.arm_tests = arm_tests
        self.budget = 4 * arm_tests

    def setup(self) -> None:
        self.model, self.tokenizer, self.corpus = load_model()

    def specs(self, seed: int) -> list[CampaignSpec]:
        def chatfuzz(offset: int) -> LLMInputGenerator:
            return LLMInputGenerator(
                self.model, self.tokenizer, self.corpus,
                prompt_bounds=PROMPT_BOUNDS,
                response_instructions=RESPONSE_INSTRUCTIONS,
                seed=seed + offset)

        common = dict(batch_size=self.batch_size,
                      budget_tests=self.arm_tests)
        return [
            CampaignSpec("chatfuzz-rocket", generator=chatfuzz(0),
                         harness="rocket", seed=seed, **common),
            CampaignSpec("thehuzz-rocket", fuzzer="thehuzz",
                         fuzzer_config={"body_instructions": 24},
                         harness="rocket", seed=seed + 4, **common),
            CampaignSpec("chatfuzz-boom", generator=chatfuzz(8),
                         harness="boom", seed=seed + 8, **common),
            CampaignSpec("random-boom", fuzzer="random",
                         fuzzer_config={"body_instructions": 24},
                         harness="boom", seed=seed + 12, **common),
        ]

    def episode(self, seed: int, workers: int | None = None) -> Episode:
        with FleetRunner(self.specs(seed),
                         n_workers=self.workers if workers is None
                         else workers) as runner:
            result = runner.run_scheduled(RoundRobin(),
                                          slice_tests=self.batch_size,
                                          mode="streaming")
            workers_rss = _children_hwm_mb()
        stats = runner.last_stats
        arms = result.campaigns
        failed = len(stats.health.quarantined) + stats.health.retries
        return Episode(
            tests=result.total_tests,
            batch_seconds=[stats.busy_seconds / max(1, stats.slices)],
            coverage_pct=sum(c.final_coverage_percent for c in arms)
            / len(arms),
            unique_mismatches=len(result.unique_signatures),
            digest=digest([_campaign_digest(c) for c in arms]),
            fleet={"busy_s": stats.busy_seconds,
                   "idle_s": stats.wall_seconds * stats.worker_slots
                   - stats.busy_seconds,
                   "wall_s": stats.wall_seconds,
                   "slots": stats.worker_slots,
                   "slices": stats.slices,
                   "retries": stats.health.retries,
                   "failed": failed},
            workers_rss_mb=workers_rss,
        )

    def reference(self, seed: int) -> Episode:
        """The same fleet in-process: per-arm results must not depend on
        placement or interleaving."""
        return self.episode(seed, workers=0)

    def warmup(self, seed: int) -> None:
        """Nothing to warm: every episode forks a fresh pool whose workers
        import and elaborate their cores again, so episodes are alike."""


class PPOCoverage:
    name = "ppo_coverage"
    batch_size = 12

    def __init__(self, steps: int = 4) -> None:
        self.steps = steps
        self.budget = steps * self.batch_size

    def setup(self) -> None:
        self.model, self.tokenizer, self.corpus = load_model()
        self.harness = make_harness("rocket")

    def episode(self, seed: int, steps: int | None = None) -> Episode:
        # The committed model stays untouched as the frozen reference; the
        # policy is a fresh clone, so every episode starts from it.
        reward = CoverageReward(self.harness)
        trainer = PPOTrainer(self.model.clone(), self.model, reward,
                             self.tokenizer, config=PPOConfig(), seed=seed)
        prompts = PromptSampler(self.corpus, self.tokenizer, PROMPT_BOUNDS,
                                seed=seed + 2)
        tokens_per = self.tokenizer.tokens_per_instruction
        seconds = []
        for _ in range(steps or self.steps):
            started = time.perf_counter()
            reward.begin_batch()
            batch, _ = prompts.sample(self.batch_size)
            budget = self.model.config.max_seq - batch.shape[1]
            trainer.step(batch, min(RESPONSE_INSTRUCTIONS * tokens_per,
                                    budget))
            seconds.append(time.perf_counter() - started)
        stats = [(s.mean_reward, s.mean_kl, s.total_loss)
                 for s in trainer.history.steps]
        return Episode(len(seconds) * self.batch_size, seconds,
                       reward.total_percent, 0,
                       digest(reward.calculator.cumulative.bits(), stats))

    reference = episode

    def warmup(self, seed: int) -> None:
        self.episode(seed, steps=1)


WORKLOADS = {cls.name: cls for cls in
             (ChatFuzz, TheHuzzLanes, FleetMixed, PPOCoverage)}

#: Episode sizes for the smoke mode: one batch/step/slice per arm.
TINY = {"chatfuzz": {"batches": 1}, "thehuzz_lanes": {"batches": 1},
        "fleet_mixed": {"arm_tests": 20}, "ppo_coverage": {"steps": 1}}
