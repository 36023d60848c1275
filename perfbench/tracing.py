"""In-memory span tracing around the program's layer entry points.

The traced run patches the entry point of each layer (the methods listed
in :data:`LAYERS`) with a wrapper that records a span: name, start, end,
parent span and batch id, plus the work counts the layer returned.  Spans
stay in memory; fleet workers (forked after patching, so they inherit the
wrappers) append theirs to a per-process file whenever a slice ends, and
:meth:`Tracer.collect` merges everything once the run is over.

A layer's self time is its spans' duration minus the part covered by
their child spans.  Counts are taken only at the outermost span of a
layer's family (``dut`` and ``dut_lanes`` are one family), so a lane
engine's scalar fallback never counts a body twice, and simulated counts
do not depend on which engine ran the body.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

from repro.baselines.random_regression import RandomRegressionGenerator
from repro.baselines.thehuzz import TheHuzzGenerator
from repro.coverage.calculator import CoverageCalculator
from repro.coverage.scoring import CoverageScorer
from repro.fuzzing import mismatch
from repro.fuzzing.campaign import Campaign
from repro.fuzzing.chatfuzz import FuzzLoop
from repro.golden.batch import LANE_MIN, GoldenBatchSimulator
from repro.golden.simulator import GoldenSimulator
from repro.ml.pipeline import LLMInputGenerator
from repro.ml.ppo import PPOTrainer
from repro.ml.rewards import CoverageReward
from repro.ml.sampling import Sampler
from repro.soc.batch import DutBatchSimulator
from repro.soc.boom import BoomCore
from repro.soc.rocket import RocketCore


def _calls(args, out) -> dict:
    return {"calls": 1}


def _golden(args, out) -> dict:
    return {"bodies": 1, "commits": out.instret}


def _dut(args, out) -> dict:
    trace, _ = out
    return {"bodies": 1, "commits": trace.instret, "cycles": trace.cycles,
            "max_steps": int(trace.stop_reason == "max_steps")}


def _lane_occupancy(lanes: int, lengths: list[int]) -> tuple[int, int]:
    """(useful lane-steps, issued lane-steps) over the engine's groups."""
    used = issued = 0
    for i in range(0, len(lengths), lanes):
        group = lengths[i:i + lanes]
        if len(group) >= LANE_MIN:
            used += sum(group)
            issued += len(group) * max(group)
    return used, issued


def _golden_lanes(args, out) -> dict:
    commits = [trace.instret for trace in out]
    used, issued = _lane_occupancy(args[0].lanes, commits)
    return {"bodies": len(out), "commits": sum(commits),
            "occ_used": used, "occ_issued": issued}


def _dut_lanes(args, out) -> dict:
    # A DUT lane group steps once per simulated cycle, so its occupancy is
    # measured in cycles rather than commits.
    traces = [trace for trace, _ in out]
    cycles = [trace.cycles for trace in traces]
    used, issued = _lane_occupancy(args[0].lanes, cycles)
    return {"bodies": len(out),
            "commits": sum(trace.instret for trace in traces),
            "cycles": sum(cycles),
            "max_steps": sum(trace.stop_reason == "max_steps"
                             for trace in traces),
            "occ_used": used, "occ_issued": issued}


def _compare(args, out) -> dict:
    return {"raw": len(out)}


def _fold(args, out) -> dict:
    coverages = out if isinstance(out, list) else [out]
    return {"inputs": len(coverages),
            "novel": sum(c.improved for c in coverages)}


#: (owner, attribute, span name, counts) for every traced entry point.
LAYERS = [
    (FuzzLoop, "run_batch", "loop", None),
    (Campaign, "run_slice", "loop", None),
    (LLMInputGenerator, "generate_batch", "gen", _calls),
    (TheHuzzGenerator, "generate_batch", "gen", _calls),
    (RandomRegressionGenerator, "generate_batch", "gen", _calls),
    (Sampler, "generate", "gen", _calls),
    (GoldenSimulator, "run", "golden", _golden),
    (GoldenBatchSimulator, "run_batch", "golden_lanes", _golden_lanes),
    (RocketCore, "run", "dut", _dut),
    (BoomCore, "run", "dut", _dut),
    (DutBatchSimulator, "run_batch", "dut_lanes", _dut_lanes),
    (mismatch, "compare_traces", "compare", _compare),
    (CoverageCalculator, "observe_batch", "cov_fold", _fold),
    (CoverageCalculator, "observe", "cov_fold", _fold),
    (CoverageScorer, "score_batch", "score", None),
    (CoverageScorer, "score", "score", None),
    (TheHuzzGenerator, "observe", "observe", None),
    (PPOTrainer, "step", "ppo.step", None),
    (PPOTrainer, "rollout", "ppo.rollout", None),
    (CoverageReward, "__call__", "ppo.reward", None),
]

#: Spans that open a new batch id.
BATCH_SPANS = {"loop", "ppo.step"}


def _family(name: str) -> str:
    return name.removesuffix("_lanes")


class Tracer:
    """Span recorder; use as a context manager around the traced window."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = spill_dir
        self.home = os.getpid()
        self._pid = self.home
        self.spans: list[dict] = []
        self._stack: list[tuple[str, str]] = []
        self._next = 0
        self._batch = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        for owner, attr, name, counts in LAYERS:
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counts))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, original, name: str, counts):
        family = _family(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            pid = os.getpid()
            if pid != self._pid:
                # A forked worker inherits the parent's open spans; its own
                # spans start a fresh tree.
                self._pid, self.spans, self._stack = pid, [], []
            outermost = all(f != family for _, f in self._stack)
            if name in BATCH_SPANS and outermost:
                self._batch += 1
            span_id = f"{pid}:{self._next}"
            self._next += 1
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append((span_id, family))
            batch = f"{pid}:{self._batch}"
            start = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            self.spans.append({
                "id": span_id, "parent": parent, "name": name,
                "start": start, "end": end, "batch": batch,
                "counts": counts(args, out) if counts and outermost else {},
            })
            if pid != self.home and not self._stack:
                self._spill()
            return out

        return traced

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> list[dict]:
        """All spans of the run, this process's and every worker's."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            spans.extend(json.loads(line) for line in path.read_text()
                         .splitlines())
            path.unlink()
        return spans


def layer_totals(spans: list[dict]) -> tuple[dict, dict]:
    """(self seconds per span name, summed counts per family)."""
    children = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    self_s = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    for span in spans:
        self_s[span["name"]] += (span["end"] - span["start"]
                                 - children[span["id"]])
        for key, value in span["counts"].items():
            counts[_family(span["name"])][key] += value
    return self_s, counts


def per_layer_metrics(spans: list[dict]) -> dict:
    """The per-layer metrics of BENCHMARK.json that spans determine."""
    self_s, counts = layer_totals(spans)
    golden, dut = counts["golden"], counts["dut"]
    fold = counts["cov_fold"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "gen.self_s": self_s["gen"],
        "gen.calls": counts["gen"]["calls"],
        "golden.self_s": self_s["golden"],
        "golden.commits": golden["commits"],
        "golden.us_per_commit": ratio(
            1e6 * (self_s["golden"] + self_s["golden_lanes"]),
            golden["commits"]),
        "golden_lanes.self_s": self_s["golden_lanes"],
        "golden_lanes.occupancy": ratio(golden["occ_used"],
                                        golden["occ_issued"]),
        "dut.self_s": self_s["dut"],
        "dut.commits": dut["commits"],
        "dut.sim_cycles": dut["cycles"],
        "dut.us_per_commit": ratio(
            1e6 * (self_s["dut"] + self_s["dut_lanes"]), dut["commits"]),
        "dut.max_steps_frac": ratio(dut["max_steps"], dut["bodies"]),
        "dut_lanes.self_s": self_s["dut_lanes"],
        "dut_lanes.occupancy": ratio(dut["occ_used"], dut["occ_issued"]),
        "compare.self_s": self_s["compare"],
        "compare.raw": counts["compare"]["raw"],
        "cov_fold.self_s": self_s["cov_fold"],
        "score.self_s": self_s["score"],
        "observe.self_s": self_s["observe"],
        "cov.novel_frac": ratio(fold["novel"], fold["inputs"]),
        "loop.self_s": self_s["loop"],
        "ppo.rollout.self_s": self_s["ppo.rollout"],
        "ppo.reward.self_s": self_s["ppo.reward"],
        "ppo.update.self_s": self_s["ppo.step"],
    }
