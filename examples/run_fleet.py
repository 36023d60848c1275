#!/usr/bin/env python3
"""Reproduce the paper's Figure-2 fuzzer comparison as one fleet run.

Builds a fleet of campaign arms — ChatFuzz (trained on the fly), TheHuzz,
DifuzzRTL and random regression, optionally seed-swept — and runs them
through :class:`repro.fuzzing.fleet.FleetRunner`: sharded over campaign
worker processes, optionally budget-scheduled (round-robin or the
MABFuzz-style UCB1 bandit), checkpointable, and aggregated into union
coverage, a merged coverage curve on the shared sim-hours epoch, and the
cross-campaign E-BUGS detection table with per-campaign attribution.

Run:  python examples/run_fleet.py [--tests N] [--workers W]
          [--scheduler none|roundrobin|bandit] [--mode rounds|streaming]
          [--slice N] [--checkpoint DIR] [--recover-checkpoint]
          [--seeds K] [--no-chatfuzz] [--max-retries N]
          [--slice-timeout S] [--no-quarantine]
          [--chaos-seed SEED] [--chaos-rate P] [--chaos-kinds K[,K]]
          [--store DIR] [--dashboard PORT]
          [--harness rocket|boom] [--golden-lanes N] [--dut-lanes N]

Useful shapes:

- ``--workers 4`` on a >= 4-core box runs four campaigns concurrently
  (campaign workers, *not* harness workers — see ROADMAP.md: campaigns
  inside fleet workers always simulate serially).
- ``--scheduler bandit`` spends the shared budget where new coverage is
  still being found instead of splitting it evenly.
- ``--scheduler roundrobin --mode streaming --workers 4`` keeps all four
  workers saturated: slices are dispatched as workers free up instead of
  waiting at round barriers (see ``--mode`` help for the determinism
  tradeoff).
- ``--checkpoint DIR`` makes the run resumable: kill it, rerun the same
  command, and completed slices are not redone.
- ``--chaos-seed 7 --chaos-rate 0.2 --workers 2`` injects a deterministic
  fault plan (raised exceptions by default; add ``--chaos-kinds
  raise,hang,die`` for hung slices and worker deaths) to watch the fleet
  retry, recycle its pool and quarantine — the run should still complete
  and, fault kinds permitting, match the fault-free result bit-for-bit.
- ``--golden-lanes 8 --dut-lanes 8`` runs every Rocket arm on the
  batched engines (lane widths are pure perf knobs — results are
  bit-identical to scalar at every width).  ``--harness boom`` points
  every arm at the BOOM model, which takes ``--golden-lanes`` but has no
  batched DUT engine, so it rejects ``--dut-lanes``.
- ``--store results/`` streams structured telemetry into a durable
  results store (events + coverage bitmaps; survives kills, appends
  across resumes — combine with ``--checkpoint`` for resumable runs with
  a persistent history), and ``--dashboard 8080`` serves the live
  dashboard over it at http://127.0.0.1:8080/ while the fleet runs
  (``--dashboard 0`` picks a free port).  Both work with either dispatch
  mode.  Inspect a finished store headlessly with
  ``python -m repro.obs.dashboard --store results/ --report``.
"""

import argparse
import pickle
from pathlib import Path

from repro.analysis.fleet import (
    fleet_bug_table,
    fleet_health_table,
    fleet_stats_table,
)
from repro.analysis.report import format_table
from repro.fuzzing.faults import FaultPlan
from repro.fuzzing.fleet import CampaignSpec, FleetRunner
from repro.fuzzing.scheduler import BanditScheduler, RoundRobin
from repro.obs.dashboard import DashboardServer
from repro.obs.events import NULL_SINK
from repro.obs.store import ResultsStore
from repro.ml.lm_training import LMTrainConfig
from repro.ml.pipeline import ChatFuzzPipeline, PipelineConfig
from repro.ml.transformer import GPT2Config
from repro.soc.harness import HarnessFactory, make_harness

parser = argparse.ArgumentParser(
    description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
)
parser.add_argument("--tests", type=int, default=200, metavar="N",
                    help="test budget per campaign arm")
parser.add_argument("--workers", type=int, default=0, metavar="W",
                    help="campaign worker processes (0 = in-process)")
parser.add_argument("--scheduler", choices=("none", "roundrobin", "bandit"),
                    default="none",
                    help="budget scheduling: none = every arm runs its whole "
                         "budget; roundrobin/bandit allocate slices")
parser.add_argument("--mode", choices=("rounds", "streaming"),
                    default="rounds",
                    help="scheduled dispatch (needs --scheduler "
                         "roundrobin|bandit): 'rounds' synchronises slices "
                         "at round barriers and is bit-for-bit reproducible "
                         "run to run; 'streaming' dispatches a new slice "
                         "the moment a worker frees up, so workers never "
                         "idle — each campaign's own trajectory stays "
                         "deterministic, but the slice interleaving (and "
                         "therefore the bandit's allocation under shared "
                         "caps) varies run to run on a worker pool.  With "
                         "--scheduler none, fleet.run() already streams "
                         "per-campaign checkpoints as arms finish")
parser.add_argument("--slice", type=int, default=40, metavar="N",
                    dest="slice_tests", help="tests per scheduler slice")
parser.add_argument("--checkpoint", metavar="DIR", default=None,
                    help="checkpoint directory (enables resume)")
parser.add_argument("--recover-checkpoint", action="store_true",
                    help="resume past torn checkpoint snapshots (a previous "
                         "run killed mid-write): fall back to the last "
                         "intact per-arm snapshot, or restart the arm, "
                         "instead of refusing to load")
parser.add_argument("--seeds", type=int, default=1, metavar="K",
                    help="seed-sweep: K arms per fuzzer kind")
parser.add_argument("--harness", choices=("rocket", "boom"), default="rocket",
                    help="DUT core kind for every arm (default: rocket)")
parser.add_argument("--golden-lanes", type=int, default=0, metavar="N",
                    help="batched golden engine lane width for every arm "
                         "(0 = scalar golden, the default)")
parser.add_argument("--dut-lanes", type=int, default=0, metavar="N",
                    help="batched DUT engine lane width for every arm "
                         "(0 = scalar DUT; kinds without a batch engine "
                         "reject nonzero widths loudly)")
parser.add_argument("--no-chatfuzz", action="store_true",
                    help="skip ChatFuzz (and its training step)")
parser.add_argument("--store", metavar="DIR", default=None,
                    help="append structured telemetry (events + coverage "
                         "bitmaps) to a durable results store at DIR; "
                         "resumed runs append to the same store")
parser.add_argument("--dashboard", type=int, default=None, metavar="PORT",
                    help="serve the live dashboard over the results store "
                         "on PORT while the fleet runs (0 = pick a free "
                         "port; requires --store)")

fault = parser.add_argument_group(
    "fault tolerance / chaos testing",
    "The fleet retries failed slices, rebuilds broken worker pools and "
    "quarantines arms that keep failing (see ROADMAP.md 'Failure "
    "semantics').  The chaos knobs inject deterministic faults to "
    "exercise those paths end-to-end.")
fault.add_argument("--max-retries", type=int, default=2, metavar="N",
                   help="attempts per slice beyond the first before the "
                        "arm is quarantined (default: 2)")
fault.add_argument("--slice-timeout", type=float, default=None, metavar="S",
                   help="seconds a slice may run before it is treated as "
                        "hung: pooled fleets recycle the worker pool, "
                        "in-process fleets flag the slice after the fact")
fault.add_argument("--no-quarantine", action="store_true",
                   help="fail the whole fleet on the first exhausted arm "
                        "instead of quarantining it and continuing")
fault.add_argument("--chaos-seed", type=int, default=None, metavar="SEED",
                   help="inject a deterministic seeded fault plan "
                        "(FaultPlan.seeded) into the run; same seed = "
                        "same faults")
fault.add_argument("--chaos-rate", type=float, default=0.1, metavar="P",
                   help="with --chaos-seed: probability each (arm, slice) "
                        "gets a fault point (default: 0.1)")
fault.add_argument("--chaos-kinds", default="raise", metavar="K[,K]",
                   help="with --chaos-seed: comma-separated fault kinds "
                        "drawn from raise,hang,die,crash (default: raise; "
                        "'die' needs --workers > 0 to have a pool to kill)")
args = parser.parse_args()

# Every arm shares the DUT kind and lane widths; a kind without a batch
# engine rejects nonzero --dut-lanes here, before any worker spins up.
arm_kw = dict(harness=HarnessFactory(args.harness,
                                     golden_lanes=args.golden_lanes,
                                     dut_lanes=args.dut_lanes))

specs = []
for k in range(args.seeds):
    specs += [
        CampaignSpec(f"TheHuzz#{k}", fuzzer="thehuzz",
                     fuzzer_config={"body_instructions": 24}, seed=1 + k,
                     batch_size=20, budget_tests=args.tests, **arm_kw),
        CampaignSpec(f"DifuzzRTL#{k}", fuzzer="difuzzrtl",
                     fuzzer_config={"body_instructions": 24}, seed=31 + k,
                     batch_size=20, budget_tests=args.tests, **arm_kw),
        CampaignSpec(f"random#{k}", fuzzer="random",
                     fuzzer_config={"body_instructions": 24}, seed=61 + k,
                     batch_size=20, budget_tests=args.tests, **arm_kw),
    ]

if not args.no_chatfuzz:
    # With --checkpoint, the trained generators are cached next to the
    # checkpoint: a resumed run must rebuild *identical* specs (the
    # checkpoint fingerprint hashes the generator), and retraining on
    # every resume would waste minutes to produce state the checkpoint
    # supersedes anyway.
    cache = (Path(args.checkpoint) / "chatfuzz_generators.pkl"
             if args.checkpoint else None)
    if cache is not None and cache.exists():
        print("loading cached ChatFuzz generators from the checkpoint...")
        generators = pickle.loads(cache.read_bytes())
    else:
        print("training ChatFuzz (three-step pipeline)...")
        pipeline = ChatFuzzPipeline(PipelineConfig(
            corpus_functions=200,
            model=GPT2Config(dim=48, n_layers=2, n_heads=2, max_seq=80),
            lm=LMTrainConfig(steps=350, batch_size=12, lr=2e-3),
            step2_steps=5, step3_steps=3, ppo_batch_size=12,
            response_instructions=20,
        ))
        pipeline.run_all(make_harness("rocket"))
        generators = [pipeline.make_generator(seed=11 + k)
                      for k in range(args.seeds)]
        if cache is not None:
            cache.parent.mkdir(parents=True, exist_ok=True)
            cache.write_bytes(pickle.dumps(generators))
    # The trained generator is picklable, so it ships to fleet workers and
    # travels inside checkpoints like any other campaign state.
    specs += [
        CampaignSpec(f"ChatFuzz#{k}", generator=generator,
                     batch_size=20, budget_tests=args.tests, **arm_kw)
        for k, generator in enumerate(generators)
    ]

fault_plan = None
if args.chaos_seed is not None:
    kinds = tuple(k.strip() for k in args.chaos_kinds.split(",") if k.strip())
    n_slices = max(1, -(-args.tests // args.slice_tests))
    fault_plan = FaultPlan.seeded(args.chaos_seed, n_arms=len(specs),
                                  n_slices=n_slices, rate=args.chaos_rate,
                                  kinds=kinds)
    print(f"chaos: injecting {len(fault_plan)} fault points "
          f"(seed={args.chaos_seed}, rate={args.chaos_rate}, "
          f"kinds={','.join(kinds)})")

placement = f"{args.workers} campaign workers" if args.workers else "in-process"
lanes = ""
if args.golden_lanes or args.dut_lanes:
    lanes = f", {args.golden_lanes}g/{args.dut_lanes}d lanes"
print(f"\nfleet: {len(specs)} campaigns x {args.tests} tests on "
      f"{args.harness}{lanes} "
      f"({placement}, scheduler={args.scheduler}, mode={args.mode})\n")

if args.dashboard is not None and args.store is None:
    parser.error("--dashboard requires --store")

sink = NULL_SINK
dashboard = None
if args.store is not None:
    store = ResultsStore(args.store)
    sink = store.sink()
    print(f"results store: {store.directory}")
    if args.dashboard is not None:
        dashboard = DashboardServer(store, port=args.dashboard).start()
        print(f"dashboard: {dashboard.url}")

try:
    with FleetRunner(specs, n_workers=args.workers,
                     checkpoint_dir=args.checkpoint,
                     checkpoint_recover=args.recover_checkpoint,
                     max_retries=args.max_retries,
                     slice_timeout=args.slice_timeout,
                     quarantine=not args.no_quarantine,
                     fault_plan=fault_plan,
                     sink=sink) as fleet:
        if args.scheduler == "none":
            result = fleet.run()
        else:
            scheduler = (RoundRobin() if args.scheduler == "roundrobin"
                         else BanditScheduler(exploration=0.1))
            result = fleet.run_scheduled(scheduler,
                                         slice_tests=args.slice_tests,
                                         mode=args.mode)
        stats = fleet.last_stats
finally:
    sink.close()
    if dashboard is not None:
        dashboard.stop()

print(result.summary())
print()
print(fleet_stats_table({"this run": stats}))
if not result.health.healthy:
    print()
    print(fleet_health_table(result.health))

names = [spec.name for spec in specs]
rows = []
for fraction in (0.2, 0.5, 1.0):
    at = int(args.tests * fraction)
    rows.append([at] + [
        f"{campaign.coverage_at_tests(at):.1f}"
        for campaign in result.campaigns
    ])
print()
core_label = {"rocket": "RocketCore", "boom": "BOOM"}[args.harness]
print(format_table(
    ["tests"] + names, rows,
    title=f"condition coverage %, {core_label} (paper Fig. 2 shape)",
))

merged = result.merged_curve()
rows = [[f"{point.sim_hours:.2f}", point.tests,
         f"{point.coverage_percent:.2f}"]
        for point in merged[:: max(1, len(merged) // 8)]]
print()
print(format_table(
    ["sim-hours", "fleet tests", "union cov%"], rows,
    title="fleet union coverage on the shared sim-hours epoch",
))

print()
print(fleet_bug_table(result.campaigns))
