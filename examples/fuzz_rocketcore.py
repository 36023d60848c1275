#!/usr/bin/env python3
"""Run the Figure-1a fuzzing loop on RocketCore and compare fuzzers.

Trains a small ChatFuzz model, then races it against TheHuzz-style mutation
fuzzing and random regression at an equal test budget, printing the
coverage curves on the paper's simulated time axis.

Run:  python examples/fuzz_rocketcore.py [--workers N]

With ``--workers N`` each batch's differential simulation is sharded over a
pool of N worker processes (each owning its own DUT + golden ISS); results
are bit-identical to serial, only the wall-clock changes.  Serial wins on a
single-core machine and for tiny batches — see ROADMAP.md.

With ``--golden-lanes N`` the golden half of every differential batch runs
on the batched numpy engine (N lockstep lanes; 0 = scalar golden, the
default), and ``--dut-lanes N`` does the same for the DUT half (traces and
coverage reports both).  Lanes are bit-identical too, but slower on the
ChatFuzz bodies this script generates: on a 2-vCPU Xeon, 32 golden lanes
ran ChatFuzz batches of 20 at 0.13x the scalar engine's speed and 32 DUT
lanes at 0.19x.  So both default to 0; see the ROADMAP's "Choosing lane
widths (golden + DUT)" guidance before setting N.

To run the whole comparison as parallel *campaigns* instead (one worker
process per fuzzer arm, with budget scheduling, checkpoint/resume and
cross-campaign aggregation), use ``examples/run_fleet.py``.
"""

import argparse

from repro.analysis.report import format_table
from repro.baselines.random_regression import RandomRegressionGenerator
from repro.baselines.thehuzz import TheHuzzGenerator
from repro.fuzzing.campaign import Campaign
from repro.fuzzing.chatfuzz import FuzzLoop
from repro.fuzzing.executor import SerialExecutor
from repro.fuzzing.pool import ShardedExecutor
from repro.ml.lm_training import LMTrainConfig
from repro.obs.events import NULL_SINK
from repro.obs.store import ResultsStore
from repro.ml.pipeline import ChatFuzzPipeline, PipelineConfig
from repro.ml.transformer import GPT2Config
from repro.soc.harness import HarnessFactory, make_harness

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--workers", type=int, default=0, metavar="N",
                    help="shard each batch over N worker processes "
                         "(0 = serial, the default)")
parser.add_argument("--tests", type=int, default=300, metavar="N",
                    help="test budget per fuzzer")
parser.add_argument("--golden-lanes", type=int, default=0, metavar="N",
                    help="batched golden engine lane width "
                         "(0 = scalar golden, the default)")
parser.add_argument("--dut-lanes", type=int, default=0, metavar="N",
                    help="batched DUT engine lane width "
                         "(0 = scalar DUT, the default)")
parser.add_argument("--store", metavar="DIR", default=None,
                    help="append structured telemetry (per-phase batch "
                         "timings, coverage points, mismatch discoveries, "
                         "coverage bitmaps) to a results store at DIR; "
                         "inspect with python -m repro.obs.dashboard "
                         "--store DIR [--report]")
args = parser.parse_args()

sink = NULL_SINK
if args.store is not None:
    store = ResultsStore(args.store)
    sink = store.sink()
    print(f"results store: {store.directory}")

print("training ChatFuzz (three-step pipeline)...")
pipeline = ChatFuzzPipeline(PipelineConfig(
    corpus_functions=200,
    model=GPT2Config(dim=48, n_layers=2, n_heads=2, max_seq=80),
    lm=LMTrainConfig(steps=350, batch_size=12, lr=2e-3),
    step2_steps=5, step3_steps=3, ppo_batch_size=12,
    response_instructions=20,
))
pipeline.run_all(make_harness("rocket"))

mode = f"{args.workers} workers" if args.workers > 1 else "serial"
if args.golden_lanes > 0:
    mode += f", {args.golden_lanes} golden lanes"
if args.dut_lanes > 0:
    mode += f", {args.dut_lanes} DUT lanes"
print(f"fuzzing RocketCore: {args.tests} tests per fuzzer ({mode})\n")
results = {}
for name, generator in [
    ("ChatFuzz", pipeline.make_generator(seed=11)),
    ("TheHuzz", TheHuzzGenerator(body_instructions=24, seed=1)),
    ("random", RandomRegressionGenerator(body_instructions=24, seed=2)),
]:
    factory = HarnessFactory("rocket", golden_lanes=args.golden_lanes,
                             dut_lanes=args.dut_lanes)
    executor = (ShardedExecutor(factory, n_workers=args.workers)
                if args.workers > 1 else SerialExecutor(factory))
    loop = FuzzLoop(generator, batch_size=20, executor=executor, sink=sink)
    with Campaign(loop, name) as campaign:
        results[name] = campaign.run_tests(args.tests)
    if sink.enabled:
        sink.save_coverage(name, results[name].final_coverage)
    print(" ", results[name].summary())

if sink.enabled:
    sink.close()

# Each row is a real curve point: the first at or past 20%, 50% and 100%
# of the budget (shares that land on one point share its row).  Every
# fuzzer runs batches of 20, so their curves share these points.
points = {}
for fraction in (0.2, 0.5, 1.0):
    point = next(point for point in results["ChatFuzz"].curve
                 if point.tests >= args.tests * fraction)
    points[point.tests] = point
rows = [[point.tests, f"{point.sim_hours:.2f}"] + [
    f"{results[name].coverage_at_tests(point.tests):.1f}"
    for name in ("ChatFuzz", "TheHuzz", "random")
] for point in points.values()]
print()
print(format_table(
    ["tests", "sim-hours", "ChatFuzz", "TheHuzz", "random"], rows,
    title="condition coverage %, RocketCore (paper Fig. 2 shape)",
))

print("\nmismatch detector (buggy DUT vs golden model):")
for name, result in results.items():
    print(f"  {name}: raw={result.raw_mismatches} "
          f"unique={result.unique_mismatches}")
