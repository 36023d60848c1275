#!/usr/bin/env python3
"""Bug hunting: reproduce the paper's five RocketCore findings (§V-B).

Part 1 triggers each behaviour with a targeted program (the "manual
analysis" view) and checks that the divergence classifies as the bug its
title names; part 2 finds them by fuzzing (the campaign view) and only
reports what it found.

Run:  python examples/hunt_bugs.py   (exits 1 if a part-1 body no longer
triggers its bug)

For the fleet-scale version of part 2 — several fuzzers hunting at once,
with signatures deduped across campaigns and per-campaign attribution in
the E-BUGS table — see ``examples/run_fleet.py``.
"""

import sys

from repro.analysis.bugs import KNOWN_BUGS, classify_mismatches, detected_bugs
from repro.fuzzing.campaign import Campaign
from repro.fuzzing.chatfuzz import FuzzLoop
from repro.fuzzing.mismatch import compare_traces
from repro.isa import Assembler
from repro.isa.spec import DRAM_BASE
from repro.ml.lm_training import LMTrainConfig
from repro.ml.pipeline import ChatFuzzPipeline, PipelineConfig
from repro.ml.transformer import GPT2Config
from repro.soc.harness import make_harness, preamble_words

harness = make_harness("rocket")
body_base = DRAM_BASE + 4 * (len(preamble_words()) + 2)

TARGETED = {
    "BUG1 (CWE-1202) stale I$ after unfenced code patch": """
        auipc t1, 0
        addi t1, t1, 36
        lui t0, 0x138
        addi t0, t0, 0x393
        addi t3, x0, 0
        j target
    patch:
        sw t0, 0(t1)
        nop                  # the missing FENCE.I
        j target
    target:
        addi t2, t2, 2
        bne t3, x0, done
        addi t3, x0, 1
        j patch
    done:
        nop
    """,
    "BUG2 (CWE-440) tracer drops mul/div write-backs": """
        li a0, 6
        li a1, 7
        mul a2, a0, a1
        div a3, a2, a1
    """,
    "FINDING1 trap-priority inversion": """
        slli t1, t1, 1
        addi t1, t1, 1
        ld a0, 0(t1)
    """,
    "FINDING2 AMO rd=x0 shows data in trace": """
        amoor.d x0, a1, (s0)
    """,
    "FINDING3 spurious x0 write after load+jalr": """
        ld a0, 0(s0)
        jalr x0, 0(ra)
    """,
}

print("=== part 1: targeted reproduction ===")
missed = []
for title, source in TARGETED.items():
    bug_id = title.split()[0]
    body = Assembler(base=body_base).assemble(source)
    dut, gold, _ = harness.run_differential(body)
    mismatches = compare_traces(dut, gold)
    if bug_id in detected_bugs(mismatches):
        status = "TRIGGERED"
    else:
        missed.append(bug_id)
        status = (f"diverged, but not as {bug_id}" if mismatches
                  else "no divergence")
    print(f"\n{title}: {status}")
    for mismatch in mismatches[:2]:
        print("   ", mismatch)

print("\n=== part 2: find them by fuzzing ===")
print("training a small ChatFuzz model...")
pipeline = ChatFuzzPipeline(PipelineConfig(
    corpus_functions=180,
    model=GPT2Config(dim=48, n_layers=2, n_heads=2, max_seq=80),
    lm=LMTrainConfig(steps=300, batch_size=12, lr=2e-3),
    step2_steps=4, step3_steps=2, ppo_batch_size=12,
    response_instructions=20,
))
pipeline.run_all(make_harness("rocket"))

loop = FuzzLoop(pipeline.make_generator(seed=5), make_harness("rocket"),
                batch_size=20)
result = Campaign(loop, "bughunt").run_tests(400)
print(f"\n{result.summary()}")

groups = classify_mismatches(loop.detector.unique.values())
found = detected_bugs(loop.detector.unique.values())
for bug_id, info in KNOWN_BUGS.items():
    status = "FOUND" if bug_id in found else "not found in this campaign"
    count = len(groups.get(bug_id, []))
    print(f"  {bug_id:9s} ({info.cwe or 'spec deviation':13s}) "
          f"{status} [{count} unique signature(s)]")
print(f"  unexplained unique signatures: "
      f"{len(groups.get('UNEXPLAINED', []))}")

if missed:
    print(f"\npart 1 did not trigger: {', '.join(missed)}")
    sys.exit(1)
