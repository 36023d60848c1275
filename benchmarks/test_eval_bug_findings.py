"""E-BUGS — bug and finding detection (paper §V-B).

The paper's campaign surfaced two new bugs — Bug1 (CWE-1202, stale I$ after
unfenced code patching) and Bug2 (CWE-440, missing MUL/DIV trace
write-backs) — plus three ISA-deviation findings (trap-priority inversion,
AMO-to-x0 trace data, spurious x0 trace writes).  The bench runs a fuzzing
campaign on the buggy RocketCore and classifies the unique mismatches
against the five known behaviours.
"""

from benchmarks.conftest import emit, scaled
from repro.analysis.bugs import KNOWN_BUGS, classify_mismatches
from repro.analysis.report import format_table
from repro.fuzzing.campaign import Campaign
from repro.fuzzing.chatfuzz import FuzzLoop
from repro.soc.harness import make_harness


def _run(chatfuzz, n_tests):
    loop = FuzzLoop(chatfuzz.generator(seed=151), make_harness("rocket"),
                    batch_size=20)
    Campaign(loop, "bughunt").run_tests(n_tests)
    return classify_mismatches(loop.detector.unique.values())


def test_bug_findings(benchmark, chatfuzz):
    n_tests = scaled(500)
    groups = benchmark.pedantic(_run, args=(chatfuzz, n_tests),
                                rounds=1, iterations=1)
    rows = []
    for bug_id, info in KNOWN_BUGS.items():
        count = len(groups.get(bug_id, []))
        rows.append([
            bug_id,
            info.cwe or "-",
            "DETECTED" if count else "missed",
            str(count),
            info.description[:52],
        ])
    rows.append(["(unexplained)", "-", "-",
                 str(len(groups.get("UNEXPLAINED", []))), ""])
    emit(format_table(
        ["behaviour", "CWE", "status", "unique sigs", "description"],
        rows,
        title=f"E-BUGS: known-behaviour detection after {n_tests} fuzz tests",
    ))
    detected = {k for k, v in groups.items() if k != "UNEXPLAINED" and v}
    # Bug2/Finding2 fire on common instructions and must always be found;
    # a laptop-scale campaign should surface at least four of the five.
    assert "BUG2" in detected
    assert len(detected) >= 4, detected
