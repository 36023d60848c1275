"""Known-bug matching: the paper's manual analysis step, automated.

The paper's verification engineers manually inspected >100 unique mismatches
and attributed them to two bugs and three specification-deviation findings.
Since our DUT injects exactly those five behaviours, this module can classify
unique mismatch signatures mechanically and verify that a fuzzing campaign
*detected* each one (the E-BUGS experiment).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fuzzing.mismatch import Mismatch
from repro.isa.instructions import INSTRUCTIONS
from repro.isa.spec import (
    EXC_LOAD_ACCESS_FAULT,
    EXC_LOAD_MISALIGNED,
    EXC_STORE_ACCESS_FAULT,
    EXC_STORE_MISALIGNED,
)
from repro.obs.store import freeze_json

_MULDIV = {m for m, s in INSTRUCTIONS.items() if s.is_muldiv}
_AMO = {m for m, s in INSTRUCTIONS.items()
        if s.is_amo and not m.startswith(("lr.", "sc."))}


@dataclass(frozen=True)
class BugMatch:
    """One known behaviour matched against a mismatch."""

    bug_id: str
    cwe: str | None
    description: str


KNOWN_BUGS = {
    "BUG1": BugMatch(
        "BUG1", "CWE-1202",
        "stale instruction fetched after store to code without FENCE.I",
    ),
    "BUG2": BugMatch(
        "BUG2", "CWE-440",
        "tracer omits MUL/DIV destination-register write-back",
    ),
    "FINDING1": BugMatch(
        "FINDING1", None,
        "access-fault reported where the spec prioritises address-misaligned",
    ),
    "FINDING2": BugMatch(
        "FINDING2", None,
        "AMO with rd=x0 shows data arriving at x0 in the trace",
    ),
    "FINDING3": BugMatch(
        "FINDING3", None,
        "spurious x0 write-back records in the trace",
    ),
}

_MISALIGNED_TO_FAULT = {
    (EXC_LOAD_ACCESS_FAULT, EXC_LOAD_MISALIGNED),
    (EXC_STORE_ACCESS_FAULT, EXC_STORE_MISALIGNED),
}


def classify_mismatch(mismatch: Mismatch) -> BugMatch | None:
    """Attribute one mismatch to a known behaviour, or None if unexplained."""
    signature = mismatch.signature
    if not signature:
        return None  # degenerate/foreign signature: unexplained, not a crash
    kind = signature[0]
    if kind == "instr_word":
        return KNOWN_BUGS["BUG1"]
    if kind in ("pc_divergence", "trace_length", "stop_reason", "rd_value",
                "mem", "csr"):
        # Downstream consequences of a stale-fetch divergence (or a filtered
        # false positive); attribute the architectural ones to Bug1.
        if kind in ("pc_divergence", "trace_length", "stop_reason"):
            return KNOWN_BUGS["BUG1"]
        return None
    if kind == "rd_missing" and len(signature) > 1 and signature[1] in _MULDIV:
        return KNOWN_BUGS["BUG2"]
    if kind == "rd_spurious_x0" and len(signature) > 1:
        if signature[1] in _AMO:
            return KNOWN_BUGS["FINDING2"]
        if signature[1] == "jalr":
            return KNOWN_BUGS["FINDING3"]
    if kind == "trap_cause" and len(signature) >= 4:
        if (signature[2], signature[3]) in _MISALIGNED_TO_FAULT:
            return KNOWN_BUGS["FINDING1"]
    return None


def classify_mismatches(mismatches) -> dict[str, list[Mismatch]]:
    """Group mismatches by matched bug id ('UNEXPLAINED' for the rest)."""
    groups: dict[str, list[Mismatch]] = {}
    for mismatch in mismatches:
        match = classify_mismatch(mismatch)
        key = match.bug_id if match is not None else "UNEXPLAINED"
        groups.setdefault(key, []).append(mismatch)
    return groups


def detected_bugs(mismatches) -> set[str]:
    """The set of known bug ids evidenced by the given mismatches."""
    return {
        bug_id
        for bug_id, items in classify_mismatches(mismatches).items()
        if bug_id != "UNEXPLAINED" and items
    }


def classify_bug_rows(aggregates_dict: dict) -> list[dict]:
    """Attribute a results store's unique mismatch signatures to known bugs.

    The JSON form of the E-BUGS table, which the dashboard's
    ``/api/summary`` and the text report both render: one row per unique
    signature with the matched bug id (``UNEXPLAINED`` if none) and the
    arms that saw it, sorted by (bug, kind).
    """
    rows = []
    for entry in aggregates_dict.get("mismatches", []):
        match = classify_mismatch(Mismatch(
            kind=entry["kind"], index=0, pc=entry["pc"],
            detail=entry["detail"], signature=freeze_json(entry["signature"]),
        ))
        rows.append({
            "bug": match.bug_id if match else "UNEXPLAINED",
            "kind": entry["kind"],
            "campaigns": entry["campaigns"],
            "detail": entry["detail"],
        })
    rows.sort(key=lambda row: (row["bug"], row["kind"]))
    return rows
