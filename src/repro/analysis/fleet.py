"""Cross-campaign analysis: mismatch dedup, attribution, E-BUGS tables.

A fleet of campaigns (``repro.fuzzing.fleet``) finds the same bugs many
times over — every TheHuzz seed that stumbles on Bug2 produces the same
mismatch signature.  The paper's detection table counts each *finding*
once, so this module dedupes unique mismatch signatures across campaigns
while retaining which campaigns found each one (attribution is the
interesting per-fuzzer result: did the weaker feedback still find Bug1?).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.analysis.bugs import KNOWN_BUGS, classify_mismatch
from repro.analysis.report import format_table
from repro.fuzzing.campaign import CampaignResult
from repro.fuzzing.fleet import FleetHealth, FleetStats
from repro.fuzzing.mismatch import Mismatch


@dataclass(frozen=True)
class FleetMismatch:
    """One deduped mismatch signature with per-campaign attribution."""

    #: Representative mismatch (from the first campaign that found it).
    mismatch: Mismatch
    #: Names of every campaign that found this signature, in fleet order.
    campaigns: tuple[str, ...]

    @property
    def signature(self) -> tuple:
        return self.mismatch.signature


def dedupe_mismatches(
    campaigns: Iterable[CampaignResult],
) -> dict[tuple, FleetMismatch]:
    """Collapse identical signatures across campaigns (count-once view).

    Keyed by signature; each entry keeps the first campaign's representative
    mismatch and accumulates the names of all campaigns that found it.
    """
    deduped: dict[tuple, FleetMismatch] = {}
    for campaign in campaigns:
        for mismatch in campaign.mismatches:
            entry = deduped.get(mismatch.signature)
            if entry is None:
                deduped[mismatch.signature] = FleetMismatch(
                    mismatch, (campaign.name,)
                )
            elif campaign.name not in entry.campaigns:
                deduped[mismatch.signature] = FleetMismatch(
                    entry.mismatch, entry.campaigns + (campaign.name,)
                )
    return deduped


def classify_fleet_mismatches(
    campaigns: Iterable[CampaignResult],
) -> dict[str, list[FleetMismatch]]:
    """Deduped signatures grouped by known-bug id ('UNEXPLAINED' rest)."""
    groups: dict[str, list[FleetMismatch]] = {}
    for entry in dedupe_mismatches(campaigns).values():
        match = classify_mismatch(entry.mismatch)
        key = match.bug_id if match is not None else "UNEXPLAINED"
        groups.setdefault(key, []).append(entry)
    return groups


def fleet_bug_rows(campaigns: Iterable[CampaignResult]) -> list[list[str]]:
    """E-BUGS detection rows: one per known bug, plus the unexplained tail.

    Columns: bug id, CWE, detected?, deduped unique signatures, and the
    campaigns that found it (per-campaign attribution).
    """
    campaigns = list(campaigns)
    groups = classify_fleet_mismatches(campaigns)
    rows: list[list[str]] = []
    for bug_id, info in KNOWN_BUGS.items():
        entries = groups.get(bug_id, [])
        found_by = sorted({name for e in entries for name in e.campaigns})
        rows.append([
            bug_id,
            info.cwe or "spec deviation",
            "FOUND" if entries else "not found",
            str(len(entries)),
            ", ".join(found_by) if found_by else "-",
        ])
    unexplained = groups.get("UNEXPLAINED", [])
    if unexplained:
        found_by = sorted({n for e in unexplained for n in e.campaigns})
        rows.append(["UNEXPLAINED", "-", "-", str(len(unexplained)),
                     ", ".join(found_by)])
    return rows


def fleet_stats_rows(stats: Mapping[str, FleetStats]) -> list[list[str]]:
    """Dispatch-accounting rows, one per labelled run (label -> stats).

    Columns: label, mode, worker slots, tests, tests/sec (wall), and
    worker utilisation (busy-time / wall-time per slot) — the metric the
    streaming runtime improves.  A ``~`` marks utilisation on single-slot
    runs, where it is near 1.0 by construction and says nothing about
    dispatch quality.
    """
    rows: list[list[str]] = []
    for label, stat in stats.items():
        tps = (stat.tests / stat.wall_seconds
               if stat.wall_seconds > 0 else 0.0)
        single = "~" if stat.worker_slots == 1 else ""
        rows.append([
            label,
            stat.mode,
            str(stat.worker_slots),
            str(stat.tests),
            f"{tps:.1f}",
            f"{single}{stat.utilisation:.2f}",
        ])
    return rows


def fleet_stats_table(stats: Mapping[str, FleetStats],
                      title: str = "fleet dispatch: throughput and worker "
                                   "utilisation") -> str:
    """The dispatch accounting as an aligned text table."""
    return format_table(
        ["run", "mode", "slots", "tests", "tests/sec", "utilisation"],
        fleet_stats_rows(stats),
        title=title,
    )


def fleet_health_rows(health: FleetHealth) -> list[list[str]]:
    """Fault-tolerance ledger rows: the recovery counters, then one row
    per quarantined arm.

    Columns: event, arm, detail.  Empty on a healthy run — callers
    usually gate on ``health.healthy`` and skip the table entirely.
    """
    rows: list[list[str]] = []
    if health.retries:
        rows.append(["retries", "-", f"{health.retries} slices re-dispatched"])
    if health.timeouts:
        rows.append(["timeouts", "-",
                     f"{health.timeouts} slices exceeded slice_timeout"])
    if health.pool_rebuilds:
        rows.append(["pool rebuilds", "-",
                     f"{health.pool_rebuilds} worker pools recycled"])
    for record in health.quarantined:
        rows.append([
            "quarantined",
            f"{record.arm} ({record.name})",
            f"after {record.retries} retries at {record.tests_run} tests: "
            f"{record.error}",
        ])
    return rows


def fleet_health_table(health: FleetHealth,
                       title: str = "fleet health: retries, timeouts and "
                                    "quarantined arms") -> str:
    """The fault-tolerance ledger as an aligned text table."""
    return format_table(
        ["event", "arm", "detail"],
        fleet_health_rows(health),
        title=title,
    )


def fleet_bug_table(campaigns: Iterable[CampaignResult],
                    title: str = "E-BUGS: fleet detection table "
                                 "(signatures deduped across campaigns)") -> str:
    """The detection table as paper-style aligned text."""
    return format_table(
        ["bug", "cwe", "status", "unique sigs", "found by"],
        fleet_bug_rows(campaigns),
        title=title,
    )
