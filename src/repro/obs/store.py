"""Durable, append-only results store: the fleet's persistent database.

Checkpoints (`repro.fuzzing.fleet.FleetCheckpoint`) answer "where do I
resume?" — mutable snapshots that are overwritten in place and die with
their directory.  The store answers "what happened?": an append-only event
log plus latest-value coverage bitmaps that accumulate across runs, kills,
resumes and (eventually) remote writers, and that a dashboard or report
can read *while a fleet writes*.  Layout under one directory::

    store.json               # {"version": ..., "created": ...}
    events/<writer>.jsonl    # one append-only segment per writer
    coverage/<key>.cov       # latest packed bitmap per campaign arm

Multi-writer safety follows hypofuzz's ``HypofuzzDatabase`` playbook: no
shared file is ever appended by two processes.  Every writer — keyed by a
:class:`~repro.obs.events.WorkerIdentity` — owns one segment file and
announces itself with a ``worker_started`` event; readers merge segments
with :func:`linearize_events`, a deterministic sort on ``(t, writer,
seq)`` (hypofuzz's ``linearize_reports`` for asynchronous per-worker
report streams).  Coverage bitmaps are latest-value-wins and written with
atomic replace, which is safe for monotone data: coverage only grows.

Crash tolerance is structural rather than transactional: segment appends
mean a kill can only tear the *final line* of a segment, and
:meth:`ResultsStore.read_segments` silently drops a torn tail — the
intact prefix is always a valid store.  A resumed fleet opens a *new*
segment (fresh writer identity) and, because resume skips checkpointed
slices, re-emits only work whose completion the kill discarded;
:meth:`ResultsStore.aggregate` additionally dedupes per-slice and
per-point events by their cumulative test count, so the one slice that
may legitimately be re-run after a kill (completed, event written,
checkpoint pre-empted) never double-counts.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.obs.events import (
    SCHEMA_VERSION,
    Event,
    EventSink,
    WorkerIdentity,
)
from repro.rtl.bitset import Bitset
from repro.rtl.report import disjoint_union_percent

#: Bitmap file header: 8 little-endian bytes of universe size (nbits).
_COV_HEADER_BYTES = 8

#: Default per-arm curve-point cap served to dashboards/reports.
CURVE_POINT_CAP = 256


def linearize_events(events: Iterable[Event]) -> list[Event]:
    """Merge per-writer event streams into one deterministic timeline.

    Sorted by ``(t, writer, seq)``: wall-clock first (the fleet timeline),
    writer id then per-writer sequence as tie-breaks — so the merge of any
    set of segments is a pure function of their contents, independent of
    read order, dict iteration or hash seed (pinned under
    ``PYTHONHASHSEED=0`` in CI's observability job).
    """
    return sorted(events, key=lambda e: (e.t, e.writer, e.seq))


def downsample(points: list, cap: int = CURVE_POINT_CAP) -> list:
    """Thin a curve to at most ``cap`` points, always keeping the last.

    Deterministic stride sampling — the dashboard's curves stay bounded no
    matter how long a fleet runs, and the final point (the headline
    number) is always exact.
    """
    if cap <= 0 or len(points) <= cap:
        return list(points)
    stride = -(-len(points) // cap)
    thinned = points[::stride]
    if thinned[-1] is not points[-1]:
        thinned.append(points[-1])
    return thinned


class StoreSink(EventSink):
    """An :class:`~repro.obs.events.EventSink` appending to one store segment.

    One sink = one writer = one segment file; construct a fresh sink per
    process and per run (the default :meth:`WorkerIdentity.local` identity
    embeds pid and a nonce, so resumes and concurrent writers can never
    collide).  Every event is flushed on emit — the durability contract is
    "a reader sees every event the writer survived", and at fuzzing batch
    rates (tens of events/sec) the flush cost is noise (measured by
    ``benchmarks/test_perf_obs.py``).
    """

    def __init__(self, store: "ResultsStore | str | Path",
                 identity: WorkerIdentity | None = None) -> None:
        self.store = (store if isinstance(store, ResultsStore)
                      else ResultsStore(store))
        self.identity = identity if identity is not None \
            else WorkerIdentity.local()
        self._seq = 0
        self.path = self.store.events_dir / f"{self.identity.writer_id}.jsonl"
        self.store.events_dir.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a", encoding="utf-8")
        self.emit("worker_started", identity=self.identity.as_dict())

    def emit(self, kind: str, /, **data) -> None:
        if self._fh is None:
            return  # closed sinks drop late emissions rather than raise
        event = Event(kind=kind, data=data, t=time.time(), seq=self._seq,
                      writer=self.identity.writer_id)
        self._seq += 1
        self._fh.write(event.to_json() + "\n")
        self._fh.flush()

    def save_coverage(self, key: str, bitmap: Bitset) -> None:
        self.store.save_coverage(key, bitmap)

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()


class ResultsStore:
    """One campaign-fleet database directory (see module docstring).

    Writers get segments via :meth:`sink`; readers use
    :meth:`read_events` / :meth:`load_coverage` for the raw data and
    :meth:`aggregate` for the precomputed view the dashboard and text
    report serve.  A store may be read at any moment, including while a
    fleet is writing into it — every read path tolerates concurrent
    appends and in-progress atomic replaces.
    """

    def __init__(self, directory: str | Path, create: bool = True) -> None:
        self.directory = Path(directory)
        self.meta_path = self.directory / "store.json"
        if create:
            self.directory.mkdir(parents=True, exist_ok=True)
            if not self.meta_path.exists():
                self._write_atomic(self.meta_path, json.dumps(
                    {"version": SCHEMA_VERSION, "created": time.time()},
                    indent=2,
                ).encode() + b"\n")
        elif not self.meta_path.exists():
            raise FileNotFoundError(f"no results store at {self.directory}")

    @property
    def events_dir(self) -> Path:
        return self.directory / "events"

    @property
    def coverage_dir(self) -> Path:
        return self.directory / "coverage"

    def sink(self, identity: WorkerIdentity | None = None) -> StoreSink:
        """Open a new writer segment (one per process per run)."""
        return StoreSink(self, identity)

    # -- writing ---------------------------------------------------------------

    @staticmethod
    def _write_atomic(path: Path, data: bytes) -> None:
        temp = path.with_name(path.name + ".tmp")
        temp.write_bytes(data)
        os.replace(temp, path)

    @staticmethod
    def _coverage_key(key: str) -> str:
        return "".join(c if c.isalnum() or c in "-._" else "_" for c in key)

    def save_coverage(self, key: str, bitmap: Bitset) -> None:
        """Record ``key``'s latest packed bitmap (atomic replace; coverage
        is monotone, so latest-value-wins loses nothing)."""
        self.coverage_dir.mkdir(parents=True, exist_ok=True)
        payload = (bitmap.nbits.to_bytes(_COV_HEADER_BYTES, "little")
                   + bitmap.to_bytes())
        self._write_atomic(self.coverage_dir / f"{self._coverage_key(key)}.cov",
                           payload)

    # -- reading ---------------------------------------------------------------

    def read_segments(self) -> dict[str, list[Event]]:
        """Every segment's intact event prefix, keyed by writer id.

        A kill mid-append can only tear a segment's final line; the first
        undecodable line therefore ends that segment's readable prefix
        (everything before it was written by completed appends).
        """
        segments: dict[str, list[Event]] = {}
        if not self.events_dir.is_dir():
            return segments
        for path in sorted(self.events_dir.glob("*.jsonl")):
            events: list[Event] = []
            for line in path.read_text(encoding="utf-8",
                                       errors="replace").splitlines():
                if not line.strip():
                    continue
                try:
                    events.append(Event.from_json(line))
                except (json.JSONDecodeError, KeyError, TypeError):
                    break  # torn tail: keep the intact prefix
            segments[path.stem] = events
        return segments

    def read_events(self) -> list[Event]:
        """All intact events across all writers, linearized."""
        return linearize_events(
            event for events in self.read_segments().values()
            for event in events
        )

    def load_coverage(self) -> dict[str, Bitset]:
        """The latest packed bitmap per key (see :meth:`save_coverage`)."""
        bitmaps: dict[str, Bitset] = {}
        if not self.coverage_dir.is_dir():
            return bitmaps
        for path in sorted(self.coverage_dir.glob("*.cov")):
            data = path.read_bytes()
            if len(data) < _COV_HEADER_BYTES:
                continue  # torn write of a non-atomic copy; skip
            nbits = int.from_bytes(data[:_COV_HEADER_BYTES], "little")
            bitmaps[path.stem] = Bitset.from_bytes(
                data[_COV_HEADER_BYTES:], nbits
            )
        return bitmaps

    def aggregate(self) -> "StoreAggregates":
        """The precomputed dashboard/report view of the whole store."""
        return StoreAggregates.build(self.read_events(),
                                     self.load_coverage())


@dataclass
class StoreAggregates:
    """Precomputed aggregates over one store: what dashboards serve.

    All fields are plain JSON-able values (:meth:`as_dict` is the API
    payload).  Built in one linear pass over the linearized event log
    plus the latest coverage bitmaps — no simulation state is ever
    reconstructed, which is what keeps the read path cheap while fleets
    write.
    """

    #: Per-arm rows: name, tests, coverage %, downsampled curve, busy
    #: seconds, quarantine flag and per-phase wall-time sums.
    arms: list[dict] = field(default_factory=list)
    #: Fleet-union coverage percent (union of the latest per-arm bitmaps,
    #: one union per universe size, so Rocket and BOOM arms mix soundly).
    union_percent: float = 0.0
    #: Arms summed over those universes.
    universe: int = 0
    total_tests: int = 0
    busy_seconds: float = 0.0
    wall_seconds: float = 0.0
    worker_slots: int = 1
    utilisation: float = 0.0
    mode: str = ""
    #: fleet_started count — 1 for a single run, more after resumes.
    runs: int = 0
    live: bool = False
    health: dict = field(default_factory=dict)
    #: Per-phase wall-time sums across all arms (generation / execution /
    #: fold), from the loop's timer events.
    phases: dict = field(default_factory=dict)
    #: Deduped mismatch signatures with per-arm attribution.
    mismatches: list[dict] = field(default_factory=list)
    events: int = 0
    last_event_t: float = 0.0

    def as_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def build(cls, events: list[Event],
              bitmaps: dict[str, Bitset]) -> "StoreAggregates":
        arms: dict[str, dict] = {}
        seen_slices: set[tuple] = set()
        seen_points: set[tuple] = set()
        seen_signatures: dict[tuple, dict] = {}
        health = {"retries": 0, "timeouts": 0, "pool_rebuilds": 0,
                  "quarantined": []}
        phases = {"generation_seconds": 0.0, "execution_seconds": 0.0,
                  "fold_seconds": 0.0}
        agg = cls()

        def arm_row(name: str) -> dict:
            row = arms.get(name)
            if row is None:
                row = arms[name] = {
                    "name": name, "arm": None, "tests": 0,
                    "coverage_percent": 0.0, "sim_hours": 0.0,
                    "busy_seconds": 0.0, "slices": 0, "quarantined": False,
                    "curve": [],
                    "phases": dict.fromkeys(phases, 0.0),
                }
            return row

        open_run_started: float | None = None
        for event in events:
            agg.events += 1
            agg.last_event_t = max(agg.last_event_t, event.t)
            data = event.data
            kind = event.kind
            name = data.get("name") or data.get("campaign")
            if kind == "fleet_started":
                agg.runs += 1
                agg.mode = data.get("mode", agg.mode)
                agg.worker_slots = int(data.get("worker_slots",
                                                agg.worker_slots))
                open_run_started = event.t
            elif kind == "fleet_finished":
                agg.wall_seconds += float(data.get("wall_seconds", 0.0))
                open_run_started = None
            elif kind == "slice_completed":
                row = arm_row(name)
                row["arm"] = data.get("arm", row["arm"])
                key = (name, data.get("tests", 0))
                if key in seen_slices:
                    continue  # kill/resume re-ran an unsnapshotted slice
                seen_slices.add(key)
                row["slices"] += 1
                row["tests"] = max(row["tests"], int(data.get("tests", 0)))
                row["coverage_percent"] = max(
                    row["coverage_percent"],
                    float(data.get("coverage_percent", 0.0)),
                )
                row["busy_seconds"] += float(data.get("busy_seconds", 0.0))
            elif kind == "coverage_point":
                row = arm_row(name)
                key = (name, data.get("tests", 0))
                if key in seen_points:
                    continue
                seen_points.add(key)
                row["curve"].append([
                    int(data.get("tests", 0)),
                    float(data.get("sim_hours", 0.0)),
                    float(data.get("coverage_percent", 0.0)),
                ])
                row["tests"] = max(row["tests"], int(data.get("tests", 0)))
                row["sim_hours"] = max(row["sim_hours"],
                                       float(data.get("sim_hours", 0.0)))
                row["coverage_percent"] = max(
                    row["coverage_percent"],
                    float(data.get("coverage_percent", 0.0)),
                )
            elif kind == "slice_retried":
                health["retries"] += 1
            elif kind == "slice_timeout":
                health["timeouts"] += 1
            elif kind == "pool_rebuilt":
                health["pool_rebuilds"] += 1
            elif kind == "arm_quarantined":
                arm_row(name)["quarantined"] = True
                health["quarantined"].append({
                    "name": name, "error": data.get("error", ""),
                    "retries": int(data.get("retries", 0)),
                    "tests_run": int(data.get("tests_run", 0)),
                })
            elif kind in ("batch_generated", "batch_executed",
                          "batch_folded"):
                phase = {"batch_generated": "generation_seconds",
                         "batch_executed": "execution_seconds",
                         "batch_folded": "fold_seconds"}[kind]
                seconds = float(data.get("seconds", 0.0))
                phases[phase] += seconds
                if name is not None:
                    arm_row(name)["phases"][phase] += seconds
            elif kind == "mismatch_found":
                signature = tuple(freeze_json(data.get("signature", [])))
                entry = seen_signatures.get(signature)
                if entry is None:
                    entry = seen_signatures[signature] = {
                        "kind": data.get("kind", ""),
                        "signature": list(signature),
                        "pc": data.get("pc", 0),
                        "detail": data.get("detail", ""),
                        "campaigns": [],
                    }
                if name is not None and name not in entry["campaigns"]:
                    entry["campaigns"].append(name)

        if open_run_started is not None:
            agg.live = True
            agg.wall_seconds += max(0.0, agg.last_event_t - open_run_started)

        unions: dict[int, int] = {}
        for bitmap in bitmaps.values():
            unions[bitmap.nbits] = (unions.get(bitmap.nbits, 0)
                                    | bitmap.to_int())
        agg.universe = sum(unions)
        agg.union_percent = disjoint_union_percent(unions)

        for name in sorted(arms):
            row = arms[name]
            row["curve"].sort(key=lambda point: point[0])
            row["curve"] = downsample(row["curve"])
            agg.total_tests += row["tests"]
            agg.busy_seconds += row["busy_seconds"]
            agg.arms.append(row)
        if agg.wall_seconds > 0:
            agg.utilisation = agg.busy_seconds / (
                agg.wall_seconds * max(1, agg.worker_slots)
            )
        agg.health = health
        agg.phases = phases
        agg.mismatches = list(seen_signatures.values())
        return agg


def freeze_json(value):
    """JSON round-trips tuples as lists; re-freeze nested lists so rebuilt
    mismatch signatures hash and compare like the originals."""
    if isinstance(value, list):
        return tuple(freeze_json(item) for item in value)
    return value
