"""Structured telemetry events: the fleet's observable vocabulary.

Everything the runtime can *tell* an observer — a slice was dispatched, a
pool was rebuilt, a batch spent so long in generation vs. execution — is an
:class:`Event`: a versioned ``kind`` plus a flat JSON-able payload, stamped
with the emitting writer's identity and a per-writer sequence number.  The
emitting code never talks to files or sockets; it talks to an
:class:`EventSink`, and the sink decides what telemetry costs:

- :data:`NULL_SINK` (the default everywhere) is disabled: instrumented code
  guards its payload construction — and even its ``perf_counter`` calls —
  behind ``sink.enabled``, so an unobserved run does no telemetry work at
  all and stays bit-identical to the pre-instrumentation runtime.
- :class:`ListSink` buffers events in memory (tests, and the worker-side
  relay: a fleet worker records its slice's events into a list that ships
  home with the slice result).
- :class:`~repro.obs.store.StoreSink` appends them to a per-writer segment
  file in a durable results store.

Telemetry is *semantics-free by contract*: no sink may feed information
back into generation, scheduling or execution, and nothing in the data
path reads sink state — pinned by the instrumented-vs-uninstrumented
equality tests in ``tests/obs/``.

The schema is versioned (:data:`SCHEMA_VERSION`, carried on every
serialised event) so a store written by one release can be read — or
explicitly refused — by another.  Every kind the runtime emits is declared
in :data:`EVENT_KINDS`; the golden round-trip test covers each one.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import time
from dataclasses import dataclass, field

#: Bump when an event's payload changes shape incompatibly.
SCHEMA_VERSION = 1

#: Every event kind the runtime emits, with the emitting layer and payload
#: documented where the emission happens.  Grouped by layer:
EVENT_KINDS = frozenset({
    # -- store bookkeeping (repro.obs.store) --
    "worker_started",       # first event of every segment: writer identity
    # -- fleet dispatch (repro.fuzzing.fleet.FleetRunner) --
    "fleet_started",        # mode, workers, arms, resumed test count
    "fleet_finished",       # wall/busy seconds, slices, tests, union %
    "slice_dispatched",     # arm, ordinal, attempt, n_tests
    "slice_completed",      # arm, cumulative tests, busy seconds, coverage
    "slice_retried",        # arm, ordinal, next attempt, error
    "slice_timeout",        # arm, ordinal, configured limit
    "arm_quarantined",      # arm, terminal error, retries, tests_run
    "pool_rebuilt",         # layer ("fleet" | "executor"), reason
    "checkpoint_written",   # rounds, dirty arm indices
    # -- budget scheduling (repro.fuzzing.scheduler) --
    "arm_reward",           # arm, reward, per-arm play count / mean so far
    # -- fuzz loop phases (repro.fuzzing.chatfuzz.FuzzLoop) --
    "batch_generated",      # n bodies, generation seconds
    "batch_executed",       # n bodies, execution seconds
    "batch_folded",         # n bodies, coverage-fold seconds, mismatches
    # -- campaign trajectory (repro.fuzzing.campaign.Campaign) --
    "coverage_point",       # campaign, tests, sim_hours, coverage %
    "mismatch_found",       # campaign/arm, kind, signature, pc, detail
})


@dataclass(frozen=True)
class Event:
    """One telemetry event (see module docstring).

    ``seq`` is monotonic *per writer* — together with ``writer`` it orders
    a segment even when wall clocks misbehave; ``t`` (epoch seconds) is
    what cross-writer linearisation sorts on
    (:func:`repro.obs.store.linearize_events`).  ``data`` must stay
    JSON-able: scalars, strings, lists — packed bitmaps travel through
    :meth:`EventSink.save_coverage` instead, never through event payloads.
    """

    kind: str
    data: dict = field(default_factory=dict)
    t: float = 0.0
    seq: int = 0
    writer: str = ""
    version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        """One-line JSON form (the segment-file record format)."""
        return json.dumps(
            {"v": self.version, "kind": self.kind, "t": self.t,
             "seq": self.seq, "writer": self.writer, "data": self.data},
            separators=(",", ":"), sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "Event":
        """Parse :meth:`to_json` output (raises on unknown major version)."""
        record = json.loads(line)
        version = int(record["v"])
        if version > SCHEMA_VERSION:
            raise ValueError(
                f"event schema v{version} is newer than this reader "
                f"(v{SCHEMA_VERSION}); upgrade to read this store"
            )
        return cls(kind=record["kind"], data=record["data"],
                   t=float(record["t"]), seq=int(record["seq"]),
                   writer=record["writer"], version=version)


@dataclass(frozen=True)
class WorkerIdentity:
    """Who wrote a telemetry segment: host, pid, versions, start time.

    The hypofuzz-style multi-writer key: every runner (a fleet parent
    process today, a remote worker daemon tomorrow) gets its own identity,
    its own append-only segment file named by :attr:`writer_id`, and the
    store merges segments by identity — no cross-process file locking
    anywhere.  ``nonce`` disambiguates two writers that share host+pid
    (a resumed run after pid reuse, or two stores in one process).
    """

    host: str
    pid: int
    python: str
    started: float
    nonce: str

    _COUNTER = iter(range(1, 1 << 62))

    @classmethod
    def local(cls) -> "WorkerIdentity":
        return cls(
            host=socket.gethostname(),
            pid=os.getpid(),
            python=platform.python_version(),
            started=time.time(),
            nonce=f"{next(cls._COUNTER):x}-{time.time_ns() & 0xFFFFFF:06x}",
        )

    @property
    def writer_id(self) -> str:
        """Filesystem-safe unique segment name for this writer."""
        host = "".join(c if c.isalnum() or c in "-." else "_"
                       for c in self.host)
        return f"{host}-{self.pid}-{self.nonce}"

    def as_dict(self) -> dict:
        return {"host": self.host, "pid": self.pid, "python": self.python,
                "started": self.started, "nonce": self.nonce}


class EventSink:
    """Where instrumented code sends telemetry (see module docstring).

    The emitting contract: hot paths check :attr:`enabled` before doing
    *any* telemetry work (timers, payload dicts), call
    :meth:`emit` with the kind plus flat JSON-able keyword fields, and
    hand packed coverage bitmaps to :meth:`save_coverage` (bitmaps have no
    reasonable JSON form and only their latest value matters).  Sinks must
    never raise into the data path and never feed anything back.
    """

    #: False only on :class:`NullSink` — the "is telemetry on?" fast guard.
    enabled: bool = True

    def emit(self, kind: str, /, **data) -> None:
        """Record one event (kind + flat JSON-able payload)."""
        raise NotImplementedError

    def save_coverage(self, key: str, bitmap) -> None:
        """Record the latest packed coverage bitmap for ``key``.

        No-op by default: in-memory sinks aggregate events, and only
        durable sinks (the store) need the bitmaps for union arithmetic.
        """

    def close(self) -> None:
        """Flush and release sink resources (idempotent)."""

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullSink(EventSink):
    """The default sink: telemetry off, emission a no-op.

    ``enabled`` is False so instrumented code skips payload construction
    entirely; ``emit`` still exists (and stays cheap) for call sites that
    don't bother guarding.
    """

    enabled = False

    def emit(self, kind: str, /, **data) -> None:
        pass


#: Shared disabled sink — the default value of every ``sink`` parameter.
NULL_SINK = NullSink()


class ListSink(EventSink):
    """In-memory sink: events accumulate on :attr:`events` in emit order.

    Used by tests and by the fleet's worker-side relay (a slice's events
    are recorded in the worker and re-emitted by the parent into its own
    sink, keeping one writer per store segment).
    """

    def __init__(self, writer: str = "memory") -> None:
        self.writer = writer
        self.events: list[Event] = []

    def emit(self, kind: str, /, **data) -> None:
        self.events.append(Event(kind=kind, data=data, t=time.time(),
                                 seq=len(self.events), writer=self.writer))

    def __len__(self) -> int:
        return len(self.events)
