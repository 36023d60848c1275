"""Observability layer: structured events, durable results store, dashboard.

``repro.obs.events`` defines the telemetry vocabulary and sink protocol,
``repro.obs.store`` the append-only multi-writer results database, and
``repro.obs.dashboard`` the stdlib live dashboard over a store.  The
runtime only ever imports ``events`` (sinks are cheap and dependency-free);
store and dashboard are read/write endpoints layered on top.
"""

from repro.obs.events import (
    EVENT_KINDS,
    NULL_SINK,
    SCHEMA_VERSION,
    Event,
    EventSink,
    ListSink,
    NullSink,
    WorkerIdentity,
)
from repro.obs.store import (
    ResultsStore,
    StoreAggregates,
    StoreSink,
    downsample,
    linearize_events,
)

__all__ = [
    "EVENT_KINDS",
    "NULL_SINK",
    "SCHEMA_VERSION",
    "Event",
    "EventSink",
    "ListSink",
    "NullSink",
    "ResultsStore",
    "StoreAggregates",
    "StoreSink",
    "WorkerIdentity",
    "downsample",
    "linearize_events",
]
