"""Event schema golden tests: every kind round-trips with its version tag,
and the sink protocol honours its cost contract (disabled sinks do nothing,
payloads may carry a ``kind`` field of their own)."""

from __future__ import annotations

import json

import pytest

from repro.obs.events import (
    EVENT_KINDS,
    NULL_SINK,
    SCHEMA_VERSION,
    Event,
    ListSink,
    WorkerIdentity,
)

#: One representative payload per kind — the golden corpus.  Every kind the
#: runtime can emit must appear here (pinned below), so adding a kind
#: without a serialisation test fails loudly.
GOLDEN_PAYLOADS = {
    "worker_started": {"identity": {"host": "box", "pid": 7,
                                    "python": "3.11.0", "started": 1.5,
                                    "nonce": "1-abc"}},
    "fleet_started": {"mode": "streaming", "n_workers": 4,
                      "worker_slots": 4, "arms": 3, "resumed_tests": 128},
    "fleet_finished": {"mode": "streaming", "wall_seconds": 12.5,
                       "busy_seconds": 40.1, "slices": 18, "tests": 1024,
                       "union_percent": 71.2},
    "slice_dispatched": {"arm": 1, "name": "thehuzz-0", "ordinal": 3,
                         "attempt": 0, "n_tests": 64},
    "slice_completed": {"arm": 1, "name": "thehuzz-0", "tests": 256,
                        "ran": 64, "busy_seconds": 1.25,
                        "coverage_percent": 63.2},
    "slice_retried": {"arm": 2, "name": "random-0", "ordinal": 1,
                      "attempt": 1, "error": "RuntimeError: injected"},
    "slice_timeout": {"arm": 2, "name": "random-0", "ordinal": 1,
                      "limit_seconds": 5.0},
    "arm_quarantined": {"arm": 2, "name": "random-0",
                        "error": "RuntimeError: injected", "retries": 2,
                        "tests_run": 128},
    "pool_rebuilt": {"layer": "fleet", "reason": "worker death"},
    "checkpoint_written": {"rounds": 9, "dirty": [0, 2]},
    "arm_reward": {"arm": 0, "tests": 64, "reward": 0.031, "count": 4,
                   "mean": 0.05, "total": 0.2},
    "batch_generated": {"n": 16, "seconds": 0.002},
    "batch_executed": {"n": 16, "seconds": 0.118},
    "batch_folded": {"n": 16, "seconds": 0.003, "mismatches": 2},
    "coverage_point": {"campaign": "thehuzz-0", "tests": 128,
                       "sim_hours": 0.8, "coverage_percent": 61.0},
    "mismatch_found": {"kind": "rd_missing",
                       "signature": ["rd_missing", "mul"], "pc": 4096,
                       "detail": "golden writes x3, dut omits it"},
}


class TestEventSchema:
    def test_golden_corpus_covers_every_kind(self):
        assert set(GOLDEN_PAYLOADS) == set(EVENT_KINDS)

    @pytest.mark.parametrize("kind", sorted(EVENT_KINDS))
    def test_round_trip(self, kind):
        event = Event(kind=kind, data=GOLDEN_PAYLOADS[kind], t=123.25,
                      seq=7, writer="box-7-1")
        line = event.to_json()
        assert json.loads(line)["v"] == SCHEMA_VERSION
        clone = Event.from_json(line)
        assert clone == event
        # The line format is stable: one line, compact, sorted keys.
        assert "\n" not in line
        assert line == Event.from_json(line).to_json()

    def test_newer_schema_refused(self):
        line = Event(kind="fleet_started", data={}).to_json().replace(
            f'"v":{SCHEMA_VERSION}', f'"v":{SCHEMA_VERSION + 1}'
        )
        with pytest.raises(ValueError, match="newer than this reader"):
            Event.from_json(line)

    def test_older_schema_accepted(self):
        # A v0 reader artifact: older events load (forward-compat burden
        # is on payload handling, not the envelope).
        line = Event(kind="fleet_started", data={}, version=0).to_json()
        assert Event.from_json(line).version == 0


class TestWorkerIdentity:
    def test_local_identities_are_unique(self):
        a, b = WorkerIdentity.local(), WorkerIdentity.local()
        assert a.writer_id != b.writer_id

    def test_dict_round_trip(self):
        # The store's worker_started record carries every identity field.
        identity = WorkerIdentity.local()
        assert WorkerIdentity(**identity.as_dict()) == identity

    def test_writer_id_is_filesystem_safe(self):
        identity = WorkerIdentity(host="we?ird/host:name", pid=12,
                                  python="3.11.0", started=0.0, nonce="1-ff")
        assert "/" not in identity.writer_id
        assert "?" not in identity.writer_id
        assert ":" not in identity.writer_id


class TestSinks:
    def test_null_sink_is_disabled(self):
        assert NULL_SINK.enabled is False
        NULL_SINK.emit("fleet_started", anything="goes")  # must not raise

    def test_list_sink_preserves_order_and_seq(self):
        sink = ListSink()
        sink.emit("batch_generated", n=1, seconds=0.1)
        sink.emit("batch_executed", n=1, seconds=0.2)
        assert [e.kind for e in sink.events] == ["batch_generated",
                                                 "batch_executed"]
        assert [e.seq for e in sink.events] == [0, 1]

    def test_payload_may_contain_kind_field(self):
        # mismatch_found payloads carry their own "kind" key; the sink
        # protocol keeps the event kind positional-only so this works.
        sink = ListSink()
        sink.emit("mismatch_found", kind="rd_missing", pc=8)
        assert sink.events[0].kind == "mismatch_found"
        assert sink.events[0].data["kind"] == "rd_missing"

    def test_context_manager_closes(self):
        closed = []

        class Recording(ListSink):
            def close(self):
                closed.append(True)

        with Recording():
            pass
        assert closed == [True]
