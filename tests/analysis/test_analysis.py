"""Bug classification, cross-campaign dedup/attribution, report formatting."""

from repro.analysis.bugs import (
    KNOWN_BUGS,
    classify_mismatch,
    classify_mismatches,
    detected_bugs,
)
from repro.analysis.fleet import (
    dedupe_mismatches,
    fleet_bug_rows,
    fleet_bug_table,
)
from repro.analysis.fleet import fleet_health_table, fleet_stats_table
from repro.analysis.report import format_table, store_report
from repro.baselines.random_regression import RandomRegressionGenerator
from repro.fuzzing.campaign import Campaign, CampaignResult
from repro.fuzzing.chatfuzz import FuzzLoop
from repro.fuzzing.fleet import FleetHealth, FleetStats
from repro.fuzzing.mismatch import Mismatch
from repro.obs.store import ResultsStore, StoreAggregates, StoreSink
from repro.soc.harness import make_harness


def mismatch(kind, *signature_tail):
    return Mismatch(kind=kind, index=0, pc=0, detail="",
                    signature=(kind, *signature_tail))


class TestClassification:
    def test_instr_word_is_bug1(self):
        assert classify_mismatch(mismatch("instr_word", "addi")).bug_id == "BUG1"

    def test_pc_divergence_attributed_to_bug1(self):
        assert classify_mismatch(
            mismatch("pc_divergence", "addi")).bug_id == "BUG1"

    def test_muldiv_rd_missing_is_bug2(self):
        match = classify_mismatch(mismatch("rd_missing", "mul"))
        assert match.bug_id == "BUG2"
        assert match.cwe == "CWE-440"

    def test_non_muldiv_rd_missing_unexplained(self):
        assert classify_mismatch(mismatch("rd_missing", "add")) is None

    def test_amo_x0_is_finding2(self):
        assert classify_mismatch(
            mismatch("rd_spurious_x0", "amoor.d")).bug_id == "FINDING2"

    def test_jalr_x0_is_finding3(self):
        assert classify_mismatch(
            mismatch("rd_spurious_x0", "jalr")).bug_id == "FINDING3"

    def test_trap_priority_is_finding1(self):
        assert classify_mismatch(
            mismatch("trap_cause", "ld", 5, 4)).bug_id == "FINDING1"
        assert classify_mismatch(
            mismatch("trap_cause", "sd", 7, 6)).bug_id == "FINDING1"

    def test_other_trap_mismatch_unexplained(self):
        assert classify_mismatch(mismatch("trap_cause", "ld", 2, 8)) is None

    def test_rd_value_unexplained(self):
        assert classify_mismatch(mismatch("rd_value", "add")) is None


class TestGrouping:
    def test_classify_mismatches_groups(self):
        groups = classify_mismatches([
            mismatch("instr_word", "addi"),
            mismatch("rd_missing", "mul"),
            mismatch("rd_value", "add"),
        ])
        assert set(groups) == {"BUG1", "BUG2", "UNEXPLAINED"}

    def test_detected_bugs(self):
        bugs = detected_bugs([
            mismatch("instr_word", "addi"),
            mismatch("rd_spurious_x0", "jalr"),
        ])
        assert bugs == {"BUG1", "FINDING3"}

    def test_known_bug_registry_complete(self):
        assert set(KNOWN_BUGS) == {
            "BUG1", "BUG2", "FINDING1", "FINDING2", "FINDING3"
        }


def campaign(name, *mismatches):
    return CampaignResult(name=name, mismatches=list(mismatches))


class TestFleetDedup:
    """Satellite pin: identical signatures found by different campaigns
    count once in the E-BUGS table, with per-campaign attribution kept."""

    def test_identical_signatures_count_once(self):
        shared = mismatch("rd_missing", "mul")
        deduped = dedupe_mismatches([
            campaign("chatfuzz", shared, mismatch("instr_word", "addi")),
            campaign("thehuzz", shared),
        ])
        assert len(deduped) == 2
        assert deduped[shared.signature].campaigns == ("chatfuzz", "thehuzz")
        assert deduped[("instr_word", "addi")].campaigns == ("chatfuzz",)

    def test_same_campaign_listed_once(self):
        # Two distinct Mismatch objects, same signature, same campaign.
        deduped = dedupe_mismatches([
            campaign("solo", mismatch("rd_missing", "mul"),
                     Mismatch("rd_missing", 3, 8, "later hit",
                              ("rd_missing", "mul"))),
        ])
        assert deduped[("rd_missing", "mul")].campaigns == ("solo",)

    def test_bug_rows_dedupe_and_attribute(self):
        shared = mismatch("rd_missing", "mul")
        results = [
            campaign("chatfuzz", shared, mismatch("rd_missing", "div")),
            campaign("thehuzz", shared),
            campaign("random", mismatch("rd_value", "add")),
        ]
        rows = {row[0]: row for row in fleet_bug_rows(results)}
        # BUG2: 'mul' signature counted once despite two finders.
        assert rows["BUG2"][2] == "FOUND"
        assert rows["BUG2"][3] == "2"  # mul + div signatures
        assert rows["BUG2"][4] == "chatfuzz, thehuzz"
        assert rows["BUG1"][2] == "not found"
        assert rows["UNEXPLAINED"][3] == "1"
        assert rows["UNEXPLAINED"][4] == "random"

    def test_bug_table_renders(self):
        table = fleet_bug_table([campaign("a", mismatch("instr_word", "x"))])
        assert "BUG1" in table and "FOUND" in table
        assert table.splitlines()[0].startswith("E-BUGS")


class TestReport:
    def test_format_table_aligns(self):
        table = format_table(["fuzzer", "cov%"],
                             [["chatfuzz", "74.96"], ["thehuzz", "67.4"]],
                             title="E-1P8K")
        lines = table.splitlines()
        assert lines[0] == "E-1P8K"
        assert "chatfuzz" in lines[3]
        assert len(lines[1]) == len(lines[2])  # header matches separator

    def test_empty_rows(self):
        table = format_table(["a"], [])
        assert "a" in table


class TestDegenerateInputs:
    """Regression pins: renderers and the classifier must survive the
    degenerate shapes a partially-written store (or a foreign writer) can
    legitimately hand them — ragged rows and empty signatures used to
    raise ``IndexError``."""

    def test_format_table_rows_longer_than_headers(self):
        table = format_table(["a", "b"], [["1", "2", "3", "4"]])
        lines = table.splitlines()
        assert "3" in lines[-1] and "4" in lines[-1]
        assert len(lines[0]) == len(lines[1])  # separator spans extras

    def test_format_table_rows_shorter_than_headers(self):
        table = format_table(["a", "b", "c"], [["1"], ["1", "2"]])
        assert "1" in table  # short rows pad, never crash

    def test_classify_empty_signature_is_unexplained(self):
        degenerate = Mismatch(kind="rd_value", index=0, pc=0, detail="",
                              signature=())
        assert classify_mismatch(degenerate) is None

    def test_bug_table_tolerates_empty_signature(self):
        table = fleet_bug_table([campaign(
            "a",
            Mismatch(kind="", index=0, pc=0, detail="", signature=()),
        )])
        assert "UNEXPLAINED" in table

    def test_no_campaigns(self):
        table = fleet_bug_table([])
        assert "not found" in table  # every known bug rendered undetected

    def test_empty_stats_and_health_tables(self):
        assert "run" in fleet_stats_table({})
        assert "tests/sec" in fleet_stats_table({"empty": FleetStats()})
        assert "event" in fleet_health_table(FleetHealth())


class TestStoreReport:
    def aggregates(self):
        return StoreAggregates(
            arms=[{"name": "thehuzz-0", "arm": 0, "tests": 24,
                   "coverage_percent": 61.0, "sim_hours": 0.2,
                   "busy_seconds": 1.5, "slices": 3, "quarantined": False,
                   "curve": [[8, 0.1, 40.0], [24, 0.2, 61.0]],
                   "phases": {"generation_seconds": 0.1,
                              "execution_seconds": 1.2,
                              "fold_seconds": 0.2}}],
            union_percent=61.0, universe=326, total_tests=24,
            busy_seconds=1.5, wall_seconds=2.0, worker_slots=1,
            utilisation=0.75, mode="streaming", runs=1,
            health={"retries": 1, "timeouts": 0, "pool_rebuilds": 0,
                    "quarantined": []},
            phases={"generation_seconds": 0.1, "execution_seconds": 1.2,
                    "fold_seconds": 0.2},
            mismatches=[{"kind": "rd_missing",
                         "signature": ["rd_missing", "mul"], "pc": 64,
                         "detail": "golden writes x3", "campaigns":
                         ["thehuzz-0"]}],
            events=42, last_event_t=0.0,
        )

    def test_renders_every_section(self):
        report = store_report(self.aggregates())
        assert "union coverage: 61.00% of 326" in report
        assert "Arms" in report and "thehuzz-0" in report
        assert "Per-phase wall time" in report and "execution" in report
        assert "Fleet health" in report
        assert "E-BUGS (1 unique signatures)" in report
        assert "BUG2" in report  # muldiv rd_missing classified

    def test_accepts_api_payload_dict(self):
        # The dashboard's /api/summary JSON (as_dict form) renders too —
        # including its list-of-lists signatures.
        assert "BUG2" in store_report(self.aggregates().as_dict())

    def test_empty_store_renders(self):
        report = store_report(StoreAggregates())
        assert "runs: 0" in report
        assert "E-BUGS (0 unique signatures)" in report

    def test_fleet_timing_renders_as_measured(self):
        report = store_report(self.aggregates())
        assert "wall: 2.0s  busy: 1.5s  utilisation: 75%" in report

    def test_single_campaign_store_reports_timing_as_na(self, tmp_path):
        """A store written by a standalone Campaign has no fleet_started
        event, so it has no fleet wall/busy time to report: the header says
        n/a instead of a misleading 0.0s / 0%."""
        store = ResultsStore(tmp_path)
        sink = StoreSink(store)
        loop = FuzzLoop(RandomRegressionGenerator(body_instructions=8, seed=1),
                        make_harness("rocket"), batch_size=4, sink=sink)
        Campaign(loop, "random").run_tests(8)
        sink.close()
        aggregates = store.aggregate()
        assert aggregates.runs == 0
        assert aggregates.total_tests == 8
        report = store_report(aggregates)
        assert "wall: n/a  busy: n/a  utilisation: n/a" in report
