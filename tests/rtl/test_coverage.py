"""Condition-coverage database semantics."""

import pytest

from repro.rtl.coverage import ConditionCoverage


class TestDeclaration:
    def test_declare_returns_sequential_handles(self):
        cov = ConditionCoverage()
        assert cov.declare("a") == 0
        assert cov.declare("b") == 1
        assert cov.total_arms == 4

    def test_duplicate_rejected(self):
        cov = ConditionCoverage()
        cov.declare("a")
        with pytest.raises(ValueError):
            cov.declare("a")

    def test_freeze_blocks_declaration(self):
        cov = ConditionCoverage()
        cov.freeze()
        with pytest.raises(RuntimeError):
            cov.declare("late")


class TestRecording:
    def test_arms_indexed_false_then_true(self):
        cov = ConditionCoverage()
        h = cov.declare("c")
        cov.record(h, False)
        assert cov.run_hits == {2 * h}
        cov.record(h, True)
        assert cov.run_hits == {2 * h, 2 * h + 1}

    def test_record_returns_value(self):
        cov = ConditionCoverage()
        h = cov.declare("c")
        assert cov.record(h, 1 == 1) is True
        assert cov.record(h, []) is False

    def test_begin_run_clears_hits(self):
        cov = ConditionCoverage()
        h = cov.declare("c")
        cov.record(h, True)
        cov.begin_run()
        assert cov.run_hits == set()

    def test_arm_names(self):
        cov = ConditionCoverage()
        cov.declare("core.alu.zero")
        assert cov.arm_name(0) == "core.alu.zero:F"
        assert cov.arm_name(1) == "core.alu.zero:T"

    def test_repeated_hits_idempotent(self):
        cov = ConditionCoverage()
        h = cov.declare("c")
        for _ in range(5):
            cov.record(h, True)
        assert len(cov.run_hits) == 1


class TestMaskRecording:
    def test_arm_bit_matches_record(self):
        cov = ConditionCoverage()
        h = cov.declare("c")
        assert cov.arm_bit(h, False) == 1 << (2 * h)
        assert cov.arm_bit(h, True) == 1 << (2 * h + 1)
        # Truthiness follows bool(), like record().
        assert cov.arm_bit(h, []) == cov.arm_bit(h, False)
        assert cov.arm_bit(h, 7) == cov.arm_bit(h, True)

    def test_record_mask_equals_scalar_records(self):
        group = ConditionCoverage()
        scalar = ConditionCoverage()
        handles = [(group.declare(f"c{i}"), scalar.declare(f"c{i}"))
                   for i in range(6)]
        group.freeze()
        scalar.freeze()
        mask = 0
        for (gh, sh), value in zip(handles, [True, False, True, True, False, False]):
            mask |= group.arm_bit(gh, value)
            scalar.record(sh, value)
        group.record_mask(mask)
        assert group.run_hits == set(scalar.run_hits)

    def test_record_mask_accumulates(self):
        cov = ConditionCoverage()
        h = cov.declare("c")
        cov.freeze()
        cov.record_mask(cov.arm_bit(h, False))
        cov.record_mask(cov.arm_bit(h, True))
        assert cov.run_hits == {2 * h, 2 * h + 1}


class TestArmRoundTrip:
    """Satellite: every set bit of a bitset report maps to a declared arm
    name, and every arm name maps back to its bit."""

    def test_arm_name_index_roundtrip_all_arms(self):
        cov = ConditionCoverage()
        for i in range(10):
            cov.declare(f"unit{i % 3}.cond{i}")
        cov.freeze()
        for arm in range(cov.total_arms):
            assert cov.arm_index(cov.arm_name(arm)) == arm

    def test_report_bits_resolve_to_declared_names_and_back(self):
        from repro.rtl.report import CoverageReport

        cov = ConditionCoverage()
        handles = [cov.declare(f"u.c{i}") for i in range(16)]
        cov.freeze()
        for h in handles[::2]:
            cov.record(h, True)
        for h in handles[::3]:
            cov.record(h, False)
        report = CoverageReport.from_coverage(cov)
        declared = set(cov.names())
        for arm in report.hits:
            assert arm < cov.total_arms
            name = cov.arm_name(arm)
            assert name.rpartition(":")[0] in declared
            assert cov.arm_index(name) == arm
        # Reverse direction: names of recorded arms pick out exactly the
        # report's bits.
        assert {cov.arm_index(cov.arm_name(a)) for a in report.hits} == set(
            report.hits
        )

    def test_arm_index_rejects_unknown(self):
        cov = ConditionCoverage()
        cov.declare("a")
        with pytest.raises(KeyError):
            cov.arm_index("nope:T")
        with pytest.raises(KeyError):
            cov.arm_index("a:X")
