"""Module hierarchy: scoped condition names, prebound arm pairs, reset."""

import pytest

from repro.rtl.coverage import ConditionCoverage
from repro.rtl.module import Module


class Counter(Module):
    """Tiny design used to exercise the framework: its own state plus a
    ``reset`` override, as the caches and the predictor have."""

    def __init__(self, path, cov):
        super().__init__(path, cov)
        self.count = 0
        self.conditions("wrap")

    def reset(self):
        super().reset()
        self.count = 0


class TestModule:
    def test_condition_names_scoped_by_path(self):
        cov = ConditionCoverage()
        m = Module("top.sub", cov)
        m.condition("busy")
        cov.record_mask(m.arm_bit("busy", True))
        assert cov.arm_name(1) == "top.sub.busy:T"
        assert cov.run_hits == {1}

    def test_undeclared_condition_raises(self):
        m = Module("m", ConditionCoverage())
        with pytest.raises(KeyError):
            m.arm_bit("nope", True)

    def test_arms_prebind_each_conditions_pair(self):
        cov = ConditionCoverage()
        m = Module("m", cov)
        m.conditions("a", "b")
        assert m.arms == {"a": (1 << 0, 1 << 1), "b": (1 << 2, 1 << 3)}
        for name, (false_bit, true_bit) in m.arms.items():
            assert m.arm_bit(name, 0) == false_bit
            assert m.arm_bit(name, 7) == true_bit
        cov.record_mask(m.arms["a"][False] | m.arms["b"][True])
        assert {cov.arm_name(arm) for arm in cov.run_hits} == {"m.a:F", "m.b:T"}

    def test_reset_reaches_children(self):
        cov = ConditionCoverage()
        top = Module("top", cov)
        child = top.child(Module("top.child", cov))
        grand = child.child(Counter("top.child.ctr", cov))
        grand.count = 5
        top.reset()
        assert grand.count == 0
