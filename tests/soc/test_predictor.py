"""Branch predictor: BTB allocation, counter training, mispredicts."""

from repro.rtl.coverage import ConditionCoverage
from repro.soc.predictor import BranchPredictor


def make_bpu(entries=16):
    cov = ConditionCoverage()
    bpu = BranchPredictor("bpu", cov, entries=entries)
    cov.freeze()
    return bpu, cov


class TestPrediction:
    def test_cold_predicts_not_taken(self):
        bpu, _ = make_bpu()
        assert bpu.predict(0x8000_0000)[0] is False

    def test_trains_toward_taken(self):
        bpu, _ = make_bpu()
        pc = 0x8000_0010
        bpu.update(pc, taken=True, predicted=False)   # allocate, ctr=2
        assert bpu.predict(pc)[0] is True

    def test_counter_hysteresis(self):
        bpu, _ = make_bpu()
        pc = 0x8000_0010
        bpu.update(pc, taken=True, predicted=False)   # ctr=2
        bpu.update(pc, taken=True, predicted=True)    # ctr=3 (saturated)
        bpu.update(pc, taken=False, predicted=True)   # ctr=2: still predicts T
        assert bpu.predict(pc)[0] is True
        bpu.update(pc, taken=False, predicted=True)   # ctr=1
        assert bpu.predict(pc)[0] is False

    def test_aliasing_reallocates(self):
        bpu, cov = make_bpu(entries=4)
        a, b = 0x8000_0000, 0x8000_0000 + 4 * 4  # same index, different pc
        bpu.update(a, taken=True, predicted=False)
        cov.record_mask(bpu.predict(b)[1])
        names = {cov.arm_name(x) for x in cov.run_hits}
        assert "bpu.btb_alias:T" in names
        bpu.update(b, taken=True, predicted=False)   # replaces entry
        assert bpu.predict(b)[0] is True

    def test_mispredict_condition(self):
        bpu, cov = make_bpu()
        cov.record_mask(bpu.update(0x8000_0000, taken=True, predicted=False))
        names = {cov.arm_name(x) for x in cov.run_hits}
        assert "bpu.mispredict:T" in names

    def test_calls_record_nothing_themselves(self):
        """Both calls return their arms; the core records them."""
        bpu, cov = make_bpu()
        bpu.update(0x8000_0000, taken=True, predicted=False)
        bpu.predict(0x8000_0000)
        assert cov.run_bits() == 0

    def test_reset_clears_btb(self):
        bpu, _ = make_bpu()
        pc = 0x8000_0010
        bpu.update(pc, taken=True, predicted=False)
        bpu.reset()
        assert bpu.predict(pc)[0] is False
