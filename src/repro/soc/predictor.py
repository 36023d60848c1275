"""Branch predictor model: BTB + 2-bit counters.

Mispredict recovery is one of the pipeline's big latency/coverage levers;
hitting the predictor's conditions requires *repeated* control flow over the
same PCs (loops) — exactly the entangled behaviour the paper argues random
instruction streams lack.
"""

from __future__ import annotations

from repro.rtl.coverage import ConditionCoverage
from repro.rtl.module import Module


class BranchPredictor(Module):
    """Direct-mapped BTB with per-entry 2-bit saturating counters."""

    def __init__(self, path: str, cov: ConditionCoverage, entries: int = 16) -> None:
        super().__init__(path, cov)
        self.entries = entries
        self.btb: list[dict | None] = [None] * entries
        self.conditions(
            "btb_hit",
            "btb_alias",       # hit on a different branch PC (tag mismatch)
            "pred_taken",
            "mispredict",
            "ctr_saturated_taken",
            "ctr_saturated_not_taken",
            "update_new_entry",
        )

        # predict() and update() each fold their condition group into one
        # record_mask: predict's outcomes are prebuilt masks, and update's
        # conditions index their (false_bit, true_bit) pairs in self.arms.
        arm = self.arm_bit
        no_hit = arm("btb_hit", False) | arm("pred_taken", False)
        self._empty_mask = no_hit | arm("btb_alias", False)
        self._alias_mask = no_hit | arm("btb_alias", True)
        hit = arm("btb_hit", True) | arm("btb_alias", False)
        self._hit_masks = (hit | arm("pred_taken", False),
                           hit | arm("pred_taken", True))
        self._mispredict = self.arms["mispredict"]
        self._new_entry_mask = arm("update_new_entry", True)
        self._update_pairs = (arm("update_new_entry", False),
                              self.arms["ctr_saturated_taken"],
                              self.arms["ctr_saturated_not_taken"])

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self.entries

    def predict(self, pc: int) -> bool:
        """Predict taken/not-taken for the branch at ``pc``."""
        entry = self.btb[self._index(pc)]
        taken = False
        if entry is None:
            mask = self._empty_mask
        elif entry["pc"] != pc:
            mask = self._alias_mask
        else:
            taken = entry["ctr"] >= 2
            mask = self._hit_masks[taken]
        self.cov.record_mask(mask)
        return taken

    def update(self, pc: int, taken: bool, predicted: bool) -> None:
        """Train the predictor with the resolved outcome."""
        mask = self._mispredict[taken != predicted]
        index = self._index(pc)
        entry = self.btb[index]
        if entry is None or entry["pc"] != pc:
            self.cov.record_mask(mask | self._new_entry_mask)
            self.btb[index] = {"pc": pc, "ctr": 2 if taken else 1}
            return
        if taken:
            entry["ctr"] = ctr = min(3, entry["ctr"] + 1)
        else:
            entry["ctr"] = ctr = max(0, entry["ctr"] - 1)
        old_entry, sat_taken, sat_not_taken = self._update_pairs
        self.cov.record_mask(mask | old_entry | sat_taken[ctr == 3]
                             | sat_not_taken[ctr == 0])

    def reset(self) -> None:
        super().reset()
        self.btb = [None] * self.entries
