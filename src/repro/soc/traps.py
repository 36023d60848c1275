"""The trap-entry coverage group RocketCore and BoomCore share.

Taking a trap is architectural and has one home,
:func:`repro.golden.simulator.take_trap`.  What a core's CSR unit covers
when it takes one is this group: ``csr.trap_taken`` and one
``csr.cause_is_<c>`` comparator per cause in :data:`CAUSE_CONDITIONS`.
Both cores declare :data:`TRAP_CONDITIONS` at a fixed place in their
condition list (arm indices follow declaration order) and OR the group's
mask for the cause into the trapping cycle's record.
"""

from __future__ import annotations

#: mcause codes that have a dedicated comparator condition in the CSR unit.
CAUSE_CONDITIONS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 11)

#: The group's conditions, in declaration order.
TRAP_CONDITIONS = ("csr.trap_taken",
                   *(f"csr.cause_is_{c}" for c in CAUSE_CONDITIONS))


class TrapMasks(dict):
    """cause -> the trap-entry group's arm mask on one core, built from the
    core's prebound arm pairs on the first trap with that cause."""

    def __init__(self, arms: dict[str, tuple[int, int]]) -> None:
        super().__init__()
        self.arms = arms

    def __missing__(self, cause: int) -> int:
        mask = self.arms["csr.trap_taken"][True]
        for c in CAUSE_CONDITIONS:
            mask |= self.arms[f"csr.cause_is_{c}"][cause == c]
        self[cause] = mask
        return mask
