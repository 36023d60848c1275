"""The synchronous trap raised by instruction execution."""

from __future__ import annotations

from repro.isa.spec import EXC_NAMES


class Trap(Exception):
    """A synchronous exception raised during instruction execution.

    ``cause`` is the mcause code, ``tval`` the value loaded into mtval
    (faulting address / offending instruction bits, per spec).
    """

    def __init__(self, cause: int, tval: int = 0) -> None:
        super().__init__(EXC_NAMES.get(cause, f"cause {cause}"))
        self.cause = cause
        self.tval = tval

    def __repr__(self) -> str:
        return f"Trap(cause={self.cause}, tval={self.tval:#x})"

