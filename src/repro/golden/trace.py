"""Commit-log trace format shared by the golden model and the SoC models.

The Mismatch Detector (paper §IV-A) compares *architectural state changes*
between DUT and golden model.  A :class:`TraceEntry` records exactly those
per-retired-instruction changes: the register write-back, the memory
operation, and any trap taken.  Both simulators emit this format so the diff
is purely structural.

:class:`TraceEntry` and :class:`MemOp` are :class:`typing.NamedTuple`
records: immutable, compared and hashed field by field, with the
``Name(field=value, ...)`` repr.  Every interpreter step builds one, and a
tuple is built in one step where a frozen dataclass sets each field
through ``object.__setattr__``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class MemOp(NamedTuple):
    """One data-memory access performed by a retired instruction."""

    addr: int
    size: int  # bytes: 1, 2, 4 or 8
    is_store: bool
    data: int  # value stored, or value loaded (post-extension)

    def __str__(self) -> str:
        kind = "ST" if self.is_store else "LD"
        return f"{kind}[{self.addr:#x},{self.size}]={self.data:#x}"


class TraceEntry(NamedTuple):
    """Architectural effects of one retired (or trapping) instruction."""

    pc: int
    instr: int
    priv: int
    #: Destination register number for a register write-back, else None.
    rd: int | None = None
    #: Value written to ``rd`` (64-bit unsigned), when ``rd`` is not None.
    rd_value: int = 0
    mem: MemOp | None = None
    #: Synchronous trap cause taken *by* this instruction, else None.
    trap_cause: int | None = None
    trap_tval: int = 0
    #: CSR writes performed by the instruction: (addr, new value).
    csr_write: tuple[int, int] | None = None

    @property
    def trapped(self) -> bool:
        return self.trap_cause is not None

    def summary(self) -> str:
        """Compact single-line rendering used in mismatch reports."""
        parts = [f"pc={self.pc:#x}", f"instr={self.instr:#010x}", f"prv={self.priv}"]
        if self.rd is not None:
            parts.append(f"x{self.rd}<-{self.rd_value:#x}")
        if self.mem is not None:
            parts.append(str(self.mem))
        if self.csr_write is not None:
            parts.append(f"csr[{self.csr_write[0]:#x}]<-{self.csr_write[1]:#x}")
        if self.trapped:
            parts.append(f"trap={self.trap_cause} tval={self.trap_tval:#x}")
        return " ".join(parts)


@dataclass
class CommitTrace:
    """Ordered commit log of one program execution."""

    entries: list[TraceEntry] = field(default_factory=list)
    #: Why execution stopped: "wfi", "max_steps" or "max_traps"; "running"
    #: until the run ends.
    stop_reason: str = "running"
    #: Total instructions retired (== len(entries) unless truncated).
    instret: int = 0
    #: DUT cycle count (0 for the golden model, which is untimed).
    cycles: int = 0

    def append(self, entry: TraceEntry) -> None:
        self.entries.append(entry)
        self.instret += 1

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, idx):
        return self.entries[idx]

    def render(self, limit: int | None = None) -> str:
        """Multi-line human-readable log (``limit`` caps the line count)."""
        rows = [e.summary() for e in self.entries[:limit]]
        if limit is not None and len(self.entries) > limit:
            rows.append(f"... ({len(self.entries) - limit} more)")
        rows.append(f"-- stop: {self.stop_reason}, instret={self.instret}")
        return "\n".join(rows)
