"""The Mismatch Detector (paper §III-C, §IV-A).

Compares architectural-state changes between the DUT trace and the golden
trace of the same test input, producing :class:`Mismatch` records.  Two
mechanisms reproduce the paper's workflow:

- **signature-based unique filtering** — multiple instances of the same bug
  produce many raw mismatches but one *unique* mismatch (paper: 5,866 raw →
  >100 unique, automated);
- **user filters** — predicates that suppress known-benign divergences
  ("architectural state values that … filter out most of the false positive
  mismatches"), e.g. reads of the cycle counter, which legitimately differs
  between an RTL simulation and an untimed ISS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.golden.trace import CommitTrace, TraceEntry
from repro.isa.decoder import decode
from repro.isa.spec import CSR_CYCLE, CSR_INSTRET, CSR_TIME


@dataclass(frozen=True)
class Mismatch:
    """One detected divergence between DUT and golden execution."""

    kind: str
    index: int
    pc: int
    detail: str
    #: Dedup key: mismatches with equal signatures are "the same bug".
    signature: tuple

    def __str__(self) -> str:
        return f"[{self.kind}] @pc={self.pc:#x} idx={self.index}: {self.detail}"


FilterFn = Callable[[Mismatch, TraceEntry | None, TraceEntry | None], bool]


def counter_csr_filter(mismatch: Mismatch, dut: TraceEntry | None,
                       gold: TraceEntry | None) -> bool:
    """Suppress rd-value mismatches caused by cycle/time CSR reads.

    An RTL simulation's cycle counter legitimately differs from an untimed
    ISS — the canonical false positive the paper's filters remove.
    """
    if mismatch.kind != "rd_value" or dut is None:
        return False
    instr = decode(dut.instr)
    if instr is None or not instr.spec.is_csr:
        return False
    return instr.csr in (CSR_CYCLE, CSR_TIME, CSR_INSTRET)


def _mnemonic(entry: TraceEntry | None) -> str:
    if entry is None:
        return "<none>"
    instr = decode(entry.instr)
    return instr.mnemonic if instr is not None else "<invalid>"


def compare_traces(dut: CommitTrace, gold: CommitTrace) -> list[Mismatch]:
    """Diff two commit traces entry-by-entry.

    Comparison stops at the first PC divergence or instruction-word
    divergence (everything after is cascade noise from the same root cause);
    field-level mismatches on aligned entries are all reported.
    """
    mismatches: list[Mismatch] = []
    for i, (d, g) in enumerate(zip(dut.entries, gold.entries)):
        # Equal entries (tuple equality, in C) cannot mismatch, and they are
        # the overwhelmingly common case: skip them before any field check.
        # Mnemonics are decoded lazily, only when a mismatch fires.
        if d == g:
            continue
        if d.pc != g.pc:
            mismatches.append(Mismatch(
                "pc_divergence", i, d.pc,
                f"dut pc {d.pc:#x} vs golden {g.pc:#x}",
                ("pc_divergence", _mnemonic(g)),
            ))
            return mismatches
        if d.instr != g.instr:
            # Same PC, different instruction word: the DUT fetched stale
            # bytes — the direct evidence of Bug1 (CWE-1202).
            mismatches.append(Mismatch(
                "instr_word", i, d.pc,
                f"dut fetched {d.instr:#010x}, golden {g.instr:#010x}",
                ("instr_word", _mnemonic(g)),
            ))
            return mismatches
        if d.trapped or g.trapped:
            if d.trap_cause != g.trap_cause:
                mismatches.append(Mismatch(
                    "trap_cause", i, d.pc,
                    f"dut cause {d.trap_cause} vs golden {g.trap_cause}",
                    ("trap_cause", _mnemonic(d), d.trap_cause, g.trap_cause),
                ))
            continue
        if d.rd != g.rd:
            if d.rd == 0:
                kind = "rd_spurious_x0"
                detail = f"dut trace writes x0 <- {d.rd_value:#x}"
            elif d.rd is None:
                kind = "rd_missing"
                detail = f"golden writes x{g.rd} <- {g.rd_value:#x}, dut trace omits it"
            else:
                kind = "rd_target"
                detail = f"dut rd x{d.rd} vs golden x{g.rd}"
            mismatches.append(Mismatch(
                kind, i, d.pc, detail, (kind, _mnemonic(d))))
        elif d.rd is not None and d.rd_value != g.rd_value:
            mismatches.append(Mismatch(
                "rd_value", i, d.pc,
                f"x{d.rd}: dut {d.rd_value:#x} vs golden {g.rd_value:#x}",
                ("rd_value", _mnemonic(d)),
            ))
        if (d.mem is None) != (g.mem is None) or (
            d.mem is not None and d.mem != g.mem
        ):
            mismatches.append(Mismatch(
                "mem", i, d.pc,
                f"dut {d.mem} vs golden {g.mem}",
                ("mem", _mnemonic(d)),
            ))
        if d.csr_write != g.csr_write:
            mismatches.append(Mismatch(
                "csr", i, d.pc,
                f"dut {d.csr_write} vs golden {g.csr_write}",
                ("csr", _mnemonic(d)),
            ))
    if len(dut.entries) != len(gold.entries):
        mismatches.append(Mismatch(
            "trace_length", min(len(dut.entries), len(gold.entries)), 0,
            f"dut {len(dut.entries)} entries vs golden {len(gold.entries)}",
            ("trace_length",),
        ))
    elif dut.stop_reason != gold.stop_reason:
        mismatches.append(Mismatch(
            "stop_reason", len(dut.entries), 0,
            f"dut {dut.stop_reason} vs golden {gold.stop_reason}",
            ("stop_reason", dut.stop_reason, gold.stop_reason),
        ))
    return mismatches


@dataclass
class MismatchDetector:
    """Campaign-level mismatch accounting with filters and unique tracking."""

    filters: list[FilterFn] = field(default_factory=list)
    raw_count: int = 0
    filtered_count: int = 0
    unique: dict[tuple, Mismatch] = field(default_factory=dict)
    #: Raw (unfiltered) mismatch count per kind.
    by_kind: dict[str, int] = field(default_factory=dict)

    def observe(self, dut: CommitTrace, gold: CommitTrace) -> list[Mismatch]:
        """Diff one test's traces; returns the surviving (unfiltered) list."""
        surviving = []
        for mismatch in compare_traces(dut, gold):
            self.raw_count += 1
            self.by_kind[mismatch.kind] = self.by_kind.get(mismatch.kind, 0) + 1
            index = mismatch.index
            dut_entry = dut.entries[index] if index < len(dut.entries) else None
            gold_entry = gold.entries[index] if index < len(gold.entries) else None
            if any(f(mismatch, dut_entry, gold_entry) for f in self.filters):
                self.filtered_count += 1
                continue
            surviving.append(mismatch)
            if mismatch.signature not in self.unique:
                self.unique[mismatch.signature] = mismatch
        return surviving

    @property
    def unique_count(self) -> int:
        return len(self.unique)

    def summary(self) -> str:
        lines = [
            f"raw mismatches:      {self.raw_count}",
            f"filtered out:        {self.filtered_count}",
            f"unique mismatches:   {self.unique_count}",
            "by kind: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.by_kind.items())
            ),
        ]
        return "\n".join(lines)
