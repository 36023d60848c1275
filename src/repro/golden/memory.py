"""Byte-addressed sparse memory with access-fault checking.

Memory is organised as 4 KiB pages allocated on demand inside explicitly
mapped regions.  Accesses outside every mapped region raise access-fault
traps — the mechanism that, combined with misaligned addresses, exercises
the trap-priority corner of the paper's Finding1.
"""

from __future__ import annotations

from repro.golden.exceptions import Trap
from repro.isa.spec import (
    DRAM_BASE,
    DRAM_SIZE,
    EXC_INSTR_ACCESS_FAULT,
    EXC_LOAD_ACCESS_FAULT,
    EXC_STORE_ACCESS_FAULT,
)

_PAGE_SHIFT = 12
_PAGE_SIZE = 1 << _PAGE_SHIFT
_PAGE_MASK = _PAGE_SIZE - 1

_DEFAULT_REGIONS = ((DRAM_BASE, DRAM_SIZE),)
#: Highest word-aligned fetch address inside the default DRAM window.
_LAST_WORD = DRAM_BASE + DRAM_SIZE - 4


class SparseMemory:
    """Sparse physical memory.

    Parameters
    ----------
    regions:
        Iterable of ``(base, size)`` mapped windows.  Defaults to the single
        DRAM window used by the SoC harness.
    """

    def __init__(self, regions: tuple[tuple[int, int], ...] = _DEFAULT_REGIONS):
        self.regions = tuple(regions)
        self._pages: dict[int, bytearray] = {}
        #: :meth:`fetch` reads aligned DRAM words straight from their page
        #: when DRAM is the only window and the pages hold the bytes.  A
        #: subclass that keeps its bytes elsewhere (overriding
        #: :meth:`read_bytes`) and any other memory map take the checked path.
        self._direct_fetch = (self.regions == _DEFAULT_REGIONS
                              and type(self).read_bytes is SparseMemory.read_bytes)

    # -- mapping ------------------------------------------------------------

    def is_mapped(self, addr: int, size: int = 1) -> bool:
        """True when the whole ``[addr, addr+size)`` range is mapped."""
        for base, length in self.regions:
            if base <= addr and addr + size <= base + length:
                return True
        return False

    def _page(self, addr: int) -> bytearray:
        key = addr >> _PAGE_SHIFT
        page = self._pages.get(key)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self._pages[key] = page
        return page

    # -- raw access (no fault checks; used by loaders and the harness) ------

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Bulk write without fault checking (program loading)."""
        offset = 0
        while offset < len(data):
            page = self._page(addr + offset)
            start = (addr + offset) & _PAGE_MASK
            chunk = min(_PAGE_SIZE - start, len(data) - offset)
            page[start : start + chunk] = data[offset : offset + chunk]
            offset += chunk

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Bulk read without fault checking."""
        out = bytearray()
        offset = 0
        while offset < size:
            page = self._page(addr + offset)
            start = (addr + offset) & _PAGE_MASK
            chunk = min(_PAGE_SIZE - start, size - offset)
            out += page[start : start + chunk]
            offset += chunk
        return bytes(out)

    # -- checked access (architectural) --------------------------------------

    def load(self, addr: int, size: int) -> int:
        """Load ``size`` bytes little-endian; raises load access fault."""
        if not self.is_mapped(addr, size):
            raise Trap(EXC_LOAD_ACCESS_FAULT, tval=addr)
        return int.from_bytes(self.read_bytes(addr, size), "little")

    def store(self, addr: int, value: int, size: int) -> None:
        """Store ``size`` bytes little-endian; raises store access fault."""
        if not self.is_mapped(addr, size):
            raise Trap(EXC_STORE_ACCESS_FAULT, tval=addr)
        self.write_bytes(addr, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))

    def fetch(self, addr: int) -> int:
        """Fetch a 32-bit instruction word; raises instruction access fault."""
        if self._direct_fetch and not addr & 3 and DRAM_BASE <= addr <= _LAST_WORD:
            page = self._pages.get(addr >> _PAGE_SHIFT)
            if page is None:
                return 0  # never written: reads as zero
            offset = addr & _PAGE_MASK
            return int.from_bytes(page[offset:offset + 4], "little")
        if not self.is_mapped(addr, 4):
            raise Trap(EXC_INSTR_ACCESS_FAULT, tval=addr)
        return int.from_bytes(self.read_bytes(addr, 4), "little")

    def load_program(self, words: list[int], base: int) -> None:
        """Write a program image (little-endian 32-bit words) at ``base``."""
        image = b"".join((w & 0xFFFFFFFF).to_bytes(4, "little") for w in words)
        self.write_bytes(base, image)
