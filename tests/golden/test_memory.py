"""Sparse memory: mapping, bulk/checked access, fault behaviour."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.golden.exceptions import Trap
from repro.golden.memory import SparseMemory
from repro.isa.spec import (
    DRAM_BASE,
    DRAM_SIZE,
    EXC_INSTR_ACCESS_FAULT,
    EXC_LOAD_ACCESS_FAULT,
    EXC_STORE_ACCESS_FAULT,
)


class TestMapping:
    def test_dram_mapped(self):
        mem = SparseMemory()
        assert mem.is_mapped(DRAM_BASE)
        assert mem.is_mapped(DRAM_BASE + DRAM_SIZE - 8, 8)

    def test_outside_unmapped(self):
        mem = SparseMemory()
        assert not mem.is_mapped(0)
        assert not mem.is_mapped(DRAM_BASE - 1)
        assert not mem.is_mapped(DRAM_BASE + DRAM_SIZE)

    def test_straddling_end_unmapped(self):
        mem = SparseMemory()
        assert not mem.is_mapped(DRAM_BASE + DRAM_SIZE - 4, 8)

    def test_custom_regions(self):
        mem = SparseMemory(regions=((0x1000, 0x100), (0x4000, 0x10)))
        assert mem.is_mapped(0x1000)
        assert mem.is_mapped(0x400F)
        assert not mem.is_mapped(0x2000)


class TestAccess:
    def test_load_store_roundtrip(self):
        mem = SparseMemory()
        mem.store(DRAM_BASE, 0x1122334455667788, 8)
        assert mem.load(DRAM_BASE, 8) == 0x1122334455667788

    def test_little_endian(self):
        mem = SparseMemory()
        mem.store(DRAM_BASE, 0x0102030405060708, 8)
        assert mem.load(DRAM_BASE, 1) == 0x08
        assert mem.load(DRAM_BASE + 7, 1) == 0x01

    def test_store_truncates_to_width(self):
        mem = SparseMemory()
        mem.store(DRAM_BASE, 0x1FF, 1)
        assert mem.load(DRAM_BASE, 1) == 0xFF

    def test_uninitialised_reads_zero(self):
        assert SparseMemory().load(DRAM_BASE + 0x500, 8) == 0

    def test_cross_page_write(self):
        mem = SparseMemory()
        addr = DRAM_BASE + 0x1000 - 4  # straddles a 4 KiB page boundary
        mem.store(addr, 0xAABBCCDDEEFF0011, 8)
        assert mem.load(addr, 8) == 0xAABBCCDDEEFF0011

    @given(st.integers(min_value=0, max_value=DRAM_SIZE - 8),
           st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_roundtrip_property(self, offset, value):
        mem = SparseMemory()
        mem.store(DRAM_BASE + offset, value, 8)
        assert mem.load(DRAM_BASE + offset, 8) == value


class TestFaults:
    def test_load_fault(self):
        with pytest.raises(Trap) as excinfo:
            SparseMemory().load(0x100, 8)
        assert excinfo.value.cause == EXC_LOAD_ACCESS_FAULT
        assert excinfo.value.tval == 0x100

    def test_store_fault(self):
        with pytest.raises(Trap) as excinfo:
            SparseMemory().store(0x100, 1, 8)
        assert excinfo.value.cause == EXC_STORE_ACCESS_FAULT

    def test_fetch_fault(self):
        with pytest.raises(Trap) as excinfo:
            SparseMemory().fetch(0x100)
        assert excinfo.value.cause == EXC_INSTR_ACCESS_FAULT


class TestProgramLoading:
    def test_load_program_words(self):
        mem = SparseMemory()
        mem.load_program([0x11223344, 0xAABBCCDD], DRAM_BASE)
        assert mem.fetch(DRAM_BASE) == 0x11223344
        assert mem.fetch(DRAM_BASE + 4) == 0xAABBCCDD


class TestFetch:
    """Aligned DRAM fetches read the page directly; every other fetch
    takes the checked path, and both give the bytes a load would."""

    def test_direct_and_checked_fetches_agree(self):
        mem = SparseMemory()
        mem.write_bytes(DRAM_BASE + 0xFFC, bytes(range(1, 9)))  # spans pages
        for addr in (DRAM_BASE + 0xFFC, DRAM_BASE + 0xFFE, DRAM_BASE + 0x1000,
                     DRAM_BASE + 0x2000):
            assert mem.fetch(addr) == mem.load(addr, 4)

    def test_last_dram_word_is_fetchable(self):
        mem = SparseMemory()
        last = DRAM_BASE + DRAM_SIZE - 4
        mem.write_bytes(last, (0x13).to_bytes(4, "little"))
        assert mem.fetch(last) == 0x13
        with pytest.raises(Trap):
            mem.fetch(last + 2)

    def test_other_memory_maps_stay_checked(self):
        mem = SparseMemory(regions=((0x1000, 0x100),))
        mem.write_bytes(0x1000, (0x6F).to_bytes(4, "little"))
        assert mem.fetch(0x1000) == 0x6F
        with pytest.raises(Trap):
            mem.fetch(DRAM_BASE)

    def test_subclass_with_its_own_bytes_stays_checked(self):
        class Shadow(SparseMemory):
            def read_bytes(self, addr, size):
                return b"\x13\x00\x00\x00"[:size]

        assert Shadow().fetch(DRAM_BASE) == 0x13
