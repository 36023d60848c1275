"""Set-associative cache model: hits, eviction, staleness (Bug1 substrate)."""

import pytest

from repro.golden.memory import SparseMemory
from repro.isa.spec import DRAM_BASE
from repro.rtl.coverage import ConditionCoverage
from repro.soc.caches import SetAssocCache


def make_cache(**kwargs):
    cov = ConditionCoverage()
    cache = SetAssocCache("c", cov, **kwargs)
    cov.freeze()
    return cache, cov


def backing(fill=0):
    mem = SparseMemory()
    if fill:
        for i in range(0, 4096, 8):
            mem.write_bytes(DRAM_BASE + i, (fill + i).to_bytes(8, "little"))
    return mem


class TestLookupRefill:
    def test_miss_then_hit(self):
        cache, _ = make_cache()
        mem = backing()
        assert cache.lookup(DRAM_BASE)[0] is None
        cache.refill(DRAM_BASE, mem.read_bytes)
        assert cache.lookup(DRAM_BASE)[0] is not None

    def test_same_line_different_offset_hits(self):
        cache, _ = make_cache(line_bytes=32)
        cache.refill(DRAM_BASE, backing().read_bytes)
        assert cache.lookup(DRAM_BASE + 28)[0] is not None

    def test_adjacent_line_misses(self):
        cache, _ = make_cache(line_bytes=32)
        cache.refill(DRAM_BASE, backing().read_bytes)
        assert cache.lookup(DRAM_BASE + 32)[0] is None

    def test_refill_copies_backing_data(self):
        cache, _ = make_cache()
        mem = backing()
        mem.write_bytes(DRAM_BASE + 8, (0xABCD).to_bytes(8, "little"))
        cache.refill(DRAM_BASE, mem.read_bytes)
        assert cache.read_cached(DRAM_BASE + 8, 8) == (0xABCD).to_bytes(8, "little")

    def test_two_ways_no_conflict(self):
        cache, _ = make_cache(ways=2, sets=8, line_bytes=32)
        mem = backing()
        set_span = 8 * 32
        cache.refill(DRAM_BASE, mem.read_bytes)
        cache.refill(DRAM_BASE + set_span, mem.read_bytes)  # same set, way 1
        assert cache.lookup(DRAM_BASE)[0] is not None
        assert cache.lookup(DRAM_BASE + set_span)[0] is not None

    def test_third_line_evicts_lru(self):
        cache, _ = make_cache(ways=2, sets=8, line_bytes=32)
        mem = backing()
        set_span = 8 * 32
        cache.refill(DRAM_BASE, mem.read_bytes)
        cache.refill(DRAM_BASE + set_span, mem.read_bytes)
        cache.lookup(DRAM_BASE)  # touch way 0 so way 1 becomes LRU
        cache.refill(DRAM_BASE + 2 * set_span, mem.read_bytes)
        assert cache.lookup(DRAM_BASE)[0] is not None          # kept (MRU)
        assert cache.lookup(DRAM_BASE + set_span)[0] is None   # evicted
        assert cache.last_evicted == (DRAM_BASE + set_span) // 32


class TestStalenessAndCoherence:
    """The substrate of Bug1 (CWE-1202): cached lines do not observe stores
    to the backing memory unless explicitly updated or invalidated."""

    def test_cached_line_goes_stale(self):
        cache, _ = make_cache()
        mem = backing()
        cache.refill(DRAM_BASE, mem.read_bytes)
        mem.write_bytes(DRAM_BASE, (0x1111).to_bytes(8, "little"))
        stale = cache.read_cached(DRAM_BASE, 8)
        assert stale == (0).to_bytes(8, "little")  # old contents

    def test_update_stored_line_keeps_coherence(self):
        cache, _ = make_cache()
        mem = backing()
        cache.refill(DRAM_BASE, mem.read_bytes)
        cache.update_stored_line(DRAM_BASE, (0x2222).to_bytes(8, "little"))
        assert cache.read_cached(DRAM_BASE, 8) == (0x2222).to_bytes(8, "little")

    def test_update_marks_dirty(self):
        cache, _ = make_cache()
        cache.refill(DRAM_BASE, backing().read_bytes)
        assert not cache.is_dirty(DRAM_BASE)
        cache.update_stored_line(DRAM_BASE, b"\xff")
        assert cache.is_dirty(DRAM_BASE)

    def test_invalidate_all_flushes(self):
        cache, _ = make_cache()
        cache.refill(DRAM_BASE, backing().read_bytes)
        cache.invalidate_all()
        assert cache.lookup(DRAM_BASE)[0] is None

    def test_reset_clears_state(self):
        cache, _ = make_cache()
        cache.refill(DRAM_BASE, backing().read_bytes)
        cache.reset()
        assert not cache.contains(DRAM_BASE)
        assert cache.last_evicted is None


class TestCoverageConditions:
    """Each call returns its condition group's arms; the caller records."""

    def test_hit_condition_both_arms(self):
        cache, cov = make_cache()
        mem = backing()
        cov.record_mask(cache.lookup(DRAM_BASE)[1])       # miss -> hit:F
        cov.record_mask(cache.refill(DRAM_BASE, mem.read_bytes)[1])
        cov.record_mask(cache.lookup(DRAM_BASE)[1])       # hit:T
        names = {cov.arm_name(a) for a in cov.run_hits}
        assert "c.hit:F" in names
        assert "c.hit:T" in names

    def test_evict_dirty_condition(self):
        cache, cov = make_cache(ways=1, sets=1, line_bytes=32)
        mem = backing()
        cache.refill(DRAM_BASE, mem.read_bytes)
        cov.record_mask(cache.update_stored_line(DRAM_BASE, b"\x01"))
        # Refilling another line evicts the dirty one.
        cov.record_mask(cache.refill(DRAM_BASE + 32, mem.read_bytes)[1])
        names = {cov.arm_name(a) for a in cov.run_hits}
        assert "c.evict_dirty:T" in names
        assert "c.mark_dirty:T" in names

    def test_calls_record_nothing_themselves(self):
        cache, cov = make_cache()
        cache.lookup(DRAM_BASE)
        cache.refill(DRAM_BASE, backing().read_bytes)
        cache.update_stored_line(DRAM_BASE, b"\x01")
        assert cov.run_bits() == 0


class TestGeometry:
    """Index and offset are bit fields, so a geometry that is not a power
    of two would serve another line's bytes; it is refused instead."""

    @pytest.mark.parametrize("geometry", [
        {"sets": 6}, {"sets": 0}, {"line_bytes": 24}, {"line_bytes": 4},
    ])
    def test_bad_geometry_rejected(self, geometry):
        with pytest.raises(ValueError, match="power of two"):
            make_cache(**geometry)

    def test_core_with_bad_icache_rejected(self):
        from repro.soc.rocket import RocketCore, RocketParams

        with pytest.raises(ValueError, match="icache"):
            RocketCore(RocketParams(icache_sets=6))

    def test_power_of_two_geometries_accepted(self):
        for sets, line_bytes in ((1, 8), (2, 16), (16, 64)):
            cache, _ = make_cache(sets=sets, line_bytes=line_bytes)
            mem = backing(fill=1)
            for addr in (DRAM_BASE, DRAM_BASE + line_bytes * sets):
                cache.refill(addr, mem.read_bytes)
                assert cache.read_cached(addr, 4) == mem.read_bytes(addr, 4)
