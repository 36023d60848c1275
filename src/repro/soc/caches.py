"""Set-associative cache models shared by the SoC designs.

Caches are the main source of *sequence-dependent* coverage: hits need
address reuse, dirty evictions need write streaks over conflicting lines, and
the I-cache's stale-line behaviour implements the paper's Bug1 (CWE-1202:
missing FENCE.I cache-coherency management).
"""

from __future__ import annotations

from operator import attrgetter

from repro.rtl.coverage import ConditionCoverage
from repro.rtl.module import Module

#: Refill victim order: invalid ways first, then least recently used.
_victim_order = attrgetter("valid", "lru")


def _power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


class CacheLine:
    """One line of a set-associative cache."""

    __slots__ = ("valid", "dirty", "tag", "data", "lru")

    def __init__(self) -> None:
        self.valid = False
        self.dirty = False
        self.tag = 0
        self.data = b""
        self.lru = 0


class SetAssocCache(Module):
    """Generic N-way write-through cache with dirty-bit tracking.

    The backing store is always updated on stores (so architectural memory
    state is exact); dirty bits and eviction kinds are still modelled because
    they drive latency and coverage conditions, as in the write-back original.

    Parameters
    ----------
    path, cov:
        Module identity and coverage database.
    ways, sets, line_bytes:
        Geometry; ``sets`` must be a power of two, and ``line_bytes`` a
        power of two of at least 8 (the widest access).  Any other value
        raises ``ValueError``: the index and offset are bit fields.
    hit_latency, miss_penalty:
        Cycle costs reported to the core's timing model.
    """

    def __init__(
        self,
        path: str,
        cov: ConditionCoverage,
        ways: int = 2,
        sets: int = 8,
        line_bytes: int = 32,
        hit_latency: int = 1,
        miss_penalty: int = 20,
        writable: bool = True,
    ) -> None:
        if not (_power_of_two(sets) and _power_of_two(line_bytes)
                and line_bytes >= 8):
            raise ValueError(
                f"{path}: sets ({sets}) must be a power of two and "
                f"line_bytes ({line_bytes}) a power of two of at least 8")
        super().__init__(path, cov)
        self.ways = ways
        self.sets = sets
        self.line_bytes = line_bytes
        self.hit_latency = hit_latency
        self.miss_penalty = miss_penalty
        self.writable = writable
        self._offset_bits = line_bytes.bit_length() - 1
        self._index_mask = sets - 1
        self._tag_shift = self._index_mask.bit_length()
        self.lines = [[CacheLine() for _ in range(ways)] for _ in range(sets)]
        self._lru_clock = 0
        #: Line-address key (addr // line_bytes) of the last evicted line.
        self.last_evicted: int | None = None
        self.conditions(
            "hit",
            "hit_way0",
            "hit_way1",
            "refill",
            "evict_valid",
            "set_conflict",  # refill into a set with all ways valid
        )
        if writable:
            # Dirty-path conditions only exist in caches with a store port
            # (the I$ is read-only: no such logic, no such cover points).
            self.conditions("evict_dirty", "mark_dirty")

        # Each probe's condition group folds into one record_mask: the
        # outcome masks are prebuilt per hit way (per-way conditions exist
        # for the first two ways only) and for a miss, and the refill and
        # dirty-marking conditions index their pairs in self.arms.
        arm = self.arm_bit
        hit = arm("hit", True) | arm("refill", False)
        self._hit_masks = tuple(
            hit | (arm("hit_way0", way == 0) | arm("hit_way1", way == 1)
                   if way < 2 else 0)
            for way in range(ways)
        )
        self._miss_mask = arm("hit", False) | arm("refill", True)

    # -- geometry helpers ------------------------------------------------------

    def _split(self, addr: int) -> tuple[int, int, int]:
        line_addr = addr >> self._offset_bits
        return (line_addr & self._index_mask, line_addr >> self._tag_shift,
                addr & (self.line_bytes - 1))

    def _line_base(self, index: int, tag: int) -> int:
        return ((tag << self._tag_shift) | index) << self._offset_bits

    # -- lookup / fill -----------------------------------------------------------

    def lookup(self, addr: int) -> CacheLine | None:
        """Probe for a hit, recording the hit/way conditions."""
        line_addr = addr >> self._offset_bits
        tag = line_addr >> self._tag_shift
        for way, line in enumerate(self.lines[line_addr & self._index_mask]):
            if line.valid and line.tag == tag:
                self.cov.record_mask(self._hit_masks[way])
                self._lru_clock += 1
                line.lru = self._lru_clock
                return line
        self.cov.record_mask(self._miss_mask)  # a miss starts the refill FSM
        return None

    def refill(self, addr: int, fetch_line) -> CacheLine:
        """Install the line containing ``addr``; ``fetch_line(base, n)`` reads
        backing memory.  Records refill/eviction conditions and remembers the
        evicted line's address key in :attr:`last_evicted`."""
        index, tag, _ = self._split(addr)
        ways = self.lines[index]
        victim = min(ways, key=_victim_order)
        arms = self.arms
        mask = (arms["set_conflict"][all(line.valid for line in ways)]
                | arms["evict_valid"][victim.valid])
        if self.writable:
            mask |= arms["evict_dirty"][victim.valid and victim.dirty]
        self.cov.record_mask(mask)
        if victim.valid:
            self.last_evicted = self._line_base(index, victim.tag) // self.line_bytes
        else:
            self.last_evicted = None
        base = addr & ~(self.line_bytes - 1)
        victim.valid = True
        victim.dirty = False
        victim.tag = tag
        victim.data = bytes(fetch_line(base, self.line_bytes))
        self._lru_clock += 1
        victim.lru = self._lru_clock
        return victim

    def update_stored_line(self, addr: int, data: bytes) -> None:
        """Write ``data`` into a cached copy if present (keeps D$ coherent
        with the write-through backing store)."""
        if not self.writable:
            raise RuntimeError(f"{self.path} has no store port")
        line = self._peek(addr)
        if line is not None:
            _, _, offset = self._split(addr)
            buf = bytearray(line.data)
            buf[offset : offset + len(data)] = data
            line.data = bytes(buf)
            # The condition is the clean->dirty *transition* (re-dirtying an
            # already-dirty line evaluates it false).
            self.cov.record_mask(self.arms["mark_dirty"][not line.dirty])
            line.dirty = True

    def _peek(self, addr: int) -> CacheLine | None:
        """Hit check without recording conditions or touching LRU."""
        line_addr = addr >> self._offset_bits
        tag = line_addr >> self._tag_shift
        for line in self.lines[line_addr & self._index_mask]:
            if line.valid and line.tag == tag:
                return line
        return None

    def contains(self, addr: int) -> bool:
        return self._peek(addr) is not None

    def read_cached(self, addr: int, size: int) -> bytes | None:
        """Return cached bytes (possibly stale!) or None when absent."""
        line = self._peek(addr)
        if line is None:
            return None
        _, _, offset = self._split(addr)
        return line.data[offset : offset + size]

    def invalidate_all(self) -> None:
        """FENCE.I / reset: drop every line."""
        for ways in self.lines:
            for line in ways:
                line.valid = False
                line.dirty = False

    def is_dirty(self, addr: int) -> bool:
        line = self._peek(addr)
        return line is not None and line.dirty

    def reset(self) -> None:
        super().reset()
        self.invalidate_all()
        # Also clear per-line LRU stamps: invalidate_all (the FENCE.I path)
        # deliberately keeps them, but a *reset* must leave no trace of the
        # previous program — way allocation would otherwise depend on the
        # last test's access pattern, breaking run-to-run determinism (and
        # with it serial/sharded executor parity).
        for ways in self.lines:
            for line in ways:
                line.lru = 0
        self._lru_clock = 0
        self.last_evicted = None
