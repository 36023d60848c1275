"""Packed bitsets over a fixed arm universe.

Condition coverage is a *fixed universe* of cover points known at
elaboration (``ConditionCoverage.freeze``), which is exactly the shape that
wants a packed bitmap instead of hash sets: membership is one bit, union is
a bitwise OR, counting is a popcount, and the whole set ships across a
process pool as ``total_arms / 8`` bytes instead of one pickled object per
arm index.

:class:`Bitset` is the immutable value type the coverage data path carries
(per-test reports, cumulative totals, feedback masks).  It is backed by a
single Python ``int`` — an arbitrary-precision bitmap whose bitwise ops,
popcount (``int.bit_count``) and (de)serialisation all run limb-at-a-time in
C.  For a few hundred arms this beats both ``numpy`` scalar indexing (per-op
dispatch overhead) and ``bytearray`` read-modify-write on the record path,
while still exposing the packed bytes (:meth:`to_bytes`).

The API is deliberately set-compatible — ``in``, ``len``, iteration,
equality against ``set``/``frozenset``, ``&``/``|``/``-`` (including
reflected forms so ``some_set - bitset`` works) — so existing consumers and
tests read unchanged.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(indices: Iterable[int]) -> int:
    """Pack an iterable of bit indices into an int bitmap."""
    bits = 0
    for index in indices:
        bits |= 1 << index
    return bits


class Bitset:
    """An immutable packed set of non-negative integers (see module doc).

    ``nbits`` records the universe size (for ``__invert__`` and byte-width
    decisions); equality and hashing depend only on the *members*, so bitsets
    of different declared widths with the same bits compare equal — matching
    ``set`` semantics.
    """

    __slots__ = ("_bits", "_nbits")

    def __init__(self, bits: int = 0, nbits: int = 0) -> None:
        if bits < 0:
            raise ValueError("Bitset bits must be a non-negative bitmap")
        self._bits = bits
        self._nbits = max(nbits, bits.bit_length())

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_iterable(cls, indices: Iterable[int], nbits: int = 0) -> "Bitset":
        """Build from arm indices (a set, list, generator, ...)."""
        if isinstance(indices, Bitset):
            return cls(indices._bits, max(nbits, indices._nbits))
        return cls(mask_of(indices), nbits)

    @classmethod
    def from_bytes(cls, data: bytes, nbits: int = 0) -> "Bitset":
        """Build from a little-endian packed byte string."""
        return cls(int.from_bytes(data, "little"), nbits)

    @classmethod
    def from_words(cls, words: Iterable[int], nbits: int = 0) -> "Bitset":
        """Build from 64-bit words in ascending order, so vectorised
        producers (the batched engines' per-lane bitmap rows) collapse to a
        report without a python-level bit loop."""
        bits = 0
        shift = 0
        for word in words:
            bits |= int(word) << shift
            shift += 64
        return cls(bits, nbits)

    # -- packed views ----------------------------------------------------------

    def to_int(self) -> int:
        """The raw int bitmap (bit ``i`` set <=> ``i in self``)."""
        return self._bits

    def to_bytes(self, length: int | None = None) -> bytes:
        """Little-endian packed bytes, zero-padded to ``length`` if given."""
        if length is None:
            length = (self._nbits + 7) // 8
        return self._bits.to_bytes(length, "little")

    @property
    def nbits(self) -> int:
        return self._nbits

    # -- set protocol ----------------------------------------------------------

    def __contains__(self, index: int) -> bool:
        return index >= 0 and (self._bits >> index) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        bits = self._bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __bool__(self) -> bool:
        return self._bits != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Bitset):
            return self._bits == other._bits
        if isinstance(other, (set, frozenset)):
            return self._bits == mask_of(other)
        return NotImplemented

    def __hash__(self) -> int:
        # Must match frozenset's hash for equal members (eq/hash contract:
        # a Bitset compares equal to the frozenset of its members, so mixed
        # containers need them in the same bucket).  Hashing is rare on the
        # coverage path; the O(n) member walk only happens when asked for.
        return hash(frozenset(self))

    def isdisjoint(self, other) -> bool:
        return self._bits & _as_mask(other) == 0

    # -- bitwise algebra (results keep the wider universe) ----------------------

    def __and__(self, other) -> "Bitset":
        return Bitset(self._bits & _as_mask(other), self._nbits)

    __rand__ = __and__

    def __or__(self, other) -> "Bitset":
        return Bitset(self._bits | _as_mask(other), self._nbits)

    __ror__ = __or__

    def __sub__(self, other) -> "Bitset":
        return Bitset(self._bits & ~_as_mask(other), self._nbits)

    def __rsub__(self, other) -> "Bitset":
        return Bitset(_as_mask(other) & ~self._bits, self._nbits)

    def __xor__(self, other) -> "Bitset":
        return Bitset(self._bits ^ _as_mask(other), self._nbits)

    __rxor__ = __xor__

    def __invert__(self) -> "Bitset":
        """Complement within the declared ``nbits`` universe."""
        return Bitset(~self._bits & ((1 << self._nbits) - 1), self._nbits)

    # -- pickling (the IPC payload of sharded execution) -------------------------

    def __reduce__(self):
        # A (bytes, nbits) pair: ~nbits/8 bytes on the wire, versus one
        # pickled int per member for the frozenset it replaces.
        return (Bitset.from_bytes, (self.to_bytes(), self._nbits))

    def __repr__(self) -> str:
        return f"Bitset({len(self)} of {self._nbits} bits)"


def _as_mask(other) -> int:
    """Coerce a Bitset / set / iterable-of-ints operand to an int bitmap."""
    if isinstance(other, Bitset):
        return other._bits
    if isinstance(other, int):
        raise TypeError(
            "raw ints are ambiguous here (bitmap or index?); wrap the "
            "operand in a Bitset or a set"
        )
    return mask_of(other)
