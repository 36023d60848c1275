"""Packed Bitset semantics: the set-compatible bitmap under all coverage."""

import pickle

import pytest

from repro.rtl.bitset import Bitset, mask_of


class TestConstruction:
    def test_from_iterable(self):
        bs = Bitset.from_iterable({3, 0, 17}, nbits=32)
        assert set(bs) == {0, 3, 17}
        assert bs.nbits == 32

    def test_from_iterable_widens_to_max_index(self):
        bs = Bitset.from_iterable({100}, nbits=10)
        assert bs.nbits == 101
        assert 100 in bs

    def test_from_bytes_roundtrip(self):
        bs = Bitset.from_iterable({0, 9, 63, 64, 130}, nbits=192)
        again = Bitset.from_bytes(bs.to_bytes(), nbits=192)
        assert again == bs

    def test_from_bitset_is_identity(self):
        bs = Bitset.from_iterable({1, 2})
        assert Bitset.from_iterable(bs) == bs

    def test_from_words_roundtrip(self):
        bs = Bitset.from_iterable({0, 9, 63, 64, 130}, nbits=192)
        words = [(1 << 63) | (1 << 9) | 1, 1, 1 << 2]
        again = Bitset.from_words(words, nbits=192)
        assert again == bs
        assert again.nbits == 192

    def test_from_words_accepts_numpy_uint64(self):
        np = pytest.importorskip("numpy")
        row = np.array([1 << 63, 0, 3], dtype=np.uint64)
        assert Bitset.from_words(row) == {63, 128, 129}

    def test_from_words_empty(self):
        assert Bitset.from_words([]) == set()

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            Bitset(-1)

    def test_mask_of(self):
        assert mask_of([0, 2]) == 0b101
        assert mask_of([]) == 0


class TestSetProtocol:
    def test_membership(self):
        bs = Bitset.from_iterable({5, 70})
        assert 5 in bs and 70 in bs
        assert 6 not in bs and -1 not in bs

    def test_iteration_ascending(self):
        assert list(Bitset.from_iterable({64, 3, 0, 127})) == [0, 3, 64, 127]

    def test_len_and_bool(self):
        assert len(Bitset.from_iterable({1, 2, 3})) == 3
        assert not Bitset()
        assert Bitset.from_iterable({0})

    def test_equality_with_sets_both_directions(self):
        bs = Bitset.from_iterable({1, 9})
        assert bs == {1, 9}
        assert {1, 9} == bs
        assert bs == frozenset({1, 9})
        assert bs != {1}

    def test_equality_ignores_declared_width(self):
        assert Bitset.from_iterable({1}, nbits=8) == Bitset.from_iterable({1}, nbits=64)

    def test_hashable(self):
        assert len({Bitset.from_iterable({1}), Bitset.from_iterable({1})}) == 1

    def test_hash_consistent_with_frozenset(self):
        """eq/hash contract: a Bitset equals the frozenset of its members,
        so mixed hash containers must dedup them."""
        bs = Bitset.from_iterable({1, 9})
        assert hash(bs) == hash(frozenset({1, 9}))
        assert len({bs, frozenset({1, 9})}) == 1
        assert {bs: "x"}[frozenset({1, 9})] == "x"

    def test_isdisjoint(self):
        bs = Bitset.from_iterable({1, 2})
        assert bs.isdisjoint({3, 4})
        assert not bs.isdisjoint(Bitset.from_iterable({2}))


class TestAlgebra:
    def test_and_or_sub_xor(self):
        a = Bitset.from_iterable({0, 1, 2}, nbits=8)
        b = Bitset.from_iterable({2, 3}, nbits=8)
        assert a & b == {2}
        assert a | b == {0, 1, 2, 3}
        assert a - b == {0, 1}
        assert a ^ b == {0, 1, 3}

    def test_ops_accept_plain_sets(self):
        a = Bitset.from_iterable({0, 1, 2})
        assert a & {1, 5} == {1}
        assert a - {0} == {1, 2}

    def test_reflected_ops_from_sets(self):
        a = Bitset.from_iterable({0, 1})
        assert {0, 1, 2} - a == {2}
        assert {1, 5} & a == {1}
        assert {5} | a == {0, 1, 5}

    def test_raw_int_operand_rejected(self):
        with pytest.raises(TypeError):
            Bitset.from_iterable({1}) & 3

    def test_invert_bounded_by_universe(self):
        a = Bitset.from_iterable({0, 2}, nbits=4)
        assert ~a == {1, 3}

    def test_result_keeps_wider_universe(self):
        a = Bitset.from_iterable({0}, nbits=64)
        assert (a | {1}).nbits == 64


class TestPackedViews:
    def test_to_bytes_width(self):
        bs = Bitset.from_iterable({0, 8}, nbits=100)
        assert len(bs.to_bytes()) == 13  # ceil(100 / 8)
        assert len(bs.to_bytes(16)) == 16

    def test_to_int(self):
        assert Bitset.from_iterable({0, 2}).to_int() == 0b101


class TestPickle:
    def test_roundtrip(self):
        bs = Bitset.from_iterable(set(range(0, 300, 3)), nbits=300)
        again = pickle.loads(pickle.dumps(bs))
        assert again == bs
        assert again.nbits == bs.nbits

    def test_payload_is_packed_not_per_member(self):
        """The IPC payload motivates the whole engine: ~nbits/8 bytes,
        versus one pickled int per member for the frozenset it replaced.
        Measured on a chunk (the sharded executor's wire shape) so the
        per-object class-reference framing is memoized away."""
        members = set(range(0, 400, 2))
        chunk = [Bitset.from_iterable(members, nbits=400) for _ in range(16)]
        legacy_chunk = [frozenset(members) for _ in range(16)]
        packed = pickle.dumps(chunk)
        legacy = pickle.dumps(legacy_chunk)
        assert len(packed) < len(legacy) / 5
        assert len(packed) / 16 < 150  # ~50 bitmap bytes + framing each
