"""Bit-field helpers: slicing, sign extension, immediate pack/unpack."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import fields


class TestBits:
    def test_bits_extracts_slice(self):
        assert fields.bits(0b1101_0110, 7, 4) == 0b1101

    def test_bits_full_width(self):
        assert fields.bits(0xFFFF_FFFF, 31, 0) == 0xFFFF_FFFF

    def test_bits_single(self):
        assert fields.bits(0b100, 2, 2) == 1

    def test_bits_invalid_slice_raises(self):
        with pytest.raises(ValueError):
            fields.bits(0, 3, 5)

    def test_bit(self):
        assert fields.bit(0b1000, 3) == 1
        assert fields.bit(0b1000, 2) == 0


class TestSignExtension:
    def test_positive_unchanged(self):
        assert fields.sign_extend(0x7F, 8) == 127

    def test_negative_wraps(self):
        assert fields.sign_extend(0xFF, 8) == -1
        assert fields.sign_extend(0x80, 8) == -128

    def test_to_unsigned_roundtrip(self):
        assert fields.to_unsigned(-1) == fields.MASK64
        assert fields.to_unsigned(-1, 32) == 0xFFFF_FFFF

    @given(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
    def test_roundtrip_64(self, value):
        assert fields.sign_extend(fields.to_unsigned(value), 64) == value

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_unsigned_roundtrip_64(self, value):
        assert fields.to_unsigned(fields.sign_extend(value, 64)) == value

    def test_fits_signed(self):
        assert fields.fits_signed(-2048, 12)
        assert fields.fits_signed(2047, 12)
        assert not fields.fits_signed(2048, 12)
        assert not fields.fits_signed(-2049, 12)

    def test_fits_unsigned(self):
        assert fields.fits_unsigned(0, 5)
        assert fields.fits_unsigned(31, 5)
        assert not fields.fits_unsigned(32, 5)
        assert not fields.fits_unsigned(-1, 5)


class TestImmediateRoundtrips:
    @given(st.integers(min_value=-2048, max_value=2047))
    def test_i_imm(self, imm):
        assert fields.i_imm_decode(fields.i_imm_encode(imm)) == imm

    @given(st.integers(min_value=-2048, max_value=2047))
    def test_s_imm(self, imm):
        assert fields.s_imm_decode(fields.s_imm_encode(imm)) == imm

    @given(st.integers(min_value=-2048, max_value=2047).map(lambda v: 2 * v))
    def test_b_imm(self, imm):
        assert fields.b_imm_decode(fields.b_imm_encode(imm)) == imm

    @given(st.integers(min_value=-(1 << 19), max_value=(1 << 19) - 1))
    def test_u_imm(self, upper):
        word = fields.u_imm_encode(upper)
        assert fields.u_imm_decode(word) == fields.sign_extend(upper << 12, 32)

    @given(st.integers(min_value=-(1 << 19), max_value=(1 << 19) - 1).map(lambda v: 2 * v))
    def test_j_imm(self, imm):
        assert fields.j_imm_decode(fields.j_imm_encode(imm)) == imm

    def test_i_imm_out_of_range(self):
        with pytest.raises(ValueError):
            fields.i_imm_encode(2048)

    def test_b_imm_odd_rejected(self):
        with pytest.raises(ValueError):
            fields.b_imm_encode(3)

    def test_j_imm_odd_rejected(self):
        with pytest.raises(ValueError):
            fields.j_imm_encode(1)

    def test_s_imm_fields_disjoint_from_regs(self):
        # S-format immediate must not touch rs1/rs2 fields (bits 24:15).
        word = fields.s_imm_encode(-1)
        assert word & (0x3FF << 15) == 0
