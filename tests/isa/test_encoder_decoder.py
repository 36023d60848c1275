"""Encoder/decoder: golden encodings, full roundtrips, illegal words."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.decoder import decode
from repro.isa.encoder import EncodingError, encode
from repro.isa.instructions import (
    FMT_AMO,
    FMT_B,
    FMT_CSR,
    FMT_CSR_IMM,
    FMT_I,
    FMT_I_SHIFT32,
    FMT_I_SHIFT64,
    FMT_J,
    FMT_LR,
    FMT_S,
    FMT_U,
    INSTRUCTIONS,
)

# Hand-verified encodings (cross-checked against the RISC-V spec examples
# and GNU binutils output).
GOLDEN_ENCODINGS = [
    ("addi", dict(rd=1, rs1=2, imm=3), 0x00310093),
    ("add", dict(rd=1, rs1=2, rs2=3), 0x003100B3),
    ("sub", dict(rd=10, rs1=11, rs2=12), 0x40C58533),
    ("lui", dict(rd=10, imm=0x12345), 0x12345537),
    ("auipc", dict(rd=5, imm=1), 0x00001297),
    ("jal", dict(rd=1, imm=8), 0x008000EF),
    ("jalr", dict(rd=0, rs1=1, imm=0), 0x00008067),
    ("beq", dict(rs1=1, rs2=2, imm=-4), 0xFE208EE3),
    ("ld", dict(rd=5, rs1=2, imm=8), 0x00813283),
    ("sd", dict(rs2=5, rs1=2, imm=-16), 0xFE513823),
    ("slli", dict(rd=3, rs1=3, shamt=63), 0x03F19193),
    ("srai", dict(rd=3, rs1=3, shamt=1), 0x4011D193),
    ("mul", dict(rd=12, rs1=10, rs2=11), 0x02B50633),
    ("div", dict(rd=13, rs1=10, rs2=11), 0x02B546B3),
    ("csrrw", dict(rd=0, csr=0x300, rs1=1), 0x30009073),
    ("csrrs", dict(rd=6, csr=0xC00, rs1=0), 0xC0002373),
    ("fence", dict(), 0x0000000F),
    ("fence.i", dict(), 0x0000100F),
    ("ecall", dict(), 0x00000073),
    ("ebreak", dict(), 0x00100073),
    ("mret", dict(), 0x30200073),
    ("wfi", dict(), 0x10500073),
    ("lr.d", dict(rd=6, rs1=8), 0x1004332F),
    ("sc.d", dict(rd=7, rs1=8, rs2=6), 0x186433AF),
    ("amoswap.w", dict(rd=5, rs1=6, rs2=7, aq=1, rl=1), 0x0E7322AF),
]


class TestGoldenEncodings:
    @pytest.mark.parametrize("mnemonic,operands,expected", GOLDEN_ENCODINGS)
    def test_encode_matches_reference(self, mnemonic, operands, expected):
        assert encode(mnemonic, **operands) == expected

    @pytest.mark.parametrize("mnemonic,operands,expected", GOLDEN_ENCODINGS)
    def test_decode_recovers_mnemonic(self, mnemonic, operands, expected):
        instr = decode(expected)
        assert instr is not None
        assert instr.mnemonic == mnemonic


def _operand_strategy(spec):
    """Hypothesis strategy for a random valid operand set of one spec."""
    reg = st.integers(min_value=0, max_value=31)
    parts = {}
    for name in spec.operands:
        if name in ("rd", "rs1", "rs2"):
            parts[name] = reg
        elif name == "imm":
            if spec.fmt in (FMT_I, FMT_S):
                parts[name] = st.integers(min_value=-2048, max_value=2047)
            elif spec.fmt == FMT_B:
                parts[name] = st.integers(-2048, 2047).map(lambda v: 2 * v)
            elif spec.fmt == FMT_U:
                parts[name] = st.integers(-(1 << 19), (1 << 19) - 1)
            elif spec.fmt == FMT_J:
                parts[name] = st.integers(-(1 << 19), (1 << 19) - 1).map(
                    lambda v: 2 * v
                )
        elif name == "shamt":
            limit = 63 if spec.fmt == FMT_I_SHIFT64 else 31
            parts[name] = st.integers(min_value=0, max_value=limit)
        elif name == "zimm":
            parts[name] = st.integers(min_value=0, max_value=31)
        elif name == "csr":
            parts[name] = st.integers(min_value=0, max_value=0xFFF)
    if spec.fmt in (FMT_AMO, FMT_LR):
        parts["aq"] = st.integers(0, 1)
        parts["rl"] = st.integers(0, 1)
    return st.fixed_dictionaries(parts)


@pytest.mark.parametrize("mnemonic", sorted(INSTRUCTIONS))
def test_roundtrip_every_instruction(mnemonic):
    """encode -> decode recovers every operand, for every instruction."""
    spec = INSTRUCTIONS[mnemonic]

    @settings(max_examples=20, deadline=None)
    @given(_operand_strategy(spec))
    def check(operands):
        word = encode(mnemonic, **operands)
        instr = decode(word)
        assert instr is not None, f"{mnemonic} did not decode: {word:#x}"
        assert instr.mnemonic == mnemonic
        for name, value in operands.items():
            if name == "imm" and spec.fmt == FMT_U:
                # Encoder takes the 20-bit upper immediate; decoder returns
                # the shifted semantic value.
                from repro.isa.fields import sign_extend

                assert instr.imm == sign_extend(value << 12, 32)
            else:
                assert getattr(instr, name) == value, (name, value)

    check()


class TestIllegalWords:
    @pytest.mark.parametrize("word", [
        0x0000_0000,            # all zeros: defined illegal by the ISA
        0xFFFF_FFFF,            # all ones
        0x0000_00FF,            # unknown opcode
        0x30200077,             # mret with wrong low bits
        0x00004073,             # SYSTEM with reserved funct3=100
    ])
    def test_not_legal(self, word):
        assert decode(word) is None

    def test_reserved_amo_funct5(self):
        # amoswap.d with funct5 corrupted into a reserved pattern.
        word = encode("amoswap.d", rd=1, rs1=2, rs2=3)
        corrupted = (word & ~(0x1F << 27)) | (0b00101 << 27)
        assert decode(corrupted) is None

    def test_lr_with_nonzero_rs2_is_illegal(self):
        word = encode("lr.d", rd=1, rs1=2) | (3 << 20)
        assert decode(word) is None


class TestEncoderErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(EncodingError):
            encode("bogus")

    def test_register_out_of_range(self):
        with pytest.raises(EncodingError):
            encode("add", rd=32, rs1=0, rs2=0)

    def test_imm_out_of_range(self):
        with pytest.raises(EncodingError):
            encode("addi", rd=1, rs1=1, imm=4096)

    def test_shamt_out_of_range(self):
        with pytest.raises(EncodingError):
            encode("slliw", rd=1, rs1=1, shamt=32)

    def test_branch_imm_odd(self):
        with pytest.raises(EncodingError):
            encode("beq", rs1=0, rs2=0, imm=3)


class TestDecodeMemoisation:
    """Regression pin for the decode LRU: fuzzing campaigns re-decode the
    same few dozen words every test body, so repeats must be cache hits."""

    def test_decode_is_memoised(self):
        assert decode(0x00310093) is decode(0x00310093)

    def test_repeat_decode_hits_cache(self):
        decode.cache_clear()
        body = [encode("addi", rd=1, rs1=1, imm=i) for i in range(8)]
        for word in body:
            decode(word)
        misses_after_first_pass = decode.cache_info().misses
        hits_before = decode.cache_info().hits
        # A fuzzing campaign's steady state: same words, every run.
        for _ in range(5):
            for word in body:
                decode(word)
        info = decode.cache_info()
        assert info.misses == misses_after_first_pass  # no new misses
        assert info.hits >= hits_before + 5 * len(body)

    def test_cache_keyed_on_word(self):
        decode.cache_clear()
        a, b = encode("add", rd=1, rs1=2, rs2=3), encode("sub", rd=1, rs1=2, rs2=3)
        assert decode(a).mnemonic == "add"
        assert decode(b).mnemonic == "sub"
        assert decode.cache_info().misses == 2

    def test_illegal_words_also_cached(self):
        decode.cache_clear()
        assert decode(0xFFFFFFFF) is None
        assert decode(0xFFFFFFFF) is None
        assert decode.cache_info().hits == 1
