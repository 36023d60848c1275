"""Bit-field helpers shared by the encoder, decoder and golden model.

All helpers operate on plain Python ints.  Instruction words are 32-bit
unsigned; architectural values are 64-bit unsigned with explicit sign helpers.
"""

MASK32 = 0xFFFF_FFFF
MASK64 = 0xFFFF_FFFF_FFFF_FFFF


def bits(value: int, hi: int, lo: int) -> int:
    """Extract the inclusive bit slice ``value[hi:lo]`` as an unsigned int."""
    if hi < lo:
        raise ValueError(f"invalid slice [{hi}:{lo}]")
    return (value >> lo) & ((1 << (hi - lo + 1)) - 1)


def bit(value: int, pos: int) -> int:
    """Extract a single bit."""
    return (value >> pos) & 1


def sign_extend(value: int, width: int) -> int:
    """Interpret ``value``'s low ``width`` bits as two's complement."""
    value &= (1 << width) - 1
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def to_unsigned(value: int, width: int = 64) -> int:
    """Wrap a (possibly negative) int into ``width`` unsigned bits."""
    return value & ((1 << width) - 1)


def fits_signed(value: int, width: int) -> bool:
    """True when ``value`` is representable as a ``width``-bit signed int."""
    return -(1 << (width - 1)) <= value < (1 << (width - 1))


def fits_unsigned(value: int, width: int) -> bool:
    """True when ``value`` is representable as a ``width``-bit unsigned int."""
    return 0 <= value < (1 << width)


# ---------------------------------------------------------------------------
# Immediate packing/unpacking per instruction format.
#
# The *_imm_encode functions take the semantic immediate and return the bits
# to OR into the instruction word; the *_imm_decode functions invert them and
# sign-extend.  Formats follow the unprivileged spec chapter 2.
# ---------------------------------------------------------------------------


def i_imm_encode(imm: int) -> int:
    if not fits_signed(imm, 12):
        raise ValueError(f"I-immediate {imm} out of range")
    return (imm & 0xFFF) << 20


def i_imm_decode(word: int) -> int:
    return sign_extend(bits(word, 31, 20), 12)


def s_imm_encode(imm: int) -> int:
    if not fits_signed(imm, 12):
        raise ValueError(f"S-immediate {imm} out of range")
    imm &= 0xFFF
    return (bits(imm, 11, 5) << 25) | (bits(imm, 4, 0) << 7)


def s_imm_decode(word: int) -> int:
    raw = (bits(word, 31, 25) << 5) | bits(word, 11, 7)
    return sign_extend(raw, 12)


def b_imm_encode(imm: int) -> int:
    if imm % 2:
        raise ValueError(f"B-immediate {imm} must be even")
    if not fits_signed(imm, 13):
        raise ValueError(f"B-immediate {imm} out of range")
    imm &= 0x1FFF
    return (
        (bit(imm, 12) << 31)
        | (bits(imm, 10, 5) << 25)
        | (bits(imm, 4, 1) << 8)
        | (bit(imm, 11) << 7)
    )


def b_imm_decode(word: int) -> int:
    raw = (
        (bit(word, 31) << 12)
        | (bit(word, 7) << 11)
        | (bits(word, 30, 25) << 5)
        | (bits(word, 11, 8) << 1)
    )
    return sign_extend(raw, 13)


def u_imm_encode(imm: int) -> int:
    """``imm`` is the 20-bit *upper* immediate, as written in assembly.

    ``lui rd, 0x80080`` loads ``0x80080000`` — the encoder takes ``0x80080``
    (GNU as convention); the decoder returns the shifted, sign-extended
    semantic value.
    """
    if not fits_signed(imm, 20) and not fits_unsigned(imm, 20):
        raise ValueError(f"U-immediate {imm:#x} does not fit in 20 bits")
    return (imm & 0xF_FFFF) << 12


def u_imm_decode(word: int) -> int:
    return sign_extend(word & 0xFFFF_F000, 32)


def j_imm_encode(imm: int) -> int:
    if imm % 2:
        raise ValueError(f"J-immediate {imm} must be even")
    if not fits_signed(imm, 21):
        raise ValueError(f"J-immediate {imm} out of range")
    imm &= 0x1F_FFFF
    return (
        (bit(imm, 20) << 31)
        | (bits(imm, 10, 1) << 21)
        | (bit(imm, 11) << 20)
        | (bits(imm, 19, 12) << 12)
    )


def j_imm_decode(word: int) -> int:
    raw = (
        (bit(word, 31) << 20)
        | (bits(word, 19, 12) << 12)
        | (bit(word, 20) << 11)
        | (bits(word, 30, 21) << 1)
    )
    return sign_extend(raw, 21)
