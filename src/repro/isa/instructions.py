"""The RV64IMA_Zicsr instruction database.

Each instruction is an :class:`InstrSpec` carrying its format, fixed encoding
bits and semantic classification flags.  The module computes a
``(match, mask)`` pair per instruction — the same representation used by
riscv-opcodes — which drives both the encoder and the decoder and guarantees
they can never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Instruction formats.  The format determines operand fields and immediate
# packing; see :mod:`repro.isa.fields`.
FMT_R = "R"
FMT_I = "I"
FMT_I_SHIFT64 = "I_SHIFT64"  # RV64 shifts: 6-bit shamt, funct6
FMT_I_SHIFT32 = "I_SHIFT32"  # *W shifts: 5-bit shamt, funct7
FMT_S = "S"
FMT_B = "B"
FMT_U = "U"
FMT_J = "J"
FMT_CSR = "CSR"
FMT_CSR_IMM = "CSR_IMM"
FMT_AMO = "AMO"
FMT_LR = "LR"
FMT_FENCE = "FENCE"
FMT_SYS = "SYS"  # fully-fixed 32-bit words (ecall/ebreak/mret/wfi)

#: Operand names exposed by each format, in assembler order.
FORMAT_OPERANDS = {
    FMT_R: ("rd", "rs1", "rs2"),
    FMT_I: ("rd", "rs1", "imm"),
    FMT_I_SHIFT64: ("rd", "rs1", "shamt"),
    FMT_I_SHIFT32: ("rd", "rs1", "shamt"),
    FMT_S: ("rs2", "rs1", "imm"),
    FMT_B: ("rs1", "rs2", "imm"),
    FMT_U: ("rd", "imm"),
    FMT_J: ("rd", "imm"),
    FMT_CSR: ("rd", "csr", "rs1"),
    FMT_CSR_IMM: ("rd", "csr", "zimm"),
    FMT_AMO: ("rd", "rs2", "rs1"),
    FMT_LR: ("rd", "rs1"),
    FMT_FENCE: (),
    FMT_SYS: (),
}

# Major opcodes (bits [6:0]).
OP_LUI = 0b0110111
OP_AUIPC = 0b0010111
OP_JAL = 0b1101111
OP_JALR = 0b1100111
OP_BRANCH = 0b1100011
OP_LOAD = 0b0000011
OP_STORE = 0b0100011
OP_IMM = 0b0010011
OP_IMM32 = 0b0011011
OP_REG = 0b0110011
OP_REG32 = 0b0111011
OP_MISC_MEM = 0b0001111
OP_SYSTEM = 0b1110011
OP_AMO = 0b0101111


@dataclass(frozen=True)
class InstrSpec:
    """Static description of one instruction.

    Attributes
    ----------
    mnemonic:
        Canonical lower-case name (``"amoswap.d"``).
    fmt:
        One of the ``FMT_*`` format constants.
    opcode, funct3, funct7, funct5, funct6:
        Fixed encoding fields; ``None`` where the format does not use them.
    match, mask:
        ``word & mask == match`` identifies this instruction.
    is_load / is_store / is_branch / is_jump / is_amo / is_muldiv / is_csr /
    is_system / is_fence:
        Semantic classification used by the SoC models, the mutation engine
        and the dataset generator.
    """

    mnemonic: str
    fmt: str
    opcode: int
    funct3: int | None = None
    funct7: int | None = None
    funct5: int | None = None
    funct6: int | None = None
    fixed_word: int | None = None
    is_load: bool = False
    is_store: bool = False
    is_branch: bool = False
    is_jump: bool = False
    is_amo: bool = False
    is_muldiv: bool = False
    is_csr: bool = False
    is_system: bool = False
    is_fence: bool = False
    match: int = field(default=0, compare=False)
    mask: int = field(default=0, compare=False)

    @property
    def operands(self) -> tuple[str, ...]:
        """Operand field names in assembler order."""
        return FORMAT_OPERANDS[self.fmt]

    @property
    def writes_rd(self) -> bool:
        """True when the instruction has an architectural destination register."""
        return "rd" in self.operands

    @property
    def reads_rs1(self) -> bool:
        return "rs1" in self.operands

    @property
    def reads_rs2(self) -> bool:
        return "rs2" in self.operands

    @property
    def is_memory(self) -> bool:
        """Loads, stores and atomics — everything that touches the D-side."""
        return self.is_load or self.is_store or self.is_amo


def _match_mask(spec: InstrSpec) -> tuple[int, int]:
    """Compute the (match, mask) identification pair for ``spec``."""
    if spec.fixed_word is not None:
        return spec.fixed_word, 0xFFFF_FFFF
    match = spec.opcode
    mask = 0x7F
    if spec.funct3 is not None:
        match |= spec.funct3 << 12
        mask |= 0x7 << 12
    if spec.fmt == FMT_I_SHIFT64:
        match |= spec.funct6 << 26
        mask |= 0x3F << 26
    elif spec.funct7 is not None:
        match |= spec.funct7 << 25
        mask |= 0x7F << 25
    if spec.fmt == FMT_AMO or spec.fmt == FMT_LR:
        match |= spec.funct5 << 27
        mask |= 0x1F << 27
        if spec.fmt == FMT_LR:  # rs2 must be zero for LR
            mask |= 0x1F << 20
    return match, mask


def _make(spec: InstrSpec) -> InstrSpec:
    match, mask = _match_mask(spec)
    object.__setattr__(spec, "match", match)
    object.__setattr__(spec, "mask", mask)
    return spec


def _r(mnemonic, funct3, funct7, opcode=OP_REG, **flags) -> InstrSpec:
    return _make(InstrSpec(mnemonic, FMT_R, opcode, funct3=funct3, funct7=funct7, **flags))


def _i(mnemonic, funct3, opcode=OP_IMM, **flags) -> InstrSpec:
    return _make(InstrSpec(mnemonic, FMT_I, opcode, funct3=funct3, **flags))


def _amo(mnemonic, funct5, funct3, fmt=FMT_AMO) -> InstrSpec:
    return _make(
        InstrSpec(mnemonic, fmt, OP_AMO, funct3=funct3, funct5=funct5, is_amo=True)
    )


_SPECS = [
    # --- RV32I / RV64I base ------------------------------------------------
    _make(InstrSpec("lui", FMT_U, OP_LUI)),
    _make(InstrSpec("auipc", FMT_U, OP_AUIPC)),
    _make(InstrSpec("jal", FMT_J, OP_JAL, is_jump=True)),
    _i("jalr", 0b000, OP_JALR, is_jump=True),
    _make(InstrSpec("beq", FMT_B, OP_BRANCH, funct3=0b000, is_branch=True)),
    _make(InstrSpec("bne", FMT_B, OP_BRANCH, funct3=0b001, is_branch=True)),
    _make(InstrSpec("blt", FMT_B, OP_BRANCH, funct3=0b100, is_branch=True)),
    _make(InstrSpec("bge", FMT_B, OP_BRANCH, funct3=0b101, is_branch=True)),
    _make(InstrSpec("bltu", FMT_B, OP_BRANCH, funct3=0b110, is_branch=True)),
    _make(InstrSpec("bgeu", FMT_B, OP_BRANCH, funct3=0b111, is_branch=True)),
    _i("lb", 0b000, OP_LOAD, is_load=True),
    _i("lh", 0b001, OP_LOAD, is_load=True),
    _i("lw", 0b010, OP_LOAD, is_load=True),
    _i("ld", 0b011, OP_LOAD, is_load=True),
    _i("lbu", 0b100, OP_LOAD, is_load=True),
    _i("lhu", 0b101, OP_LOAD, is_load=True),
    _i("lwu", 0b110, OP_LOAD, is_load=True),
    _make(InstrSpec("sb", FMT_S, OP_STORE, funct3=0b000, is_store=True)),
    _make(InstrSpec("sh", FMT_S, OP_STORE, funct3=0b001, is_store=True)),
    _make(InstrSpec("sw", FMT_S, OP_STORE, funct3=0b010, is_store=True)),
    _make(InstrSpec("sd", FMT_S, OP_STORE, funct3=0b011, is_store=True)),
    _i("addi", 0b000),
    _i("slti", 0b010),
    _i("sltiu", 0b011),
    _i("xori", 0b100),
    _i("ori", 0b110),
    _i("andi", 0b111),
    _make(InstrSpec("slli", FMT_I_SHIFT64, OP_IMM, funct3=0b001, funct6=0b000000)),
    _make(InstrSpec("srli", FMT_I_SHIFT64, OP_IMM, funct3=0b101, funct6=0b000000)),
    _make(InstrSpec("srai", FMT_I_SHIFT64, OP_IMM, funct3=0b101, funct6=0b010000)),
    _r("add", 0b000, 0b0000000),
    _r("sub", 0b000, 0b0100000),
    _r("sll", 0b001, 0b0000000),
    _r("slt", 0b010, 0b0000000),
    _r("sltu", 0b011, 0b0000000),
    _r("xor", 0b100, 0b0000000),
    _r("srl", 0b101, 0b0000000),
    _r("sra", 0b101, 0b0100000),
    _r("or", 0b110, 0b0000000),
    _r("and", 0b111, 0b0000000),
    _make(InstrSpec("fence", FMT_FENCE, OP_MISC_MEM, funct3=0b000, is_fence=True)),
    _make(InstrSpec("fence.i", FMT_FENCE, OP_MISC_MEM, funct3=0b001, is_fence=True)),
    _make(InstrSpec("ecall", FMT_SYS, OP_SYSTEM, fixed_word=0x0000_0073, is_system=True)),
    _make(InstrSpec("ebreak", FMT_SYS, OP_SYSTEM, fixed_word=0x0010_0073, is_system=True)),
    _make(InstrSpec("mret", FMT_SYS, OP_SYSTEM, fixed_word=0x3020_0073, is_system=True)),
    _make(InstrSpec("wfi", FMT_SYS, OP_SYSTEM, fixed_word=0x1050_0073, is_system=True)),
    # --- RV64I word ops ----------------------------------------------------
    _i("addiw", 0b000, OP_IMM32),
    _make(InstrSpec("slliw", FMT_I_SHIFT32, OP_IMM32, funct3=0b001, funct7=0b0000000)),
    _make(InstrSpec("srliw", FMT_I_SHIFT32, OP_IMM32, funct3=0b101, funct7=0b0000000)),
    _make(InstrSpec("sraiw", FMT_I_SHIFT32, OP_IMM32, funct3=0b101, funct7=0b0100000)),
    _r("addw", 0b000, 0b0000000, OP_REG32),
    _r("subw", 0b000, 0b0100000, OP_REG32),
    _r("sllw", 0b001, 0b0000000, OP_REG32),
    _r("srlw", 0b101, 0b0000000, OP_REG32),
    _r("sraw", 0b101, 0b0100000, OP_REG32),
    # --- M extension ---------------------------------------------------------
    _r("mul", 0b000, 0b0000001, is_muldiv=True),
    _r("mulh", 0b001, 0b0000001, is_muldiv=True),
    _r("mulhsu", 0b010, 0b0000001, is_muldiv=True),
    _r("mulhu", 0b011, 0b0000001, is_muldiv=True),
    _r("div", 0b100, 0b0000001, is_muldiv=True),
    _r("divu", 0b101, 0b0000001, is_muldiv=True),
    _r("rem", 0b110, 0b0000001, is_muldiv=True),
    _r("remu", 0b111, 0b0000001, is_muldiv=True),
    _r("mulw", 0b000, 0b0000001, OP_REG32, is_muldiv=True),
    _r("divw", 0b100, 0b0000001, OP_REG32, is_muldiv=True),
    _r("divuw", 0b101, 0b0000001, OP_REG32, is_muldiv=True),
    _r("remw", 0b110, 0b0000001, OP_REG32, is_muldiv=True),
    _r("remuw", 0b111, 0b0000001, OP_REG32, is_muldiv=True),
    # --- A extension ---------------------------------------------------------
    _amo("lr.w", 0b00010, 0b010, fmt=FMT_LR),
    _amo("sc.w", 0b00011, 0b010),
    _amo("amoswap.w", 0b00001, 0b010),
    _amo("amoadd.w", 0b00000, 0b010),
    _amo("amoxor.w", 0b00100, 0b010),
    _amo("amoand.w", 0b01100, 0b010),
    _amo("amoor.w", 0b01000, 0b010),
    _amo("amomin.w", 0b10000, 0b010),
    _amo("amomax.w", 0b10100, 0b010),
    _amo("amominu.w", 0b11000, 0b010),
    _amo("amomaxu.w", 0b11100, 0b010),
    _amo("lr.d", 0b00010, 0b011, fmt=FMT_LR),
    _amo("sc.d", 0b00011, 0b011),
    _amo("amoswap.d", 0b00001, 0b011),
    _amo("amoadd.d", 0b00000, 0b011),
    _amo("amoxor.d", 0b00100, 0b011),
    _amo("amoand.d", 0b01100, 0b011),
    _amo("amoor.d", 0b01000, 0b011),
    _amo("amomin.d", 0b10000, 0b011),
    _amo("amomax.d", 0b10100, 0b011),
    _amo("amominu.d", 0b11000, 0b011),
    _amo("amomaxu.d", 0b11100, 0b011),
    # --- Zicsr ---------------------------------------------------------------
    _make(InstrSpec("csrrw", FMT_CSR, OP_SYSTEM, funct3=0b001, is_csr=True)),
    _make(InstrSpec("csrrs", FMT_CSR, OP_SYSTEM, funct3=0b010, is_csr=True)),
    _make(InstrSpec("csrrc", FMT_CSR, OP_SYSTEM, funct3=0b011, is_csr=True)),
    _make(InstrSpec("csrrwi", FMT_CSR_IMM, OP_SYSTEM, funct3=0b101, is_csr=True)),
    _make(InstrSpec("csrrsi", FMT_CSR_IMM, OP_SYSTEM, funct3=0b110, is_csr=True)),
    _make(InstrSpec("csrrci", FMT_CSR_IMM, OP_SYSTEM, funct3=0b111, is_csr=True)),
]

#: Mnemonic -> spec for every implemented instruction.
INSTRUCTIONS: dict[str, InstrSpec] = {s.mnemonic: s for s in _SPECS}

#: Specs grouped by major opcode, longest mask first — the decoder's dispatch
#: table.  Fixed-word instructions sort before field-matched ones so that
#: e.g. ``ecall`` wins over ``csrrw`` with funct3==0.
DECODE_TABLE: dict[int, tuple[InstrSpec, ...]] = {}
for _spec in _SPECS:
    DECODE_TABLE.setdefault(_spec.opcode, ())
DECODE_TABLE = {
    opcode: tuple(
        sorted(
            (s for s in _SPECS if s.opcode == opcode),
            key=lambda s: -bin(s.mask).count("1"),
        )
    )
    for opcode in DECODE_TABLE
}

#: Convenience mnemonic groups used by dataset generation and mutations.
LOADS = tuple(s.mnemonic for s in _SPECS if s.is_load)
STORES = tuple(s.mnemonic for s in _SPECS if s.is_store)
BRANCHES = tuple(s.mnemonic for s in _SPECS if s.is_branch)
MULDIVS = tuple(s.mnemonic for s in _SPECS if s.is_muldiv)
AMOS = tuple(s.mnemonic for s in _SPECS if s.is_amo)
CSR_OPS = tuple(s.mnemonic for s in _SPECS if s.is_csr)
ALU_REG_OPS = tuple(
    s.mnemonic
    for s in _SPECS
    if s.fmt == FMT_R and not s.is_muldiv
)
ALU_IMM_OPS = tuple(
    s.mnemonic
    for s in _SPECS
    if s.fmt in (FMT_I, FMT_I_SHIFT64, FMT_I_SHIFT32)
    and not (s.is_load or s.is_jump)
)
