"""Disassembler: text rendering and the step-2 reward substrate."""

from repro.isa.disassembler import Disassembler
from repro.isa.encoder import encode


class TestFormatting:
    def setup_method(self):
        self.dis = Disassembler()

    def test_r_format(self):
        assert self.dis.disassemble_word(
            encode("add", rd=1, rs1=2, rs2=3)) == "add ra, sp, gp"

    def test_load_store_syntax(self):
        assert self.dis.disassemble_word(
            encode("ld", rd=5, rs1=2, imm=8)) == "ld t0, 8(sp)"
        assert self.dis.disassemble_word(
            encode("sd", rs2=5, rs1=2, imm=-16)) == "sd t0, -16(sp)"

    def test_branch(self):
        assert self.dis.disassemble_word(
            encode("bne", rs1=10, rs2=0, imm=-4)) == "bne a0, zero, -4"

    def test_lui_hex(self):
        assert self.dis.disassemble_word(
            encode("lui", rd=10, imm=0x12345)) == "lui a0, 0x12345000"

    def test_csr_named(self):
        text = self.dis.disassemble_word(encode("csrrw", rd=3, rs1=4, csr=0x300))
        assert text == "csrrw gp, mstatus, tp"

    def test_csr_unnamed_address(self):
        text = self.dis.disassemble_word(encode("csrrw", rd=3, rs1=4, csr=0x123))
        assert "0x123" in text

    def test_amo_with_ordering_bits(self):
        text = self.dis.disassemble_word(
            encode("amoswap.d", rd=5, rs1=6, rs2=7, aq=1, rl=1))
        assert text == "amoswap.d.aq.rl t0, t2, (t1)"

    def test_lr(self):
        assert self.dis.disassemble_word(
            encode("lr.w", rd=5, rs1=6)) == "lr.w t0, (t1)"

    def test_system_no_operands(self):
        assert self.dis.disassemble_word(encode("ecall")) == "ecall"
        assert self.dis.disassemble_word(encode("fence.i")) == "fence.i"

    def test_invalid_word_renders_as_data(self):
        assert self.dis.disassemble_word(0) == ".word 0x00000000"


class TestScoring:
    def setup_method(self):
        self.dis = Disassembler()
        self.valid = [encode("addi", rd=1, rs1=1, imm=1)] * 4

    def test_all_valid(self):
        assert self.dis.count_invalid(self.valid) == 0

    def test_counts_invalid(self):
        assert self.dis.count_invalid(self.valid + [0, 0xFFFFFFFF]) == 2

    def test_count_invalid_shortcut(self):
        assert self.dis.count_invalid([0, 1, encode("ecall")]) == 2

    def test_empty_stream(self):
        assert self.dis.count_invalid([]) == 0
        assert self.dis.listing([]) == ""

    def test_listing_contains_addresses(self):
        listing = self.dis.listing(self.valid, base=0x8000_0000)
        assert "0x80000000" in listing
        assert listing.count("\n") == 3
