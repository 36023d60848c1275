"""Instruction-database sanity: the table must be unambiguous and complete."""

from repro.isa.instructions import (
    AMOS,
    BRANCHES,
    CSR_OPS,
    DECODE_TABLE,
    INSTRUCTIONS,
    LOADS,
    MULDIVS,
    STORES,
)


class TestTableShape:
    def test_expected_instruction_count(self):
        # RV64I incl. fences/system (55) + M (13) + A (22) + Zicsr (6) == 96.
        assert len(INSTRUCTIONS) == 96

    def test_groups_are_disjoint(self):
        groups = [set(LOADS), set(STORES), set(BRANCHES), set(MULDIVS),
                  set(AMOS), set(CSR_OPS)]
        for i, a in enumerate(groups):
            for b in groups[i + 1:]:
                assert not (a & b)

    def test_group_sizes(self):
        assert len(LOADS) == 7
        assert len(STORES) == 4
        assert len(BRANCHES) == 6
        assert len(MULDIVS) == 13
        assert len(AMOS) == 22
        assert len(CSR_OPS) == 6

    def test_every_spec_has_match_mask(self):
        for spec in INSTRUCTIONS.values():
            assert spec.mask & 0x7F == 0x7F, spec.mnemonic
            assert spec.match & 0x7F == spec.opcode, spec.mnemonic
            assert spec.match & ~spec.mask == 0, spec.mnemonic


class TestUnambiguity:
    def test_no_two_specs_overlap(self):
        """No instruction word may satisfy two different (match, mask) pairs.

        Two patterns overlap iff they agree on every bit where both masks
        are set.
        """
        specs = list(INSTRUCTIONS.values())
        for i, a in enumerate(specs):
            for b in specs[i + 1:]:
                common = a.mask & b.mask
                if a.match & common == b.match & common:
                    # One pattern must be a strict refinement of the other —
                    # and then the decode table must try it first.
                    assert a.mask != b.mask, (a.mnemonic, b.mnemonic)

    def test_decode_table_orders_specific_first(self):
        for opcode, specs in DECODE_TABLE.items():
            bits_set = [bin(s.mask).count("1") for s in specs]
            assert bits_set == sorted(bits_set, reverse=True), hex(opcode)


class TestClassification:
    def test_memory_classification(self):
        assert INSTRUCTIONS["ld"].is_memory
        assert INSTRUCTIONS["sd"].is_memory
        assert INSTRUCTIONS["amoadd.d"].is_memory
        assert not INSTRUCTIONS["add"].is_memory

    def test_writes_rd(self):
        assert INSTRUCTIONS["add"].writes_rd
        assert INSTRUCTIONS["jal"].writes_rd
        assert not INSTRUCTIONS["sd"].writes_rd
        assert not INSTRUCTIONS["beq"].writes_rd
        assert not INSTRUCTIONS["fence"].writes_rd

    def test_lr_has_no_rs2(self):
        assert not INSTRUCTIONS["lr.d"].reads_rs2
        assert INSTRUCTIONS["sc.d"].reads_rs2

    def test_fixed_words(self):
        assert INSTRUCTIONS["ecall"].match == 0x0000_0073
        assert INSTRUCTIONS["ebreak"].match == 0x0010_0073
        assert INSTRUCTIONS["mret"].match == 0x3020_0073
        assert INSTRUCTIONS["wfi"].match == 0x1050_0073
