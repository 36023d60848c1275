"""Machine-language tokenizer: round-trips and degradation behaviour."""

from repro.dataset.corpus import Corpus
from repro.ml.tokenizer import BOS, EOS, PAD, UNK, HalfwordTokenizer


def small_corpus():
    return Corpus.synthesize(10, seed=1)


class TestHalfwordTokenizer:
    def test_roundtrip_corpus_entries(self):
        corpus = small_corpus()
        tokenizer = HalfwordTokenizer().train(corpus)
        for entry in corpus:
            tokens = tokenizer.encode_words(entry)
            assert tokens[0] == BOS
            assert tokenizer.decode_tokens(tokens) == list(entry)

    def test_two_tokens_per_instruction(self):
        corpus = small_corpus()
        tokenizer = HalfwordTokenizer().train(corpus)
        entry = corpus[0]
        tokens = tokenizer.encode_words(entry, add_bos=False)
        assert len(tokens) == 2 * len(entry)
        assert tokenizer.tokens_per_instruction == 2

    def test_unseen_halfword_becomes_unk_then_invalid_word(self):
        tokenizer = HalfwordTokenizer().train([[0x00000013]])  # just a nop
        tokens = tokenizer.encode_words([0xDEAD0013])
        assert UNK in tokens
        decoded = tokenizer.decode_tokens(tokens)
        # The unknown half decodes to 0x0000 -> the word is malformed, which
        # the disassembler reward then penalises.
        assert decoded[0] != 0xDEAD0013

    def test_vocab_cap_respected(self):
        corpus = small_corpus()
        tokenizer = HalfwordTokenizer(max_vocab=50).train(corpus)
        assert tokenizer.vocab_size <= 50

    def test_eos_append(self):
        tokenizer = HalfwordTokenizer().train([[0x13]])
        tokens = tokenizer.encode_words([0x13], add_eos=True)
        assert tokens[-1] == EOS

    def test_odd_halfword_tail_dropped(self):
        tokenizer = HalfwordTokenizer().train([[0x00000013]])
        tokens = tokenizer.encode_words([0x13], add_bos=False)
        assert tokenizer.decode_tokens(tokens[:-1]) == []

    def test_specials_skipped_in_decode(self):
        tokenizer = HalfwordTokenizer().train([[0x00000013]])
        tokens = [PAD, BOS] + tokenizer.encode_words([0x13], add_bos=False) + [EOS]
        assert tokenizer.decode_tokens(tokens) == [0x13]
