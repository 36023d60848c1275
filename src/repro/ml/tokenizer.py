"""Machine-language tokenizer (paper §IV-C1).

The paper "train[s] a tokenizer on the full ISA" over hex machine code; its
Figure 1b shows 16-bit half-word units ("4118, 419c, …").
:class:`HalfwordTokenizer` reproduces that representation: the vocabulary is
the set of 16-bit half-words observed in the training corpus (most frequent
first, optionally capped), and every 32-bit instruction becomes two tokens
(low half-word first, little-endian order, as in the disassembly).

The tokenizer is trained with :meth:`~HalfwordTokenizer.train` on a corpus
of word sequences and maps between words and token ids with
``encode_words`` / ``decode_tokens``; ids 0-3 are the special
PAD/BOS/EOS/UNK tokens.
"""

from __future__ import annotations

from collections import Counter

PAD, BOS, EOS, UNK = 0, 1, 2, 3
_SPECIALS = ("<pad>", "<bos>", "<eos>", "<unk>")


class HalfwordTokenizer:
    """16-bit half-word vocabulary learned from a corpus."""

    def __init__(self, max_vocab: int | None = None) -> None:
        self.max_vocab = max_vocab
        self._halfword_to_id: dict[int, int] = {}
        self._id_to_halfword: list[int | None] = [None] * len(_SPECIALS)

    # -- persistence (used by the benchmark cache) -----------------------------

    def save(self, path) -> None:
        import json
        from pathlib import Path

        payload = {
            "max_vocab": self.max_vocab,
            "halfwords": self._id_to_halfword[len(_SPECIALS):],
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path) -> "HalfwordTokenizer":
        import json
        from pathlib import Path

        payload = json.loads(Path(path).read_text())
        tokenizer = cls(payload["max_vocab"])
        for halfword in payload["halfwords"]:
            tokenizer._halfword_to_id[halfword] = len(tokenizer._id_to_halfword)
            tokenizer._id_to_halfword.append(halfword)
        return tokenizer

    # -- training ------------------------------------------------------------

    def train(self, corpus) -> "HalfwordTokenizer":
        """Build the vocabulary from an iterable of word sequences."""
        counts: Counter[int] = Counter()
        for entry in corpus:
            for word in entry:
                counts[word & 0xFFFF] += 1
                counts[(word >> 16) & 0xFFFF] += 1
        budget = None if self.max_vocab is None else self.max_vocab - len(_SPECIALS)
        most_common = counts.most_common(budget)
        for halfword, _ in most_common:
            self._halfword_to_id[halfword] = len(self._id_to_halfword)
            self._id_to_halfword.append(halfword)
        return self

    @property
    def vocab_size(self) -> int:
        return len(self._id_to_halfword)

    @property
    def tokens_per_instruction(self) -> int:
        return 2

    # -- encoding ------------------------------------------------------------

    def encode_words(self, words, add_bos: bool = True, add_eos: bool = False) -> list[int]:
        """Instruction words -> token ids (UNK for unseen half-words)."""
        tokens = [BOS] if add_bos else []
        for word in words:
            tokens.append(self._halfword_to_id.get(word & 0xFFFF, UNK))
            tokens.append(self._halfword_to_id.get((word >> 16) & 0xFFFF, UNK))
        if add_eos:
            tokens.append(EOS)
        return tokens

    def decode_tokens(self, tokens) -> list[int]:
        """Token ids -> instruction words.

        Specials are skipped; UNK half-words decode to 0x0000 (an invalid
        instruction — the disassembler reward then penalises them, which is
        exactly the training signal the clean-up step needs).  A trailing
        unpaired half-word is dropped.
        """
        halves: list[int] = []
        for token in tokens:
            if token in (PAD, BOS, EOS):
                continue
            value = (
                self._id_to_halfword[token]
                if 0 <= token < len(self._id_to_halfword)
                else None
            )
            halves.append(0 if value is None else value)
        words = []
        for i in range(0, len(halves) - 1, 2):
            words.append((halves[i + 1] << 16) | halves[i])
        return words
