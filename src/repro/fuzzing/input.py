"""Test-input container with a provenance label."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TestInput:
    """One fuzzing test case: a list of 32-bit instruction words.

    ``source`` labels where the body came from ("llm", "seed",
    "mutation"); the loop simulates every input alike and never reads it.
    """

    words: list[int]
    source: str = "llm"

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return iter(self.words)
