"""Chunk text to token count distributions under configurable modes."""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import EmptyDistribution

KINDS = ("letter_unigram", "word_unigram", "letter_ngram", "word_ngram")

# maximal alphanumeric runs; apostrophes inside a word are kept (don't)
_WORD_RE = re.compile(r"[^\W_]+(?:['’][^\W_]+)*")


@dataclass(frozen=True)
class TokenizationMode:
    kind: str
    n: int = 1
    case_folding: bool = True
    drop_non_letters: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown tokenization kind {self.kind!r}")
        if not 1 <= self.n <= 5:
            raise ValueError("n must be in 1..5")

    @classmethod
    def parse(cls, spec: str) -> "TokenizationMode":
        """Parse CLI notation: 'letter_unigram' or 'letter_ngram:3'."""
        kind, _, n = spec.partition(":")
        return cls(kind=kind, n=int(n) if n else 1)

    @property
    def name(self) -> str:
        return self.kind if "unigram" in self.kind else f"{self.kind}{self.n}"


@dataclass(frozen=True)
class TokenDistribution:
    chunk_id: str
    mode: TokenizationMode
    counts: dict[str, int]
    total: int

    def __post_init__(self):
        if self.total != sum(self.counts.values()):
            raise ValueError("total must equal the sum of counts")
        if any(v < 1 for v in self.counts.values()):
            raise ValueError("zero or negative counts must not be stored")


def _letter_stream(text: str, mode: TokenizationMode) -> list[str]:
    if mode.case_folding:
        text = text.casefold()
    if mode.drop_non_letters:
        return [c for c in text if c.isalpha()]
    return list(text)


def _word_stream(text: str, mode: TokenizationMode) -> list[str]:
    if mode.case_folding:
        text = text.casefold()
    return _WORD_RE.findall(text)


def tokenize(text: str, mode: TokenizationMode, chunk_id: str = "") -> TokenDistribution:
    """Count tokens in `text` under `mode`; deterministic.

    Letter modes count Unicode alphabetic scalars (or sliding n-grams of
    them); word modes count maximal alphanumeric runs (or sliding word
    n-grams joined with a space).
    """
    if mode.kind in ("letter_unigram", "letter_ngram"):
        stream = _letter_stream(text, mode)
        joiner = ""
    else:
        stream = _word_stream(text, mode)
        joiner = " "
    n = 1 if "unigram" in mode.kind else mode.n
    counts: dict[str, int] = {}
    for i in range(len(stream) - n + 1):
        token = joiner.join(stream[i : i + n]) if n > 1 else stream[i]
        counts[token] = counts.get(token, 0) + 1
    total = sum(counts.values())
    if total == 0:
        raise EmptyDistribution(f"chunk {chunk_id or '<anonymous>'}: no tokens under {mode.name}")
    return TokenDistribution(chunk_id=chunk_id, mode=mode, counts=counts, total=total)

