"""Chunk text to token counts under a tokenization mode.

`count_matrix` counts many texts at once, with NumPy, straight into the
float64 count matrix that the chi-square kernel scores. Text is
case-folded; letter modes count letters only, word modes maximal
alphanumeric runs.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, PreconditionFailed

UNITS = ("letter", "word")

# maximal alphanumeric runs; apostrophes inside a word are kept (don't)
_WORD_RE = re.compile(r"[^\W_]+(?:['’][^\W_]+)*")


@dataclass(frozen=True)
class TokenizationMode:
    """Letters or words, counted singly (n = 1, the unigram) or in sliding n-grams."""

    unit: str
    n: int = 1

    def __post_init__(self):
        # an n of 2.0 or True equals an int n, but would spell another name
        if self.unit not in UNITS or type(self.n) is not int or self.n not in range(1, 6):
            raise ValueError(f"no tokenization mode of unit {self.unit!r} and n {self.n!r}")

    @classmethod
    def parse(cls, spec: str) -> "TokenizationMode":
        """The mode spelled `spec`: `letter_unigram`, `word_unigram`,
        `letter_ngram:N` or `word_ngram:N` with N in 2..5; ConfigError
        for any other spelling."""
        try:
            return _BY_SPEC[spec]
        except KeyError:
            raise ConfigError(
                f"unknown tokenization mode {spec!r}; expected letter_unigram, word_unigram, "
                "letter_ngram:N or word_ngram:N with N in 2..5"
            ) from None

    @property
    def spec(self) -> str:
        """The one spelling that `parse` reads as this mode."""
        return f"{self.unit}_unigram" if self.n == 1 else f"{self.unit}_ngram:{self.n}"

    @property
    def name(self) -> str:
        return self.spec.replace(":", "")


_BY_SPEC = {m.spec: m for m in (TokenizationMode(u, n) for u in UNITS for n in range(1, 6))}


def _word_stream(text: str) -> list[str]:
    return _WORD_RE.findall(text.casefold())


def _first_of_runs(ordered: np.ndarray) -> np.ndarray:
    """Indices where a run of equal values starts in the sorted `ordered`."""
    first = np.empty(len(ordered), bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return np.flatnonzero(first)


def _union(distinct: Sequence[np.ndarray]) -> np.ndarray:
    """The sorted distinct values of all the arrays of sorted distinct values."""
    values = np.concatenate(distinct)
    values.sort()
    return values[_first_of_runs(values)]


def _letter_digits(texts: Sequence[str]) -> tuple[list[np.ndarray], int]:
    """Each text's letters as digits, their places in the sorted alphabet of
    the texts, and the size of that alphabet."""
    # case folding maps each character on its own, so the folded texts have
    # the folded characters; each text is folded when its turn comes
    chars = sorted(set().union(*(c.casefold() for c in set().union(*texts))))
    kept = np.array([c.isalpha() for c in chars], bool)
    points = np.array([ord(c) for c in chars], np.uint32)
    size = int(np.count_nonzero(kept))
    # the smallest unsigned type that holds the digits; a dropped character's
    # entry may wrap, but it is never read
    digit = (np.cumsum(kept) - 1).astype(np.min_scalar_type(size))
    digits = []
    for text in texts:
        # surrogatepass: a lone surrogate encodes, and is dropped as a non-letter
        at = np.searchsorted(points, np.frombuffer(
            text.casefold().encode("utf-32-le", "surrogatepass"), np.uint32))
        digits.append(digit[at[kept[at]]])
    return digits, size


def _word_digits(texts: Sequence[str]) -> tuple[list[np.ndarray], int]:
    """Each text's words as digits, their places in the sorted vocabulary of
    the texts, and the size of that vocabulary."""
    ids: dict[str, int] = {}
    # each text's words are numbered as it is read: no text's words outlive it
    numbered = [np.array([ids.setdefault(w, len(ids)) for w in _word_stream(text)], np.intp)
                for text in texts]
    digit = np.empty(len(ids), np.min_scalar_type(len(ids)))
    digit[np.array([ids[w] for w in sorted(ids)], np.intp)] = np.arange(len(ids))
    return [digit[d] for d in numbered], len(ids)


def count_matrix(texts: Sequence[str], mode: TokenizationMode) -> np.ndarray:
    """(n, V) float64 token counts of the n >= 1 `texts` under `mode`.

    Row i holds the count of each token of the case-folded `texts[i]`:
    letters or their sliding n-grams under a letter mode, words (maximal
    alphanumeric runs, apostrophes inside kept) or their sliding n-grams
    joined by a space under a word mode. Columns are the union vocabulary
    of the texts in code-point order of the tokens. A text without tokens
    gives a zero row.
    """
    if not texts:
        raise PreconditionFailed("count_matrix needs at least one text")
    digits, size = (_letter_digits if mode.unit == "letter" else _word_digits)(texts)
    # an n-gram's code is its digits read in radix `size`, so n-grams sort as
    # their digit tuples do, and word n-grams as joined by a space, which sorts
    # below every character of a word. Before a digit whose product could pass
    # 2**63, codes are replaced by their ranks among all texts' codes, in order.
    n = mode.n
    codes = digits if n == 1 else [d[: max(len(d) - n + 1, 0)].astype(np.int64) for d in digits]
    bound = size  # every code is below it
    for k in range(1, n):
        if bound * size > 2**63:
            ranks = _union([s[_first_of_runs(s)] for s in map(np.sort, codes)])
            codes = [np.searchsorted(ranks, c) for c in codes]
            bound = len(ranks)
        for c, d in zip(codes, digits):
            c *= size
            c += d[k : k + len(c)]
        bound *= size
    del digits  # an n-gram mode's digits are freed before counting
    distinct, runs = [], []
    while codes:  # each text's codes are freed once counted
        c = codes.pop(0)
        # radix sort for 8- and 16-bit digits: their default sort is many times slower
        c.sort(kind="stable" if c.itemsize <= 2 else None)
        first = _first_of_runs(c)
        distinct.append(c[first])
        runs.append(np.diff(first, append=len(c)))
    vocabulary = _union(distinct)
    counts = np.zeros((len(texts), len(vocabulary)))
    for row, d, r in zip(counts, distinct, runs):
        row[np.searchsorted(vocabulary, d)] = r
    return counts
