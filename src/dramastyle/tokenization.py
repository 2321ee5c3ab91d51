"""Chunk text to token counts under a tokenization mode.

`count_matrix` counts many texts at once, with NumPy, straight into the
float64 count matrix that the chi-square kernel scores. Text is
case-folded; letter modes count letters only, word modes maximal
alphanumeric runs.

Each token becomes a digit, its place in the sorted alphabet or vocabulary
of all the texts. Letters are coded through a code-point table: each text
is case-folded and encoded to code points once, the code points seen mark
a boolean table sized by the largest of them, each distinct code point is
tested with `str.isalpha` once, and one gather through a digit table codes
every character. An n-gram's code is its digits read in radix `size`, built
in the smallest unsigned type that holds the code space `size**n`. Codes of
8 or 16 bits take NumPy's stable radix sort: letter unigrams, and letter
trigrams of an alphabet of up to 40 letters, as in the corpus languages.
Each text's codes are sorted, its runs of equal codes counted, and the
distinct codes of all texts merged into the columns.
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
    # surrogatepass: a lone surrogate encodes, and is dropped as a non-letter
    points = [np.frombuffer(text.casefold().encode("utf-32-le", "surrogatepass"), np.uint32)
              for text in texts]
    seen = np.zeros(max((int(p.max()) + 1 for p in points if len(p)), default=0), bool)
    for p in points:
        seen[p] = True
    chars = np.flatnonzero(seen)
    letters = chars[np.array([chr(c).isalpha() for c in chars.tolist()], bool)]
    size = len(letters)
    # the digit of each code point, in the smallest unsigned type that holds
    # `size`, the digit of a non-letter
    digit = np.full(len(seen), size, np.min_scalar_type(size))
    digit[letters] = np.arange(size)
    digits = []
    while points:  # each text's code points are freed once coded
        d = digit[points.pop(0)]
        digits.append(d[d < size])
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
    """(n, V) float64 token counts of the n >= 1 `texts` under `mode`; a
    bare str is not a sequence of texts and raises PreconditionFailed.

    Row i holds the count of each token of the case-folded `texts[i]`:
    letters or their sliding n-grams under a letter mode, words (maximal
    alphanumeric runs, apostrophes inside kept) or their sliding n-grams
    joined by a space under a word mode. Columns are the union vocabulary
    of the texts in code-point order of the tokens. A text without tokens
    gives a zero row.
    """
    if isinstance(texts, str):
        raise PreconditionFailed("count_matrix needs a sequence of texts, not a str")
    if not texts:
        raise PreconditionFailed("count_matrix needs at least one text")
    digits, size = (_letter_digits if mode.unit == "letter" else _word_digits)(texts)
    # an n-gram's code is its digits read in radix `size`, so n-grams sort as
    # their digit tuples do, and word n-grams as joined by a space, which sorts
    # below every character of a word. Codes below 2**63 are built in the
    # smallest unsigned type that holds size**n; larger code spaces in int64,
    # where before a digit whose product could pass 2**63, codes are replaced
    # by their ranks among all texts' codes, in order.
    n = mode.n
    code_type = np.min_scalar_type(size**n) if size**n <= 2**63 else np.int64
    codes = digits if n == 1 else [d[: max(len(d) - n + 1, 0)].astype(code_type) for d in digits]
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
        # radix sort for 8- and 16-bit codes: their default sort is many times slower
        c.sort(kind="stable" if c.itemsize <= 2 else None)
        first = _first_of_runs(c)
        distinct.append(c[first])
        runs.append(np.diff(first, append=len(c)))
    vocabulary = _union(distinct)
    counts = np.zeros((len(texts), len(vocabulary)))
    for row, d, r in zip(counts, distinct, runs):
        row[np.searchsorted(vocabulary, d)] = r
    return counts
