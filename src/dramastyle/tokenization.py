"""Chunk text to token counts under a tokenization mode.

`count_matrix` counts many texts at once, with NumPy, straight into the
float64 count matrix that the chi-square kernel scores. Text is
case-folded; letter modes count letters only, word modes maximal
alphanumeric runs.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import PreconditionFailed

KINDS = ("letter_unigram", "word_unigram", "letter_ngram", "word_ngram")

# maximal alphanumeric runs; apostrophes inside a word are kept (don't)
_WORD_RE = re.compile(r"[^\W_]+(?:['’][^\W_]+)*")


@dataclass(frozen=True)
class TokenizationMode:
    kind: str
    n: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown tokenization kind {self.kind!r}")
        if not 1 <= self.n <= 5:
            raise ValueError("n must be in 1..5")

    @classmethod
    def parse(cls, spec: str) -> "TokenizationMode":
        """Parse CLI notation: 'letter_unigram' or 'letter_ngram:3'; a
        unigram kind takes no ':n'."""
        kind, colon, n = spec.partition(":")
        if colon and kind in ("letter_unigram", "word_unigram"):
            raise ValueError(f"{kind} takes no ':n', got {spec!r}")
        return cls(kind=kind, n=int(n) if n else 1)

    @property
    def name(self) -> str:
        return self.kind if "unigram" in self.kind else f"{self.kind}{self.n}"


def _word_stream(text: str) -> list[str]:
    return _WORD_RE.findall(text.casefold())


def _grams(stream: list[str], n: int) -> Iterable[str]:
    """The sliding n-grams of `stream`, each window joined by a space, in order."""
    # zip of the n shifted streams yields each sliding window once, in order
    return stream if n == 1 else map(" ".join, zip(*(stream[k:] for k in range(n))))


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


def _letter_codes(texts: Sequence[str], n: int) -> list[np.ndarray]:
    """Each text's letter n-grams as integer codes that sort as the n-grams do.

    A letter's digit is its place in the sorted alphabet of the texts; an
    n-gram's code is its digits read in that mixed radix, so equal-length
    n-grams compare as their code points do. Before a digit whose product
    could pass 2**63, the codes are replaced by their ranks among the codes
    of all the texts, which keeps their order.
    """
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
    if n == 1:
        return digits
    codes = [d[: max(len(d) - n + 1, 0)].astype(np.int64) for d in digits]
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
    return codes


def _word_codes(texts: Sequence[str], n: int) -> list[np.ndarray]:
    """Each text's word n-grams as int64 codes: their ranks in the sorted vocabulary."""
    ids: dict[str, int] = {}
    grams = [
        [ids.setdefault(g, len(ids)) for g in _grams(_word_stream(text), n)]
        for text in texts
    ]
    rank = np.empty(len(ids), np.int64)
    rank[np.array([ids[g] for g in sorted(ids)], np.intp)] = np.arange(len(ids))
    return [rank[np.array(g, np.intp)] for g in grams]


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
    n = 1 if "unigram" in mode.kind else mode.n
    if mode.kind in ("letter_unigram", "letter_ngram"):
        codes = _letter_codes(texts, n)
    else:
        codes = _word_codes(texts, n)
    distinct, runs = [], []
    while codes:  # each text's codes are freed once counted
        c = codes.pop(0)
        # radix sort for 8- and 16-bit letter digits: their default sort is many times slower
        c.sort(kind="stable" if c.itemsize <= 2 else None)
        first = _first_of_runs(c)
        distinct.append(c[first])
        runs.append(np.diff(first, append=len(c)))
    vocabulary = _union(distinct)
    counts = np.zeros((len(texts), len(vocabulary)))
    for row, d, r in zip(counts, distinct, runs):
        row[np.searchsorted(vocabulary, d)] = r
    return counts
