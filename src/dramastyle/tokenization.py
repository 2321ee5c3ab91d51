"""Chunk text to token counts under configurable modes.

Two entries count the same tokens. `count_matrix` serves the pipeline:
it counts many texts at once, with NumPy, straight into the float64
count matrix that the chi-square kernel scores. `tokenize` serves the
public dict API: one text to a `TokenDistribution`, whose counts keep
the tokens in order of first occurrence.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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


def _grams(stream: list[str], n: int, joiner: str) -> Iterable[str]:
    """The sliding n-grams of `stream`, each window joined by `joiner`, in order."""
    # zip of the n shifted streams yields each sliding window once, in order
    return stream if n == 1 else map(joiner.join, zip(*(stream[k:] for k in range(n))))


def tokenize(text: str, mode: TokenizationMode, chunk_id: str = "") -> TokenDistribution:
    """Count tokens in `text` under `mode`; deterministic.

    Letter modes count Unicode alphabetic scalars (or sliding n-grams of
    them); word modes count maximal alphanumeric runs (or sliding word
    n-grams joined with a space).
    """
    n = 1 if "unigram" in mode.kind else mode.n
    if mode.kind in ("letter_unigram", "letter_ngram"):
        grams = _grams(_letter_stream(text, mode), n, "")
    else:
        grams = _grams(_word_stream(text, mode), n, " ")
    counts = dict(Counter(grams))
    total = sum(counts.values())
    if total == 0:
        raise EmptyDistribution(f"chunk {chunk_id or '<anonymous>'}: no tokens under {mode.name}")
    return TokenDistribution(chunk_id=chunk_id, mode=mode, counts=counts, total=total)


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


def _letter_codes(texts: Sequence[str], mode: TokenizationMode, n: int) -> list[np.ndarray]:
    """Each text's letter n-grams as integer codes that sort as the n-grams do.

    A letter's digit is its place in the sorted alphabet of the texts; an
    n-gram's code is its digits read in that mixed radix, so equal-length
    n-grams compare as their code points do. Before a digit whose product
    could pass 2**63, the codes are replaced by their ranks among the codes
    of all the texts, which keeps their order.
    """
    chars = set().union(*texts)
    if mode.case_folding:
        # case folding maps each character on its own, so the folded texts
        # have the folded characters; each text is folded when its turn comes
        chars = set().union(*(c.casefold() for c in chars))
    chars = sorted(chars)
    kept = np.array([c.isalpha() or not mode.drop_non_letters for c in chars], bool)
    points = np.array([ord(c) for c in chars], np.uint32)
    size = int(np.count_nonzero(kept))
    # the smallest unsigned type that holds the digits; a dropped character's
    # entry may wrap, but it is never read
    digit = (np.cumsum(kept) - 1).astype(np.min_scalar_type(size))
    digits = []
    for text in texts:
        if mode.case_folding:
            text = text.casefold()
        # surrogatepass: a lone surrogate is a character to `tokenize` too
        at = np.searchsorted(points, np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                                                   np.uint32))
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


def _word_codes(texts: Sequence[str], mode: TokenizationMode, n: int) -> list[np.ndarray]:
    """Each text's word n-grams as int64 codes: their ranks in the sorted vocabulary."""
    ids: dict[str, int] = {}
    grams = [
        [ids.setdefault(g, len(ids)) for g in _grams(_word_stream(text, mode), n, " ")]
        for text in texts
    ]
    rank = np.empty(len(ids), np.int64)
    rank[np.array([ids[g] for g in sorted(ids)], np.intp)] = np.arange(len(ids))
    return [rank[np.array(g, np.intp)] for g in grams]


def count_matrix(texts: Sequence[str], mode: TokenizationMode) -> tuple[np.ndarray, np.ndarray]:
    """(n, V) float64 token counts of `texts` under `mode`, and the (n,) totals.

    Row i holds the counts `tokenize(texts[i], mode)` gives, over the
    union vocabulary of the texts in code-point order of the tokens. A
    text without tokens gives a zero row and total.
    """
    n = 1 if "unigram" in mode.kind else mode.n
    if mode.kind in ("letter_unigram", "letter_ngram"):
        codes = _letter_codes(texts, mode, n)
    else:
        codes = _word_codes(texts, mode, n)
    totals = np.array([float(len(c)) for c in codes])
    distinct, runs = [], []
    while codes:  # each text's codes are freed once counted
        c = codes.pop(0)
        # radix sort for 8- and 16-bit letter digits: their default sort is many times slower
        c.sort(kind="stable" if c.itemsize <= 2 else None)
        first = _first_of_runs(c)
        distinct.append(c[first])
        runs.append(np.diff(first, append=len(c)))
    vocabulary = _union(distinct)
    counts = np.zeros((len(totals), len(vocabulary)))
    for row, d, r in zip(counts, distinct, runs):
        row[np.searchsorted(vocabulary, d)] = r
    return counts, totals
