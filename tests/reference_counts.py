"""Test references for counting: the token streams, a Counter over them as
the oracle of `tokenization.count_matrix`, and count rows in its layout."""
from collections import Counter

import numpy as np

from dramastyle import tokenization


def _ref_stream(text, mode):
    """The case-folded letters or words of `text`, and the joiner of their n-grams."""
    if mode.kind in ("letter_unigram", "letter_ngram"):
        return [c for c in text.casefold() if c.isalpha()], ""
    return tokenization._word_stream(text), " "


def _ref_tokenize(text, mode):
    """Counter of the tokens of `text` under `mode`: its sliding n-grams."""
    stream, joiner = _ref_stream(text, mode)
    n = 1 if "unigram" in mode.kind else mode.n
    return Counter(joiner.join(stream[i : i + n]) for i in range(len(stream) - n + 1))


def _rows(maps):
    """(n, V) float64 counts of the token -> count maps over their union
    vocabulary in code-point order: the layout of `count_matrix` and the
    input of `matrix_from_counts`."""
    vocab = sorted(set().union(*maps))
    column = {t: k for k, t in enumerate(vocab)}
    counts = np.zeros((len(maps), len(vocab)))
    for row, m in zip(counts, maps):
        row[[column[t] for t in m]] = list(m.values())
    return counts
