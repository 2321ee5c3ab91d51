"""Pairwise chi-square dissimilarity and the full chunk matrix.

The score for a pair of token distributions is the two-sample chi-square
statistic with expectations from the pooled counts, averaged over the
union vocabulary (Kilgarriff 2001). Larger means more different;
identical distributions score 0. Scores are homogeneous of degree 1 in
the counts, which is why all chunks must have equal size.

One vectorised kernel scores a dense float64 count matrix whose columns
are in code-point order of the tokens: each pair is scored over the
tokens of one of its chunks, with the tokens only the other chunk has
added in closed form. Scores match the term-by-term formula to 1e-12
relative and are symmetric to the last bit. A pair's score depends on
the pair alone: a 2-row `matrix_from_counts` call gives the same bits as
the pair's entry in any call that holds both rows.

`matrix_from_counts` is the one entry; `tokenization.count_matrix`
counts straight into the matrix it scores.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PreconditionFailed, StatisticsError

_TILE = 1 << 14  # count elements per block of rows scored at once; bounds memory


@dataclass(frozen=True)
class DissimilarityMatrix:
    chunk_ids: tuple[str, ...]
    scores: np.ndarray  # symmetric, zero diagonal


def _upper_scores(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """(n, n) scores of every pair i < j of the rows of `counts`, zero elsewhere.

    Pair (i, j) is scored over S, the tokens chunk i has. Per token, the
    two pooled-expectation terms add up to (a*nb - b*na)^2 / ((a+b)*na*nb),
    and a token that only chunk j has adds b*na/nb, so those tokens
    together add na*(nb - sum of b over S)/nb, an integer sum and so exact.
    The sum is divided by the union vocabulary,
    |S| + |supp b| - |S & supp b|. Columns of S are gathered in code-point
    order, so a pair's bits do not depend on the other chunks of the call.

    Row i is scored against the later rows in blocks of at most `_TILE`
    count elements (at least one row), all through one work buffer: freed
    temporaries of this size would go back to the OS and be page-faulted
    in again on the next block.
    """
    nonzero = np.count_nonzero(counts, axis=1)
    n = len(counts)
    scores = np.zeros((n, n))
    work = np.empty((3, max(_TILE, counts.shape[1])))
    for i in range(n - 1):
        support = np.flatnonzero(counts[i])
        a, na, width = counts[i, support], totals[i], len(support)
        height = max(1, _TILE // width)
        for j in range(i + 1, n, height):
            k = min(j + height, n)
            b, diff, den = work[:, : (k - j) * width].reshape(3, k - j, width)
            np.take(counts[j:k], support, axis=1, out=b)
            nb = totals[j:k]
            np.multiply(a, nb[:, None], out=diff)
            np.multiply(b, na, out=den)
            np.subtract(diff, den, out=diff)
            np.multiply(diff, diff, out=diff)
            np.add(a, b, out=den)
            np.multiply(den, (na * nb)[:, None], out=den)
            np.divide(diff, den, out=diff)
            only_b = na * (nb - b.sum(axis=1)) / nb
            union = width + nonzero[j:k] - np.count_nonzero(b, axis=1)
            scores[i, j:k] = (diff.sum(axis=1) + only_b) / union
    return scores


def matrix_from_counts(chunk_ids: Sequence[str], counts: np.ndarray) -> DissimilarityMatrix:
    """Symmetric matrix over all pairs of the rows of `counts`.

    Row i of the (n, V) `counts` holds chunk `chunk_ids[i]`'s token counts
    over a vocabulary in code-point order; the ids must be unique and
    sorted. A chunk's total is its row sum, exact for integer counts
    below 2**53. Each pair is scored once, above the diagonal, and
    mirrored below it.
    """
    if len(chunk_ids) != counts.shape[0]:
        raise PreconditionFailed(
            f"{len(chunk_ids)} chunk_ids and {counts.shape[0]} count rows: "
            "need one of each per chunk"
        )
    if len(chunk_ids) < 2:
        raise PreconditionFailed("need at least 2 distributions")
    if any(a >= b for a, b in zip(chunk_ids, chunk_ids[1:])):
        raise PreconditionFailed("chunk_ids must be unique and sorted")
    totals = counts.sum(axis=1)
    for cid, total in zip(chunk_ids, totals):
        if total <= 0:
            raise StatisticsError(f"chunk {cid}: no tokens")
    scores = _upper_scores(counts, totals)
    return DissimilarityMatrix(chunk_ids=tuple(chunk_ids), scores=scores + scores.T)

