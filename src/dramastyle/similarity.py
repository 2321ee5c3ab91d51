"""Pairwise chi-square dissimilarity and the full chunk matrix.

The score for a pair of token distributions is the two-sample chi-square
statistic with expectations from the pooled counts, averaged over the
union vocabulary (Kilgarriff 2001). Larger means more different;
identical distributions score 0. Scores are homogeneous of degree 1 in
the counts, which is why all chunks must have equal size.

One vectorised kernel serves both the scalar and the matrix: the counts
go into a dense float64 matrix with columns in code-point order, and the
two pooled-expectation terms of a token are scored in their closed form.
Scores match the term-by-term formula to 1e-12 relative and are
symmetric to the last bit. A pair's last bit may depend on which other
chunks share the call, because tokens absent from both chunks still
take part (as zeros) in the summation order.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import EmptyDistribution, ModeMismatch, PreconditionFailed
from .tokenization import TokenDistribution

_TILE = 1 << 14  # count elements per block of rows scored at once; bounds memory


@dataclass(frozen=True)
class DissimilarityMatrix:
    chunk_ids: tuple[str, ...]
    scores: np.ndarray  # symmetric, zero diagonal


def _dense(dists: Sequence[TokenDistribution]) -> tuple[np.ndarray, np.ndarray]:
    """(n, V) counts over the union vocabulary in code-point order, and totals."""
    for d in dists[1:]:
        if d.mode != dists[0].mode:
            raise ModeMismatch(f"{dists[0].mode.name} vs {d.mode.name}")
    if any(d.total <= 0 for d in dists):
        raise EmptyDistribution("all distributions must be non-empty")
    vocab = sorted(set().union(*(d.counts for d in dists)))
    column = {t: k for k, t in enumerate(vocab)}
    counts = np.zeros((len(dists), len(vocab)))
    for row, d in zip(counts, dists):
        row[[column[t] for t in d.counts]] = list(d.counts.values())
    return counts, np.array([float(d.total) for d in dists])


def _row_scores(
    a: np.ndarray, na: float, b: np.ndarray, nb: np.ndarray, work: np.ndarray | None = None
) -> np.ndarray:
    """Scores of count vector `a` (total `na`) against each row of `b` (totals `nb`).

    Per token, the two pooled-expectation terms add up to
    (a*nb - b*na)^2 / ((a+b)*na*nb); tokens absent from both are skipped.
    Swapping the sides negates the difference exactly and leaves the
    denominator's products unchanged, so the score is symmetric bit for bit.

    The temporaries go into `work`, a float64 buffer of shape
    (3, >= len(b), V) whose contents on entry do not matter; one is
    allocated when it is not given. Reusing one buffer across calls keeps
    the large temporaries off the allocator, which may otherwise hand each
    freed one back to the OS and page-fault it in again on the next call.
    """
    if work is None:
        work = np.empty((3, *b.shape))
    pooled, diff, den = work[:, : len(b)]
    np.add(a, b, out=pooled)
    np.multiply(a, nb[:, None], out=diff)
    np.multiply(b, na, out=den)
    np.subtract(diff, den, out=diff)
    np.multiply(diff, diff, out=diff)  # +0.0 wherever pooled is 0: no divide there
    np.multiply(pooled, (na * nb)[:, None], out=den)
    present = pooled > 0
    np.divide(diff, den, out=diff, where=present)
    return diff.sum(axis=1) / present.sum(axis=1)


def chi_square_dissimilarity(da: TokenDistribution, db: TokenDistribution) -> float:
    """Average pooled-expectation chi-square over the union vocabulary."""
    counts, totals = _dense([da, db])
    return float(_row_scores(counts[0], totals[0], counts[1:], totals[1:])[0])


def pairwise_matrix(dists: Sequence[TokenDistribution]) -> DissimilarityMatrix:
    """Symmetric matrix over all chunk pairs, rows in sorted chunk_id order.

    Row i is scored against the later rows in slices of at most `_TILE`
    count elements, all through one work buffer, then mirrored below the
    diagonal.
    """
    if len(dists) < 2:
        raise PreconditionFailed("need at least 2 distributions")
    ids = [d.chunk_id for d in dists]
    if len(set(ids)) != len(ids):
        raise PreconditionFailed("chunk_ids must be unique")
    ordered = sorted(dists, key=lambda d: d.chunk_id)
    counts, totals = _dense(ordered)
    n, vocab = counts.shape
    height = max(1, _TILE // vocab)
    work = np.empty((3, height, vocab))
    scores = np.zeros((n, n))
    for i in range(n - 1):
        for j in range(i + 1, n, height):
            k = min(j + height, n)
            scores[i, j:k] = _row_scores(
                counts[i], totals[i], counts[j:k], totals[j:k], work
            )
    return DissimilarityMatrix(
        chunk_ids=tuple(d.chunk_id for d in ordered), scores=scores + scores.T
    )


def write_matrix_csv(matrix: DissimilarityMatrix, path: str | Path) -> None:
    """Matrix CSV: header of chunk_ids, one labeled row per chunk, 6 decimals."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["chunk_id", *matrix.chunk_ids])
        for cid, row in zip(matrix.chunk_ids, matrix.scores):
            writer.writerow([cid, *(format(v, ".6f") for v in row)])
