"""Pairwise chi-square dissimilarity and the full chunk matrix.

The score for a pair of token distributions is the two-sample chi-square
statistic with expectations from the pooled counts, averaged over the
union vocabulary. Larger means more different; identical distributions
score 0. Scores are homogeneous of degree 1 in the counts, which is why
all chunks must have equal size.
"""
from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import EmptyDistribution, ModeMismatch, PreconditionFailed
from .tokenization import TokenDistribution


@dataclass(frozen=True)
class DissimilarityMatrix:
    chunk_ids: tuple[str, ...]
    scores: np.ndarray  # symmetric, zero diagonal


def chi_square_dissimilarity(da: TokenDistribution, db: TokenDistribution) -> float:
    """Average pooled-expectation chi-square over the union vocabulary.

    Tokens are summed in code-point order with exact summation, so the
    result is bit-identical regardless of argument order or scheduling.
    """
    if da.mode != db.mode:
        raise ModeMismatch(f"{da.mode.name} vs {db.mode.name}")
    if da.total <= 0 or db.total <= 0:
        raise EmptyDistribution("both distributions must be non-empty")
    na, nb = da.total, db.total
    pooled = na + nb
    tokens = sorted(set(da.counts) | set(db.counts))
    terms = []
    for t in tokens:
        a = da.counts.get(t, 0)
        b = db.counts.get(t, 0)
        expected_a = na * (a + b) / pooled
        expected_b = nb * (a + b) / pooled
        terms.append((a - expected_a) ** 2 / expected_a + (b - expected_b) ** 2 / expected_b)
    return math.fsum(terms) / len(tokens)


def pairwise_matrix(dists: Sequence[TokenDistribution], jobs: int = 1) -> DissimilarityMatrix:
    """Symmetric matrix over all chunk pairs, rows in sorted chunk_id order.

    Each pair is computed once and mirrored; pairs are independent, so
    `jobs` threads give the same bits as a sequential run.
    """
    if len(dists) < 2:
        raise PreconditionFailed("need at least 2 distributions")
    ids = [d.chunk_id for d in dists]
    if len(set(ids)) != len(ids):
        raise PreconditionFailed("chunk_ids must be unique")
    ordered = sorted(dists, key=lambda d: d.chunk_id)
    n = len(ordered)
    scores = np.zeros((n, n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def compute(pair):
        i, j = pair
        return i, j, chi_square_dissimilarity(ordered[i], ordered[j])

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(compute, pairs))
    else:
        results = [compute(p) for p in pairs]
    for i, j, score in results:
        scores[i, j] = score
        scores[j, i] = score
    return DissimilarityMatrix(chunk_ids=tuple(d.chunk_id for d in ordered), scores=scores)


def write_matrix_csv(matrix: DissimilarityMatrix, path: str | Path) -> None:
    """Matrix CSV: header of chunk_ids, one labeled row per chunk, 6 decimals."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["chunk_id", *matrix.chunk_ids])
        for cid, row in zip(matrix.chunk_ids, matrix.scores):
            writer.writerow([cid, *(format(v, ".6f") for v in row)])
