"""Category homogeneity scores against seeded permutation baselines.

Two statistics per category: the within-category rank-sum over all chunk
pairs (small = homogeneous) and the leave-one-out nearest-category
attribution hit count (large = homogeneous). Each gets a Monte-Carlo
p-value from uniformly shuffling category labels over chunks, category
sizes preserved. Shuffles are keyed by (seed, permutation index), so the
null distribution is independent of evaluation order.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.stats import rankdata

from .errors import DegenerateCategory, PreconditionFailed
from .similarity import DissimilarityMatrix


@dataclass(frozen=True)
class RankedPairs:
    """All chunk pairs ranked ascending by dissimilarity, average ties."""

    chunk_ids: tuple[str, ...]
    ranks: np.ndarray  # pairs i < j in row-major order; ties get the average rank
    rank_matrix: np.ndarray = field(repr=False)  # symmetric, zero diagonal


@dataclass(frozen=True)
class HomogeneityReport:
    category: str
    rank_sum: float
    rank_sum_p: float
    attribution_hits: int
    attribution_total: int
    attribution_p: float
    permutations: int
    seed: int


@dataclass(frozen=True)
class AttributionResult:
    per_chunk: tuple[dict, ...]  # chunk_id, true/attributed category, hit
    hits: dict[str, int]
    totals: dict[str, int]
    ties: tuple[dict, ...]


def _shuffled(labels: Sequence[str], seed: int, index: int) -> list[str]:
    """Deterministic label shuffle for permutation `index` of `seed`."""
    rng = random.Random(f"{seed}:{index}")
    out = list(labels)
    rng.shuffle(out)
    return out


def rank_pairs(matrix: DissimilarityMatrix) -> RankedPairs:
    """Rank all unordered pairs ascending by score (most similar = 1)."""
    if len(matrix.chunk_ids) < 2:
        raise PreconditionFailed("need at least 2 chunks")
    n = len(matrix.chunk_ids)
    upper = np.triu_indices(n, 1)
    ranks = rankdata(matrix.scores[upper], method="average")
    rank_matrix = np.zeros((n, n))
    rank_matrix[upper] = ranks
    rank_matrix += rank_matrix.T
    return RankedPairs(chunk_ids=matrix.chunk_ids, ranks=ranks, rank_matrix=rank_matrix)


def _members(chunk_ids: Sequence[str], labels: Sequence[str], category: str) -> list[int]:
    idx = [i for i, lab in enumerate(labels) if lab == category]
    if len(idx) < 2:
        raise DegenerateCategory(f"category {category!r} has {len(idx)} chunk(s)")
    return idx


def _rank_sum(rank_matrix: np.ndarray, members: Sequence[int]) -> float:
    sub = rank_matrix[np.ix_(members, members)]
    return float(sub.sum() / 2.0)


def within_category_rank_sum(
    ranked: RankedPairs, labels: Mapping[str, str], category: str
) -> float:
    """Sum of ranks of pairs whose chunks both carry `category`."""
    label_list = [labels[cid] for cid in ranked.chunk_ids]
    return _rank_sum(ranked.rank_matrix, _members(ranked.chunk_ids, label_list, category))


def rank_sum_baseline(
    ranked: RankedPairs,
    labels: Mapping[str, str],
    category: str,
    permutations: int,
    seed: int,
) -> tuple[float, dict]:
    """One-sided permutation p-value for the rank-sum (small = homogeneous)."""
    if permutations < 1:
        raise PreconditionFailed("permutations must be >= 1")
    label_list = [labels[cid] for cid in ranked.chunk_ids]
    observed = _rank_sum(ranked.rank_matrix, _members(ranked.chunk_ids, label_list, category))
    rank_rows = ranked.rank_matrix.tolist()  # python sums beat fancy indexing here
    null = np.empty(permutations)
    for p in range(permutations):
        shuffled = _shuffled(label_list, seed, p)
        members = [i for i, lab in enumerate(shuffled) if lab == category]
        null[p] = sum(
            rank_rows[i][j] for a, i in enumerate(members) for j in members[a + 1 :]
        )
    p_value = (1 + int((null <= observed).sum())) / (permutations + 1)
    summary = {
        "observed": observed,
        "permutations": permutations,
        "null_mean": float(null.mean()),
        "null_sd": float(null.std()),
        "null_min": float(null.min()),
        "null_max": float(null.max()),
    }
    return p_value, summary


def _category_means(
    scores: np.ndarray, labels: Sequence[str], categories: Sequence[str]
) -> np.ndarray:
    """means[i, c]: mean distance from chunk i to category c, leave-one-out
    for the chunk's own category (the zero self-distance is excluded)."""
    n = len(labels)
    indicator = np.zeros((n, len(categories)))
    cat_index = {c: k for k, c in enumerate(categories)}
    for i, lab in enumerate(labels):
        indicator[i, cat_index[lab]] = 1.0
    sums = scores @ indicator  # (n, ncat)
    sizes = indicator.sum(axis=0)  # (ncat,)
    denom = np.tile(sizes, (n, 1))
    for i, lab in enumerate(labels):
        denom[i, cat_index[lab]] -= 1.0  # own category: exclude self
    return sums / denom


def attribute_chunks(
    matrix: DissimilarityMatrix, labels: Mapping[str, str]
) -> AttributionResult:
    """Assign each chunk to its nearest category by leave-one-out mean.

    Ties go to the lexicographically smallest category and are logged in
    the result rather than hidden.
    """
    label_list = [labels[cid] for cid in matrix.chunk_ids]
    categories = sorted(set(label_list))
    for c in categories:
        _members(matrix.chunk_ids, label_list, c)
    means = _category_means(matrix.scores, label_list, categories)
    best = means.argmin(axis=1)  # first index wins: lexicographic tie-break
    per_chunk = []
    ties = []
    hits = {c: 0 for c in categories}
    totals = {c: 0 for c in categories}
    for i, cid in enumerate(matrix.chunk_ids):
        true_cat = label_list[i]
        attributed = categories[best[i]]
        tied = [categories[k] for k in np.flatnonzero(means[i] == means[i, best[i]])]
        if len(tied) > 1:
            ties.append({"chunk_id": cid, "tied_categories": tied})
        hit = attributed == true_cat
        totals[true_cat] += 1
        hits[true_cat] += int(hit)
        per_chunk.append(
            {
                "chunk_id": cid,
                "true_category": true_cat,
                "attributed_category": attributed,
                "hit": hit,
                "mean_scores": {c: float(means[i, k]) for k, c in enumerate(categories)},
            }
        )
    return AttributionResult(
        per_chunk=tuple(per_chunk), hits=hits, totals=totals, ties=tuple(ties)
    )


def attribution_baseline(
    matrix: DissimilarityMatrix,
    labels: Mapping[str, str],
    permutations: int,
    seed: int,
) -> tuple[dict[str, float], dict]:
    """Per-category permutation p for the hit count (large = homogeneous)."""
    if permutations < 1:
        raise PreconditionFailed("permutations must be >= 1")
    label_list = [labels[cid] for cid in matrix.chunk_ids]
    categories = sorted(set(label_list))
    observed = attribute_chunks(matrix, labels).hits
    at_least = {c: 0 for c in categories}
    null_sums = {c: 0.0 for c in categories}
    cat_index = {c: k for k, c in enumerate(categories)}
    for p in range(permutations):
        shuffled = _shuffled(label_list, seed, p)
        means = _category_means(matrix.scores, shuffled, categories)
        best = means.argmin(axis=1)
        null_hits = {c: 0 for c in categories}
        for i, lab in enumerate(shuffled):
            if best[i] == cat_index[lab]:
                null_hits[lab] += 1
        for c in categories:
            null_sums[c] += null_hits[c]
            if null_hits[c] >= observed[c]:
                at_least[c] += 1
    p_values = {c: (1 + at_least[c]) / (permutations + 1) for c in categories}
    summary = {
        "observed": dict(observed),
        "permutations": permutations,
        "null_mean": {c: null_sums[c] / permutations for c in categories},
    }
    return p_values, summary
