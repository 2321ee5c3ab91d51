"""Category homogeneity scores against seeded permutation baselines.

Two statistics per category: the within-category rank-sum over all chunk
pairs (small = homogeneous) and the leave-one-out nearest-category
attribution hit count (large = homogeneous). Each gets a Monte-Carlo
p-value from uniformly shuffling category labels over chunks, category
sizes preserved. Shuffles are keyed by (seed, permutation index), so the
null distribution is independent of evaluation order. `draw_orders` draws
each shuffle once per run from a counter-keyed SplitMix64 stream, and
`permutation_baselines` scores both statistics for every category and every
mode from the same orders.

The engine scores the shuffles only; each observed statistic is one
computation. The rank-sum of a category sums the ranks of its
within-category chunk pairs, listed once per call and grouped by category;
a shuffle gathers them at the positions its inverse order gives them. Ranks
are multiples of 0.5, so the sums are exact in any order. The observed hits
are those of the one attribution that `attribute_chunks` also gives. Each
shuffle's attribution is one batched (n x n) @ (n x K) product, divided by
the category sizes and corrected to leave-one-out in each chunk's own
category only, which gives the bits of dividing by (sizes - one-hot), as
x / (s - 0.0) == x / s exactly. The quotients are laid out category-major,
(K, chunks of the block), so the nearest category is a minimum reduced
down each column rather than an argmin along a K-wide last axis. A chunk
is a hit when its own quotient equals the column minimum and no earlier
category does: argmin's first-index rule, so the hits are argmin's.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import PreconditionFailed, StatisticsError
from .similarity import DissimilarityMatrix

_BLOCK = 64  # permutations scored per (B, n, K) one-hot stack; bounds memory
_DRAW_WORDS = 1 << 16  # SplitMix64 outputs per block of rows in draw_orders; bounds memory


@dataclass(frozen=True)
class AttributionResult:
    """Each chunk's mean score to every category, rows in the matrix's chunk
    order; its nearest category is the argmin of its row, and on a tie the
    first index, the lexicographically smallest category, wins."""

    categories: tuple[str, ...]  # sorted
    codes: np.ndarray  # (n,) each chunk's own category index
    means: np.ndarray  # (n, K), leave-one-out in the chunk's own category


@dataclass(frozen=True)
class PermutationBaselines:
    """Observed statistics, add-one p-values and nulls, aligned with
    `attribution.categories`; null column p is permutation p."""

    attribution: AttributionResult  # the observed one, whose hits are tested
    rank_sums: np.ndarray  # (K,)
    rank_sum_p: np.ndarray  # (K,)
    hits: np.ndarray  # (K,)
    attribution_p: np.ndarray  # (K,)
    rank_sum_null: np.ndarray  # (K, permutations)
    hit_null: np.ndarray  # (K, permutations), int32


def rank_pairs(matrix: DissimilarityMatrix) -> np.ndarray:
    """Symmetric (n, n) ranks of all unordered pairs, ascending by score
    (most similar = 1), with a zero diagonal; ties get the average rank.
    A NaN score, which ties with no score, is rejected.

    Scores tie when they agree to 12 significant digits (`format(v, ".12g")`
    read back as a float), so that scores equal but for summation noise tie.
    Rounding is monotone, so the raw sort order also sorts the rounded
    scores, and a run of equal rounded scores is a run of raw neighbours.
    Two scores that round alike differ by at most about 1e-11 of their
    magnitude, so only raw neighbours within the generous bound of 1e-10 of
    the larger magnitude are rounded and compared: the ranks are those of
    rounding every score, ties included.
    """
    if len(matrix.chunk_ids) < 2:
        raise PreconditionFailed("need at least 2 chunks")
    n = len(matrix.chunk_ids)
    upper = np.triu_indices(n, 1)
    values = matrix.scores[upper]
    if np.isnan(values).any():
        raise PreconditionFailed("pair scores must not be NaN")
    order = np.argsort(values)
    ordered = values[order]
    lo, hi = ordered[:-1], ordered[1:]
    new_run = hi != lo
    # unequal neighbours only: inf - inf is NaN
    near = np.flatnonzero(new_run)
    near = near[hi[near] - lo[near] <= 1e-10 * np.maximum(abs(lo[near]), abs(hi[near]))]
    at = np.zeros(len(ordered), bool)
    at[near] = at[near + 1] = True
    ordered[at] = [float(format(v, ".12g")) for v in ordered[at].tolist()]
    new_run[near] = ordered[near + 1] != ordered[near]
    first = np.flatnonzero(np.concatenate(([True], new_run)))
    cnt = np.diff(first, append=len(order))
    # a run shares the mean of ranks first+1 ... first+cnt, a multiple of 0.5, hence exact
    rank_matrix = np.zeros((n, n))
    rank_matrix[upper[0][order], upper[1][order]] = np.repeat(first + (cnt + 1) / 2, cnt)
    return rank_matrix + rank_matrix.T


def _encode(ids: Sequence[str], labels: Mapping[str, str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted categories and the category index of each of the chunks `ids`;
    every category needs at least two chunks."""
    index = {name: k for k, name in enumerate(sorted({labels[i] for i in ids}))}
    codes = np.array([index[labels[i]] for i in ids], np.intp)
    small = np.flatnonzero(np.bincount(codes) < 2)
    if small.size:
        raise StatisticsError(f"category {list(index)[small[0]]!r} has 1 chunk(s)")
    return tuple(index), codes


def attribute_chunks(
    matrix: DissimilarityMatrix, labels: Mapping[str, str]
) -> AttributionResult:
    """Mean score from each chunk to each category, leave-one-out in its own.
    Scores must be finite: an infinite one makes NaN means, as inf * 0
    enters the one-hot product."""
    if not np.isfinite(matrix.scores).all():
        raise PreconditionFailed("pair scores must be finite")
    categories, codes = _encode(matrix.chunk_ids, labels)
    onehot = np.eye(len(categories))[codes]
    # leave-one-out for the chunk's own category: its zero self-distance is excluded
    means = matrix.scores @ onehot / (onehot.sum(axis=0) - onehot)
    return AttributionResult(categories, codes, means)


def draw_orders(n: int, permutations: int, seed: int) -> np.ndarray:
    """(permutations, n) array in the smallest dtype holding n: row p is the
    ascending order of outputs p*n ... p*n+n-1 of the SplitMix64 stream
    (Steele, Lea & Flood, 2014) seeded with `seed` in [0, 2**64). The outputs
    are distinct, so the order is unique: the finalizer is a bijection and
    the row's counters are distinct. Row p therefore depends only on
    (seed, p, n), not on the sort algorithm, and NumPy's default argsort
    gives it. Rows are drawn in blocks of about `_DRAW_WORDS`
    outputs to bound the temporaries; the result does not depend on the
    block size."""
    if not 0 <= seed < 2**64:
        raise PreconditionFailed(f"seed must lie in [0, 2**64), got {seed}")
    orders = np.empty((permutations, n), dtype=np.min_scalar_type(n))
    step = max(1, _DRAW_WORDS // max(n, 1))
    for start in range(0, permutations, step):
        rows = orders[start : start + step]
        # output k is counter k+1
        z = np.arange(start * n + 1, start * n + rows.size + 1, dtype=np.uint64)
        z *= np.uint64(0x9E3779B97F4A7C15)
        z += np.uint64(seed)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        rows[:] = np.argsort(z.reshape(rows.shape))
    return orders


def permutation_baselines(
    matrix: DissimilarityMatrix, labels: Mapping[str, str], orders: np.ndarray
) -> PermutationBaselines:
    """One-sided permutation p-values of both statistics for every category.

    Permutation p reorders the chunks' labels by row p of `orders`, a
    (permutations, n) array over the matrix's chunk order, such as
    `draw_orders(n, permutations, seed)`; every row must be a permutation
    of range(n). Each order scores the rank-sum (small = homogeneous) and
    the attribution hit count (large = homogeneous) of all categories. The
    observed rank-sums sum the same pair ranks unshuffled, and the observed
    hits are those of `attribute_chunks`, returned as `attribution`. A
    shuffle's hits are the chunks whose own leave-one-out mean is the
    minimum of their column of category-major means and, on a tie, the
    first category there, as `argmin` would pick it.
    p-values use the add-one estimator, so none is below 1/(permutations+1).
    Every result is an array over the sorted categories; `experiment` lays
    them out as report records.
    """
    rank_matrix = rank_pairs(matrix)
    attribution = attribute_chunks(matrix, labels)
    codes = attribution.codes
    n, k = attribution.means.shape
    onehot = np.eye(k)[codes]
    if orders.ndim != 2 or len(orders) < 1 or orders.shape[1] != n:
        raise PreconditionFailed(
            f"orders have shape {orders.shape}, need (permutations >= 1, {n})"
        )
    if not np.issubdtype(orders.dtype, np.integer):
        raise PreconditionFailed(f"orders must be integers, got {orders.dtype}")
    not_permutations = f"every row of orders must be a permutation of range({n})"
    permutations = len(orders)
    sizes = onehot.sum(axis=0)
    # the within-category pairs (first < second), grouped by category
    by_category = np.argsort(codes, kind="stable")
    i, j = np.triu_indices(n, 1)
    within = codes[by_category[i]] == codes[by_category[j]]
    first, second = by_category[i[within]], by_category[j[within]]
    pair_counts = sizes * (sizes - 1) / 2
    starts = (np.cumsum(pair_counts) - pair_counts).astype(np.intp)
    flat_ranks = rank_matrix.ravel()
    # reused by every block: freshly allocated (B, n, K) temporaries can go
    # back to the OS on each free and be page-faulted in again on the next block
    stack_buffer, means_buffer = np.empty((2, _BLOCK, n, k))

    def score(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(K, B) rank-sums and hit counts under a (B, n) block of orders."""
        rows = np.arange(len(block))[:, None]
        if block.min() < 0 or block.max() >= n:
            raise PreconditionFailed(not_permutations)
        inv = np.full(block.shape, n)
        inv[rows, block] = np.arange(n)  # shuffle p puts chunk a at position inv[p, a]
        if inv.max() == n:  # a chunk missing from a row, so another one repeats
            raise PreconditionFailed(not_permutations)
        # ranks are multiples of 0.5, so these sums are exact in any order
        ranks = flat_ranks[inv[:, first] * n + inv[:, second]]
        rank_sums = np.add.reduceat(ranks, starts, axis=1)
        # position i of shuffle p carries the label of chunk block[p, i]
        own = codes[block].ravel()
        # "clip" never clips here, as the range is checked above; "raise" would buffer `out`
        stack = np.take(onehot, block, axis=0, out=stack_buffer[: len(block)], mode="clip")
        means = np.matmul(matrix.scores, stack, out=means_buffer[: len(block)])
        # the product has read the stack, so its buffer takes the quotients
        # category-major: row c, column p*n + i is the mean from the chunk at
        # position i of shuffle p to category c
        at = np.arange(own.size)
        major = stack_buffer.reshape(-1)[: k * at.size].reshape(k, at.size)
        np.divide(means.transpose(2, 0, 1), sizes[:, None, None], out=major.reshape(k, -1, n))
        # leave-one-out in the own category only: x / (s - 0.0) == x / s
        # exactly, so these are the bits of dividing by sizes - stack
        own_means = means.reshape(-1)[at * k + own] / (sizes - 1)[own]
        major.reshape(-1)[own * at.size + at] = own_means
        # a hit has its own category at the column's minimum and, as argmin
        # rules a tie, first among the categories there
        low = np.minimum.reduce(major, axis=0)
        hit = np.flatnonzero(own_means == low)
        hit = hit[(major[:, hit] == low[hit]).argmax(axis=0) == own[hit]]
        hits = np.bincount(hit // n * k + own[hit], minlength=len(block) * k)
        return rank_sums.T, hits.reshape(-1, k).T

    rank_null = np.empty((k, permutations))
    hit_null = np.empty((k, permutations), dtype=np.int32)  # counts, in half of float64's space
    for start in range(0, permutations, _BLOCK):
        block = slice(start, start + _BLOCK)
        rank_null[:, block], hit_null[:, block] = score(orders[block])
    rank_sums = np.add.reduceat(flat_ranks[first * n + second], starts)
    hits = np.bincount(codes[attribution.means.argmin(axis=1) == codes], minlength=k)
    return PermutationBaselines(
        attribution=attribution,
        rank_sums=rank_sums,
        rank_sum_p=(1 + (rank_null <= rank_sums[:, None]).sum(axis=1)) / (permutations + 1),
        hits=hits,
        attribution_p=(1 + (hit_null >= hits[:, None]).sum(axis=1)) / (permutations + 1),
        rank_sum_null=rank_null,
        hit_null=hit_null,
    )
