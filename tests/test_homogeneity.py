import itertools
import math

import numpy as np
import pytest
from scipy.stats import rankdata

from dramastyle import (
    DegenerateCategory,
    DissimilarityMatrix,
    attribute_chunks,
    attribution_baseline,
    rank_pairs,
    rank_sum_baseline,
    within_category_rank_sum,
)


def make_matrix(ids, pair_scores):
    """Build a symmetric matrix from {(id_a, id_b): score}."""
    ids = tuple(sorted(ids))
    n = len(ids)
    scores = np.zeros((n, n))
    for (a, b), s in pair_scores.items():
        i, j = ids.index(a), ids.index(b)
        scores[i, j] = scores[j, i] = s
    return DissimilarityMatrix(chunk_ids=ids, scores=scores)


def four_chunk_matrix(scores6):
    """4 chunks x1,x2,y1,y2; six pair scores in canonical pair order."""
    ids = ("x1", "x2", "y1", "y2")
    pairs = list(itertools.combinations(ids, 2))
    return make_matrix(ids, dict(zip(pairs, scores6)))


# the two within-pairs (x1,x2) and (y1,y2) get the two smallest distances
SEPARATED = four_chunk_matrix(
    {("x1", "x2"): 0.1, ("x1", "y1"): 0.9, ("x1", "y2"): 0.8,
     ("x2", "y1"): 0.7, ("x2", "y2"): 0.6, ("y1", "y2"): 0.2}.values()
)
LABELS4 = {"x1": "x", "x2": "x", "y1": "y", "y2": "y"}


def enumerate_rank_sum_p(ranked, labels, category):
    """Oracle: exhaustive label arrangements, same statistic."""
    label_list = [labels[cid] for cid in ranked.chunk_ids]
    observed = within_category_rank_sum(ranked, labels, category)
    arrangements = sorted(set(itertools.permutations(label_list)))
    hits = 0
    for arr in arrangements:
        members = [i for i, lab in enumerate(arr) if lab == category]
        stat = ranked.rank_matrix[np.ix_(members, members)].sum() / 2
        if stat <= observed:
            hits += 1
    return hits / len(arrangements)


class TestRankPairs:
    def test_distinct_scores_yield_permutation(self):
        ranked = rank_pairs(SEPARATED)
        assert sorted(ranked.ranks) == [1, 2, 3, 4, 5, 6]

    def test_all_ties_average(self):
        m = four_chunk_matrix([0.5] * 6)
        ranked = rank_pairs(m)
        assert list(ranked.ranks) == [3.5] * 6
        assert ranked.ranks.sum() == 21

    def test_partial_ties(self):
        ids = ("a", "b", "c", "d")
        # choose pair scores so the sorted multiset is [0.1, 0.3, 0.3, 0.9, 1.0, 1.1]
        m = make_matrix(ids, {
            ("a", "b"): 0.1, ("a", "c"): 0.3, ("a", "d"): 0.3,
            ("b", "c"): 0.9, ("b", "d"): 1.0, ("c", "d"): 1.1,
        })
        ranked = rank_pairs(m)
        assert list(ranked.ranks[:4]) == [1, 2.5, 2.5, 4]

    @pytest.mark.parametrize("n", [2, 5, 17, 40])
    def test_matches_pairwise_loop_with_ties(self, n):
        rng = np.random.default_rng(n)
        ids = tuple(f"c{i:02d}" for i in range(n))
        pairs = list(itertools.combinations(ids, 2))
        m = make_matrix(ids, dict(zip(pairs, rng.integers(0, 4, len(pairs)) / 4)))
        ranked = rank_pairs(m)
        expected = rankdata([m.scores[ids.index(a), ids.index(b)] for a, b in pairs])
        assert np.array_equal(ranked.ranks, expected)
        for k, (a, b) in enumerate(pairs):
            i, j = ids.index(a), ids.index(b)
            assert ranked.rank_matrix[i, j] == ranked.rank_matrix[j, i] == expected[k]
        assert not ranked.rank_matrix.diagonal().any()

    def test_rank_sum_total_invariant(self):
        ranked = rank_pairs(SEPARATED)
        p = len(ranked.ranks)
        assert ranked.ranks.sum() == p * (p + 1) / 2


class TestWithinCategoryRankSum:
    def test_minimal_configuration(self):
        ranked = rank_pairs(SEPARATED)
        # ranks: (x1,x2)=1, (y1,y2)=2; combined across both categories = 3
        assert within_category_rank_sum(ranked, LABELS4, "x") == 1
        assert within_category_rank_sum(ranked, LABELS4, "y") == 2

    def test_all_equal_distances(self):
        ranked = rank_pairs(four_chunk_matrix([0.5] * 6))
        assert within_category_rank_sum(ranked, LABELS4, "x") == 3.5

    def test_single_chunk_category_rejected(self):
        ranked = rank_pairs(SEPARATED)
        labels = {"x1": "x", "x2": "x", "y1": "y", "y2": "z"}
        with pytest.raises(DegenerateCategory):
            within_category_rank_sum(ranked, labels, "z")

    def test_invariant_under_monotone_transform(self):
        ranked = rank_pairs(SEPARATED)
        transformed = DissimilarityMatrix(
            SEPARATED.chunk_ids, np.where(SEPARATED.scores > 0, np.exp(SEPARATED.scores * 3), 0.0)
        )
        ranked_t = rank_pairs(transformed)
        for cat in ("x", "y"):
            assert within_category_rank_sum(ranked, LABELS4, cat) == (
                within_category_rank_sum(ranked_t, LABELS4, cat)
            )

    def test_bounds(self):
        rng = np.random.default_rng(3)
        ids = tuple(f"c{i}" for i in range(8))
        n = len(ids)
        scores = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        vals = rng.random(len(iu[0]))
        scores[iu] = vals
        scores = scores + scores.T
        m = DissimilarityMatrix(tuple(sorted(ids)), scores)
        labels = {cid: ("a" if i < 4 else "b") for i, cid in enumerate(m.chunk_ids)}
        ranked = rank_pairs(m)
        k = 4
        within = k * (k - 1) // 2
        total_pairs = n * (n - 1) // 2
        lo = within * (within + 1) / 2
        hi = sum(range(total_pairs - within + 1, total_pairs + 1))
        observed = within_category_rank_sum(ranked, labels, "a")
        assert lo <= observed <= hi


class TestRankSumBaseline:
    def test_all_equal_distances_give_p_one(self):
        ranked = rank_pairs(four_chunk_matrix([0.5] * 6))
        p, _ = rank_sum_baseline(ranked, LABELS4, "x", permutations=200, seed=1)
        assert p == 1.0

    def test_single_permutation_p_values(self):
        ranked = rank_pairs(SEPARATED)
        p, _ = rank_sum_baseline(ranked, LABELS4, "x", permutations=1, seed=0)
        assert p in (0.5, 1.0)

    def test_reproducible(self):
        ranked = rank_pairs(SEPARATED)
        a = rank_sum_baseline(ranked, LABELS4, "x", permutations=500, seed=42)
        b = rank_sum_baseline(ranked, LABELS4, "x", permutations=500, seed=42)
        assert a == b

    def test_p_floor(self):
        ranked = rank_pairs(SEPARATED)
        p, _ = rank_sum_baseline(ranked, LABELS4, "x", permutations=100, seed=9)
        assert p >= 1 / 101

    def test_converges_to_enumeration(self):
        ranked = rank_pairs(SEPARATED)
        exact = enumerate_rank_sum_p(ranked, LABELS4, "x")
        p, _ = rank_sum_baseline(ranked, LABELS4, "x", permutations=10000, seed=42)
        se = math.sqrt(exact * (1 - exact) / 10000)
        assert abs(p - exact) <= 3 * se + 1 / 10001

    def test_converges_on_six_chunks(self):
        rng = np.random.default_rng(11)
        ids = tuple(f"c{i}" for i in range(6))
        scores = np.zeros((6, 6))
        iu = np.triu_indices(6, 1)
        scores[iu] = rng.random(len(iu[0]))
        scores = scores + scores.T
        m = DissimilarityMatrix(ids, scores)
        labels = {cid: ("a" if i % 2 == 0 else "b") for i, cid in enumerate(ids)}
        ranked = rank_pairs(m)
        exact = enumerate_rank_sum_p(ranked, labels, "a")
        p, _ = rank_sum_baseline(ranked, labels, "a", permutations=10000, seed=7)
        se = math.sqrt(exact * (1 - exact) / 10000)
        assert abs(p - exact) <= 3 * se + 1 / 10001


class TestAttribution:
    def test_perfect_separation_hits_all(self):
        result = attribute_chunks(SEPARATED, LABELS4)
        assert result.hits == {"x": 2, "y": 2}
        assert result.totals == {"x": 2, "y": 2}

    def test_chunk_closer_to_other_category(self):
        m = four_chunk_matrix(
            {("x1", "x2"): 0.9, ("x1", "y1"): 0.1, ("x1", "y2"): 0.1,
             ("x2", "y1"): 0.8, ("x2", "y2"): 0.8, ("y1", "y2"): 0.2}.values()
        )
        result = attribute_chunks(m, LABELS4)
        x1 = next(r for r in result.per_chunk if r["chunk_id"] == "x1")
        assert x1["attributed_category"] == "y"
        assert not x1["hit"]

    def test_all_equal_attributes_to_lexicographically_smallest(self):
        m = four_chunk_matrix([0.5] * 6)
        result = attribute_chunks(m, LABELS4)
        assert all(r["attributed_category"] == "x" for r in result.per_chunk)
        assert len(result.ties) == 4

    def test_relabeling_invariance(self):
        renamed_ids = ("k1", "k2", "m1", "m2")
        m2 = DissimilarityMatrix(renamed_ids, SEPARATED.scores.copy())
        labels2 = {"k1": "x", "k2": "x", "m1": "y", "m2": "y"}
        assert attribute_chunks(m2, labels2).hits == attribute_chunks(SEPARATED, LABELS4).hits

    def test_degenerate_category(self):
        with pytest.raises(DegenerateCategory):
            attribute_chunks(SEPARATED, {"x1": "x", "x2": "x", "y1": "y", "y2": "z"})


class TestAttributionBaseline:
    def test_all_equal_distances_give_p_one(self):
        m = four_chunk_matrix([0.5] * 6)
        p_values, _ = attribution_baseline(m, LABELS4, permutations=200, seed=3)
        assert p_values == {"x": 1.0, "y": 1.0}

    def test_single_permutation_tied_statistic(self):
        m = four_chunk_matrix([0.5] * 6)
        p_values, _ = attribution_baseline(m, LABELS4, permutations=1, seed=3)
        assert p_values["x"] == 1.0

    def test_reproducible(self):
        a = attribution_baseline(SEPARATED, LABELS4, permutations=500, seed=42)
        b = attribution_baseline(SEPARATED, LABELS4, permutations=500, seed=42)
        assert a == b

    def test_separated_categories_are_significant(self):
        # with 4 chunks the complement labeling ties the hit count, so the
        # smallest reachable p is about 2 * (1/3)
        p_values, _ = attribution_baseline(SEPARATED, LABELS4, permutations=3000, seed=5)
        assert p_values["x"] < 1.0
