import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2, rankdata

from dramastyle import homogeneity
from dramastyle import (
    DissimilarityMatrix,
    PreconditionFailed,
    StatisticsError,
    attribute_chunks,
    draw_orders,
    permutation_baselines,
    rank_pairs,
)
from dramastyle import experiment, load_config
from dramastyle.experiment import _mode_section
from dramastyle.tokenization import TokenizationMode, _first_of_runs


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


def upper_ranks(matrix):
    """Ranks of the pairs i < j in row-major order."""
    return rank_pairs(matrix)[np.triu_indices(len(matrix.chunk_ids), 1)]


def by_category(result, field):
    """A (K,) array field of a PermutationBaselines as {category: value}."""
    return dict(zip(result.attribution.categories, getattr(result, field).tolist()))


def hits_of(result):
    """{category: chunks whose nearest category is their own} of an AttributionResult."""
    hit = result.means.argmin(axis=1) == result.codes
    counts = np.bincount(result.codes[hit], minlength=len(result.categories))
    return dict(zip(result.categories, counts.tolist()))


def assert_same_fields(a, b):
    """Array fields break dataclass ==: compare field by field, arrays exactly."""
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if dataclasses.is_dataclass(x):
            assert_same_fields(x, y)
        elif isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


def observed_rank_sum(matrix, labels, category):
    """The engine's observed within-category rank-sum of `category`."""
    orders = draw_orders(len(matrix.chunk_ids), 1, 0)
    return by_category(permutation_baselines(matrix, labels, orders), "rank_sums")[category]


def enumerate_rank_sum_p(matrix, labels, category):
    """Oracle: exhaustive label arrangements, same statistic."""
    rank_matrix = rank_pairs(matrix)
    label_list = [labels[cid] for cid in matrix.chunk_ids]

    def stat(arrangement):
        members = [i for i, lab in enumerate(arrangement) if lab == category]
        return rank_matrix[np.ix_(members, members)].sum() / 2

    observed = stat(label_list)
    arrangements = sorted(set(itertools.permutations(label_list)))
    hits = sum(stat(arr) <= observed for arr in arrangements)
    return hits / len(arrangements)


def rank_pairs_rounding_every_score(matrix):
    """The reference: rank_pairs with one `format(v, ".12g")` per pair score."""
    n = len(matrix.chunk_ids)
    upper = np.triu_indices(n, 1)
    rounded = np.array([float(format(v, ".12g")) for v in matrix.scores[upper].tolist()])
    order = np.argsort(rounded)
    first = _first_of_runs(rounded[order])
    cnt = np.diff(first, append=len(order))
    rank_matrix = np.zeros((n, n))
    rank_matrix[upper[0][order], upper[1][order]] = np.repeat(first + (cnt + 1) / 2, cnt)
    return rank_matrix + rank_matrix.T


def ulps(x, k):
    """`x` moved k floats up (k < 0: down)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
    return float(x)


def rounds(v):
    return float(format(v, ".12g"))


def near_tie_groups():
    """Named groups of neighbouring scores, the cases rank_pairs rounds."""
    rng = np.random.default_rng(0)
    groups = {f"ulp {v!r}": [v, ulps(v, 1), ulps(v, -1)]
              for v in (rng.random(6) * 10.0 ** rng.integers(-5, 6, 6)).tolist()}
    # both sides of 12-digit half-way points
    groups.update({f"half {half}": [ulps(float(half), k) for k in (-3, -1, 0, 1, 3)]
                   for half in ("1.234567890125", "0.5000000000005", "31.41592653585",
                                "7.000000000015e-8", "123456.7890125")})
    # the two edges of one rounding bucket, about 8e-12 relative apart
    groups["bucket"] = [ulps(float("1.234567890115"), 2), ulps(float("1.234567890125"), -2)]
    # across a decade: the first two round to 10, the third to 9.99999999999
    groups["decade"] = [9.9999999999951, 10.0000000000004, 9.9999999999949]
    groups["zeros"] = [0.0, -0.0]
    # the smallest subnormals are far apart; near 1e-310 they are spaced finer than 12 digits
    groups["subnormal"] = [5e-324, 1e-323]
    groups["subnormal 1e-310"] = [1e-310, ulps(1e-310, 1)]
    # a chain of one-ulp neighbours, all in one rounding bucket
    groups["chain"] = [ulps(2.0 / 3.0, k) for k in range(-4, 5)]
    groups["infinite"] = [math.inf, math.inf, 1.7976931348623157e308]
    return groups


def matrix_of(values):
    """The smallest matrix whose upper triangle, row-major, starts with
    `values`; the remaining pairs repeat the values cyclically. Both
    triangles are set, so -0.0 stays -0.0."""
    n = 2
    while n * (n - 1) // 2 < len(values):
        n += 1
    upper = np.triu_indices(n, 1)
    pair_values = np.resize(np.asarray(values, float), len(upper[0]))
    scores = np.zeros((n, n))
    scores[upper] = scores.T[upper] = pair_values
    return DissimilarityMatrix(tuple(f"c{i:02d}" for i in range(n)), scores)


class TestRankPairs:
    def test_distinct_scores_yield_permutation(self):
        assert sorted(upper_ranks(SEPARATED)) == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("value", [0.5, 0.0, -0.0, 5e-324, 1e300])
    def test_all_ties_average(self, value):
        m = matrix_of([value] * 6)
        ranks = upper_ranks(m)
        assert list(ranks) == [3.5] * 6
        assert ranks.sum() == 21

    def test_partial_ties(self):
        ids = ("a", "b", "c", "d")
        # choose pair scores so the sorted multiset is [0.1, 0.3, 0.3, 0.9, 1.0, 1.1]
        m = make_matrix(ids, {
            ("a", "b"): 0.1, ("a", "c"): 0.3, ("a", "d"): 0.3,
            ("b", "c"): 0.9, ("b", "d"): 1.0, ("c", "d"): 1.1,
        })
        assert list(upper_ranks(m)[:4]) == [1, 2.5, 2.5, 4]

    @pytest.mark.parametrize("n", [2, 5, 17, 40])
    def test_matches_pairwise_loop_with_ties(self, n):
        rng = np.random.default_rng(n)
        ids = tuple(f"c{i:02d}" for i in range(n))
        pairs = list(itertools.combinations(ids, 2))
        m = make_matrix(ids, dict(zip(pairs, rng.integers(0, 4, len(pairs)) / 4)))
        rank_matrix = rank_pairs(m)
        ranks = rank_matrix[np.triu_indices(n, 1)]
        expected = rankdata([m.scores[ids.index(a), ids.index(b)] for a, b in pairs])
        assert np.array_equal(ranks, expected)
        assert ranks.dtype == expected.dtype
        for k, (a, b) in enumerate(pairs):
            i, j = ids.index(a), ids.index(b)
            assert rank_matrix[i, j] == rank_matrix[j, i] == expected[k]
        assert not rank_matrix.diagonal().any()

    @pytest.mark.parametrize("seed", range(5))
    def test_last_bit_noise_does_not_change_ranks(self, seed):
        rng = np.random.default_rng(seed)
        n = 20
        ids = tuple(f"c{i:02d}" for i in range(n))
        pairs = list(itertools.combinations(ids, 2))
        values = rng.integers(1, 6, len(pairs)) / 3  # many ties
        m = make_matrix(ids, dict(zip(pairs, values)))
        nudged_values = values.copy()
        nudge = rng.random(len(values)) < 0.5
        direction = np.where(rng.random(len(values)) < 0.5, -np.inf, np.inf)
        nudged_values[nudge] = np.nextafter(values[nudge], direction[nudge])
        assert not np.array_equal(nudged_values, values)
        nudged = make_matrix(ids, dict(zip(pairs, nudged_values)))
        assert np.array_equal(upper_ranks(nudged), upper_ranks(m))

    def test_one_ties_with_its_predecessor(self):
        m = four_chunk_matrix([0.5, 1.0, 0.9999999999999999, 2.0, 0.25, 3.0])
        assert list(upper_ranks(m)) == [2, 3.5, 3.5, 5, 1, 6]

    def test_nan_score_rejected(self):
        # NaN equals no score, not even a NaN, so it would fall out of every tie
        m = four_chunk_matrix([0.5, np.nan, 0.5, 1.0, 0.25, np.nan])
        with pytest.raises(PreconditionFailed, match="NaN"):
            rank_pairs(m)
        # the engine ranks first, so its NaN message is rank_pairs'
        with pytest.raises(PreconditionFailed, match="NaN"):
            permutation_baselines(m, LABELS4, draw_orders(4, 10, 0))

    def test_near_tie_cases_are_what_they_claim(self):
        groups = near_tie_groups()
        distinct = {name: len({rounds(v) for v in group}) for name, group in groups.items()}
        assert all(distinct[name] == 1 for name in groups if name.startswith("ulp"))
        assert all(distinct[name] == 2 for name in groups if name.startswith("half"))
        low, high = groups["bucket"]
        assert rounds(low) == rounds(high) and high - low > 5e-12 * high
        assert [rounds(v) for v in groups["decade"]] == [10.0, 10.0, 9.99999999999]
        assert [distinct[name] for name in (
            "zeros", "subnormal", "subnormal 1e-310", "chain", "infinite")] == [1, 2, 1, 1, 2]

    @pytest.mark.parametrize("seed", range(8))
    def test_near_ties_rank_as_rounding_every_score(self, seed):
        rng = np.random.default_rng(seed)
        values = [v for group in near_tie_groups().values() for v in group]
        values += (rng.random(20) * 10.0 ** rng.integers(-8, 8, 20)).tolist()
        m = matrix_of(rng.permutation(values))
        got = rank_pairs(m)
        assert np.array_equal(got, rank_pairs_rounding_every_score(m))
        upper = np.triu_indices(len(m.chunk_ids), 1)
        # not vacuous: near ties share ranks their raw scores do not
        assert len(set(got[upper].tolist())) < len(set(m.scores[upper].tolist()))

    def test_rounds_near_ties_only(self, configs_dir, monkeypatch):
        # one Python format call per pair score was the engine's largest
        # Python-level cost: only scores with a near-tie neighbour are rounded
        rounded = []

        def counting(value, spec):
            rounded.append(value)
            return format(value, spec)

        monkeypatch.setattr(homogeneity, "format", counting, raising=False)
        for m in (SEPARATED, matrix_of(np.random.default_rng(0).random(780))):
            rank_pairs(m)
        assert rounded == []
        near_tie_scores = 0
        for name in ("synthetic_two_category", "synthetic_translations"):
            config = load_config(configs_dir / f"{name}.json")
            chunks = experiment._chunk_corpus(config, {})[0]
            for spec in config.modes:
                m = experiment.chunk_matrix(chunks, TokenizationMode.parse(spec))[0]
                ordered = np.sort(m.scores[np.triu_indices(len(m.chunk_ids), 1)])
                gap = np.diff(ordered)
                near = (gap > 0) & (gap <= 1e-10 * ordered[1:])
                # the scores with a near-tie neighbour
                allowed = np.count_nonzero(np.r_[near, False] | np.r_[False, near])
                rounded.clear()
                assert np.array_equal(rank_pairs(m), rank_pairs_rounding_every_score(m))
                assert len(rounded) <= allowed
                near_tie_scores += allowed
        assert near_tie_scores > 0  # synthetic_two_category's word_unigram has some

    def test_rank_sum_total_invariant(self):
        ranks = upper_ranks(SEPARATED)
        p = len(ranks)
        assert ranks.sum() == p * (p + 1) / 2


class TestWithinCategoryRankSum:
    def test_minimal_configuration(self):
        # ranks: (x1,x2)=1, (y1,y2)=2; combined across both categories = 3
        assert observed_rank_sum(SEPARATED, LABELS4, "x") == 1
        assert observed_rank_sum(SEPARATED, LABELS4, "y") == 2

    def test_all_equal_distances(self):
        assert observed_rank_sum(four_chunk_matrix([0.5] * 6), LABELS4, "x") == 3.5

    def test_single_chunk_category_rejected(self):
        labels = {"x1": "x", "x2": "x", "y1": "y", "y2": "z"}
        with pytest.raises(StatisticsError, match=r"^category 'y' has 1 chunk\(s\)$"):
            permutation_baselines(SEPARATED, labels, draw_orders(4, 1, 0))

    def test_invariant_under_monotone_transform(self):
        transformed = DissimilarityMatrix(
            SEPARATED.chunk_ids, np.where(SEPARATED.scores > 0, np.exp(SEPARATED.scores * 3), 0.0)
        )
        for cat in ("x", "y"):
            assert observed_rank_sum(SEPARATED, LABELS4, cat) == (
                observed_rank_sum(transformed, LABELS4, cat)
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
        k = 4
        within = k * (k - 1) // 2
        total_pairs = n * (n - 1) // 2
        lo = within * (within + 1) / 2
        hi = sum(range(total_pairs - within + 1, total_pairs + 1))
        observed = observed_rank_sum(m, labels, "a")
        assert lo <= observed <= hi


class TestRankSumBaseline:
    def test_all_equal_distances_give_p_one(self):
        m = four_chunk_matrix([0.5] * 6)
        p = by_category(permutation_baselines(m, LABELS4, draw_orders(4, 200, 1)), "rank_sum_p")
        assert p["x"] == 1.0

    def test_single_permutation_p_values(self):
        result = permutation_baselines(SEPARATED, LABELS4, draw_orders(4, 1, 0))
        assert by_category(result, "rank_sum_p")["x"] in (0.5, 1.0)

    def test_reproducible(self):
        a = permutation_baselines(SEPARATED, LABELS4, draw_orders(4, 500, 42))
        b = permutation_baselines(SEPARATED, LABELS4, draw_orders(4, 500, 42))
        assert_same_fields(a, b)

    def test_p_floor(self):
        result = permutation_baselines(SEPARATED, LABELS4, draw_orders(4, 100, 9))
        assert by_category(result, "rank_sum_p")["x"] >= 1 / 101

    def test_converges_to_enumeration(self):
        exact = enumerate_rank_sum_p(SEPARATED, LABELS4, "x")
        result = permutation_baselines(SEPARATED, LABELS4, draw_orders(4, 10000, 42))
        p = by_category(result, "rank_sum_p")["x"]
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
        exact = enumerate_rank_sum_p(m, labels, "a")
        p = by_category(permutation_baselines(m, labels, draw_orders(6, 10000, 7)), "rank_sum_p")["a"]
        se = math.sqrt(exact * (1 - exact) / 10000)
        assert abs(p - exact) <= 3 * se + 1 / 10001


class TestAttribution:
    def test_perfect_separation_hits_all(self):
        result = attribute_chunks(SEPARATED, LABELS4)
        assert result.categories == ("x", "y")
        assert result.codes.tolist() == [0, 0, 1, 1]
        assert hits_of(result) == {"x": 2, "y": 2}

    def test_chunk_closer_to_other_category(self):
        m = four_chunk_matrix(
            {("x1", "x2"): 0.9, ("x1", "y1"): 0.1, ("x1", "y2"): 0.1,
             ("x2", "y1"): 0.8, ("x2", "y2"): 0.8, ("y1", "y2"): 0.2}.values()
        )
        result = attribute_chunks(m, LABELS4)
        assert m.chunk_ids[0] == "x1" and result.categories[result.codes[0]] == "x"
        assert result.categories[result.means[0].argmin()] == "y"

    def test_all_equal_attributes_to_lexicographically_smallest(self):
        m = four_chunk_matrix([0.5] * 6)
        section = _mode_section(
            m.chunk_ids, permutation_baselines(m, LABELS4, draw_orders(4, 1, 0))
        )
        assert all(r["attributed_category"] == "x" for r in section["attribution"])

    def test_relabeling_invariance(self):
        renamed_ids = ("k1", "k2", "m1", "m2")
        m2 = DissimilarityMatrix(renamed_ids, SEPARATED.scores.copy())
        labels2 = {"k1": "x", "k2": "x", "m1": "y", "m2": "y"}
        assert_same_fields(attribute_chunks(m2, labels2), attribute_chunks(SEPARATED, LABELS4))

    def test_degenerate_category(self):
        with pytest.raises(StatisticsError, match=r"^category 'y' has 1 chunk\(s\)$"):
            attribute_chunks(SEPARATED, {"x1": "x", "x2": "x", "y1": "y", "y2": "z"})

    @pytest.mark.parametrize("score", [np.inf, -np.inf], ids=["inf", "-inf"])
    def test_infinite_score_rejected(self, score):
        # inf * 0 in the one-hot product would make NaN means
        scores = SEPARATED.scores.copy()
        scores[0, 2] = scores[2, 0] = score
        m = DissimilarityMatrix(SEPARATED.chunk_ids, scores)
        with pytest.raises(PreconditionFailed, match="pair scores must be finite"):
            attribute_chunks(m, LABELS4)
        with pytest.raises(PreconditionFailed, match="pair scores must be finite"):
            permutation_baselines(m, LABELS4, draw_orders(4, 10, 0))


class TestAttributionBaseline:
    def test_all_equal_distances_give_p_one(self):
        m = four_chunk_matrix([0.5] * 6)
        result = permutation_baselines(m, LABELS4, draw_orders(4, 200, 3))
        assert by_category(result, "attribution_p") == {"x": 1.0, "y": 1.0}

    def test_single_permutation_tied_statistic(self):
        m = four_chunk_matrix([0.5] * 6)
        result = permutation_baselines(m, LABELS4, draw_orders(4, 1, 3))
        assert by_category(result, "attribution_p")["x"] == 1.0

    def test_reproducible(self):
        a = permutation_baselines(SEPARATED, LABELS4, draw_orders(4, 500, 42))
        b = permutation_baselines(SEPARATED, LABELS4, draw_orders(4, 500, 42))
        assert_same_fields(a, b)

    def test_separated_categories_are_significant(self):
        # with 4 chunks the complement labeling ties the hit count, so the
        # smallest reachable p is about 2 * (1/3)
        result = permutation_baselines(SEPARATED, LABELS4, draw_orders(4, 3000, 5))
        assert by_category(result, "attribution_p")["x"] < 1.0


# Reference: the per-permutation loops that permutation_baselines replaced,
# kept verbatim except that permutation p takes its shuffle from orders[p]
# and that each returns its null. The engine must reproduce them bit for bit.


def _shuffled(labels, order):
    """Labels of permutation `order`: position i takes the label of chunk order[i]."""
    return [labels[j] for j in order.tolist()]


def _members(chunk_ids, labels, category):
    idx = [i for i, lab in enumerate(labels) if lab == category]
    if len(idx) < 2:
        raise StatisticsError(f"category {category!r} has {len(idx)} chunk(s)")
    return idx


def _rank_sum(rank_matrix, members):
    sub = rank_matrix[np.ix_(members, members)]
    return float(sub.sum() / 2.0)


def _rank_sum_baseline_loop(matrix, labels, category, orders):
    """One-sided permutation p-value for the rank-sum (small = homogeneous),
    the observed rank-sum, the null summary as report.json gives it, and
    the null."""
    permutations = len(orders)
    if permutations < 1:
        raise PreconditionFailed("permutations must be >= 1")
    rank_matrix = rank_pairs(matrix)
    label_list = [labels[cid] for cid in matrix.chunk_ids]
    observed = _rank_sum(rank_matrix, _members(matrix.chunk_ids, label_list, category))
    rank_rows = rank_matrix.tolist()  # python sums beat fancy indexing here
    null = np.empty(permutations)
    for p in range(permutations):
        shuffled = _shuffled(label_list, orders[p])
        members = [i for i, lab in enumerate(shuffled) if lab == category]
        null[p] = sum(
            rank_rows[i][j] for a, i in enumerate(members) for j in members[a + 1 :]
        )
    p_value = (1 + int((null <= observed).sum())) / (permutations + 1)
    summary = {
        "null_mean": float(null.mean()),
        "null_sd": float(null.std()),
        "null_min": float(null.min()),
        "null_max": float(null.max()),
    }
    return p_value, observed, summary, null


def _category_means_loop(scores, labels, categories):
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


def _attribute_loop(matrix, labels):
    """The per-chunk records, hits and totals of the observed attribution,
    as report.json gives them, and the chunks whose least means tie: each
    chunk goes to the category of least mean; a tie goes to the
    lexicographically smallest one."""
    label_list = [labels[cid] for cid in matrix.chunk_ids]
    categories = sorted(set(label_list))
    means = _category_means_loop(matrix.scores, label_list, categories)
    per_chunk, ties = [], []
    hits = {c: 0 for c in categories}
    totals = {c: 0 for c in categories}
    for i, cid in enumerate(matrix.chunk_ids):
        best = min(range(len(categories)), key=lambda k: (means[i, k], categories[k]))
        if sum(means[i, k] == means[i, best] for k in range(len(categories))) > 1:
            ties.append(cid)
        hit = categories[best] == label_list[i]
        per_chunk.append({"chunk_id": cid, "attributed_category": categories[best]})
        totals[label_list[i]] += 1
        hits[label_list[i]] += hit
    return {"per_chunk": per_chunk, "hits": hits, "totals": totals, "ties": ties}


def _attribution_baseline_loop(matrix, labels, orders):
    """Per-category permutation p for the hit count (large = homogeneous),
    the observed hits, each category's null summary as report.json gives
    it, and the (K, permutations) null."""
    permutations = len(orders)
    if permutations < 1:
        raise PreconditionFailed("permutations must be >= 1")
    label_list = [labels[cid] for cid in matrix.chunk_ids]
    categories = sorted(set(label_list))
    observed = _attribute_loop(matrix, labels)["hits"]
    at_least = {c: 0 for c in categories}
    null_sums = {c: 0.0 for c in categories}
    null = np.empty((len(categories), permutations))
    cat_index = {c: k for k, c in enumerate(categories)}
    for p in range(permutations):
        shuffled = _shuffled(label_list, orders[p])
        means = _category_means_loop(matrix.scores, shuffled, categories)
        best = means.argmin(axis=1)
        null_hits = {c: 0 for c in categories}
        for i, lab in enumerate(shuffled):
            if best[i] == cat_index[lab]:
                null_hits[lab] += 1
        for c in categories:
            null[cat_index[c], p] = null_hits[c]
            null_sums[c] += null_hits[c]
            if null_hits[c] >= observed[c]:
                at_least[c] += 1
    p_values = {c: (1 + at_least[c]) / (permutations + 1) for c in categories}
    summaries = {c: {"null_mean": null_sums[c] / permutations} for c in categories}
    return p_values, observed, summaries, null


def assert_matches_loops(matrix, labels, orders):
    """The engine's arrays equal the reference loops' exactly, nulls whole,
    and the report section laid out from them equals the loops' records."""
    engine = permutation_baselines(matrix, labels, orders)
    categories = sorted(set(labels.values()))
    assert engine.attribution.categories == tuple(categories)
    rank_sums, records = [], []
    for k, c in enumerate(categories):
        p, observed, summary, null = _rank_sum_baseline_loop(matrix, labels, c, orders)
        assert engine.rank_sum_p[k] == p
        assert engine.rank_sums[k] == observed
        assert np.array_equal(engine.rank_sum_null[k], null)
        rank_sums.append(observed)
        records.append(summary)
    attr_p, hits, attr_records, attr_null = _attribution_baseline_loop(matrix, labels, orders)
    assert engine.attribution_p.tolist() == [attr_p[c] for c in categories]
    assert engine.hits.tolist() == [hits[c] for c in categories]
    assert np.array_equal(engine.hit_null, attr_null)
    section = _mode_section(matrix.chunk_ids, engine)
    cats = section["categories"]
    assert json.dumps([(c["category"], c["rank_sum"], c["attribution_hits"]) for c in cats]) == (
        json.dumps([(c, rank_sums[k], hits[c]) for k, c in enumerate(categories)])
    )
    assert json.dumps([c["rank_sum_null"] for c in cats]) == json.dumps(records)
    assert json.dumps([c["attribution_null"] for c in cats]) == json.dumps(
        [attr_records[c] for c in categories]
    )


def random_instance(instance):
    """Unequal categories (2..12 of them), scores rounded so ranks tie."""
    rng = np.random.default_rng(instance)
    ncat = 2 + instance % 11
    sizes = rng.integers(2, 6, ncat)
    label_list = [f"k{c:02d}" for c, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(label_list)
    n = len(label_list)
    ids = tuple(f"c{i:03d}" for i in range(n))
    scores = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    scores[iu] = np.round(rng.random(len(iu[0])), 1 + instance % 3)
    matrix = DissimilarityMatrix(ids, scores + scores.T)
    return matrix, dict(zip(ids, label_list))


def wide_instance(n, ncat, integer_scores):
    """`ncat` categories of unequal sizes (at least 2 each) over n chunks;
    integer scores in 0..9 or scores rounded to 2 decimals."""
    rng = np.random.default_rng(n * 100 + ncat)
    sizes = 2 + np.bincount(rng.integers(0, ncat, n - 2 * ncat), minlength=ncat)
    assert len(set(sizes.tolist())) > 1
    label_list = [f"k{c:02d}" for c, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(label_list)
    ids = tuple(f"c{i:03d}" for i in range(n))
    iu = np.triu_indices(n, 1)
    scores = np.zeros((n, n))
    if integer_scores:
        scores[iu] = rng.integers(0, 10, len(iu[0]))
    else:
        scores[iu] = np.round(rng.random(len(iu[0])), 2)
    return DissimilarityMatrix(ids, scores + scores.T), dict(zip(ids, label_list))


def tie_instance(ncat):
    """`ncat` categories of 3 or 4 chunks, integer scores 1 or 2: many
    attribution means tie."""
    rng = np.random.default_rng(ncat)
    label_list = [f"k{c:02d}" for c in range(ncat) for _ in range(3 + c % 2)]
    rng.shuffle(label_list)
    n = len(label_list)
    ids = tuple(f"c{i:03d}" for i in range(n))
    scores = np.zeros((n, n))
    scores[np.triu_indices(n, 1)] = rng.integers(1, 3, n * (n - 1) // 2)
    return DissimilarityMatrix(ids, scores + scores.T), dict(zip(ids, label_list))


def argmin_hit_null(matrix, labels, orders):
    """(K, permutations) hit counts from a plain argmin per shuffle, and the
    numbers of chunks whose own category ties the minimum with an earlier
    category (a miss) and with only later ones (a hit)."""
    categories = sorted(set(labels.values()))
    codes = np.array([categories.index(labels[cid]) for cid in matrix.chunk_ids])
    k = len(categories)
    null = np.zeros((k, len(orders)), np.int32)
    tie_misses = tie_hits = 0
    for p, order in enumerate(orders):
        own = codes[order]
        onehot = np.eye(k)[own]
        means = matrix.scores @ onehot / (onehot.sum(axis=0) - onehot)
        hit = means.argmin(axis=1) == own
        np.add.at(null[:, p], own[hit], 1)
        at_low = means == means.min(axis=1, keepdims=True)
        tied = at_low[np.arange(len(own)), own] & (at_low.sum(axis=1) > 1)
        tie_misses += int((tied & ~hit).sum())
        tie_hits += int((tied & hit).sum())
    return null, tie_misses, tie_hits


class TestPermutationBaselines:
    @pytest.mark.parametrize("ncat", [2, 17])
    def test_tie_goes_to_the_first_category_at_the_minimum(self, ncat):
        # 65 permutations: one full block and a partial one
        matrix, labels = tie_instance(ncat)
        orders = draw_orders(len(matrix.chunk_ids), 65, seed=ncat)
        null, tie_misses, tie_hits = argmin_hit_null(matrix, labels, orders)
        assert tie_misses > 0 and tie_hits > 0
        engine = permutation_baselines(matrix, labels, orders)
        assert np.array_equal(engine.hit_null, null)
        assert np.array_equal(engine.hit_null, _attribution_baseline_loop(matrix, labels, orders)[3])

    @pytest.mark.parametrize("instance", range(60))
    def test_matches_per_permutation_loops_exactly(self, instance):
        permutations = (1, 63, 64, 65, 300)[instance % 5]
        seed = 1000 + instance
        matrix, labels = random_instance(instance)
        assert_matches_loops(matrix, labels, draw_orders(len(matrix.chunk_ids), permutations, seed))

    @pytest.mark.parametrize(
        "n, ncat, integer_scores",
        [(255, 40, True), (255, 3, False), (256, 40, False), (256, 17, True),
         (300, 40, True), (300, 2, True)],
    )
    def test_matches_loops_across_dtypes_ties_and_many_categories(
        self, n, ncat, integer_scores
    ):
        # n = 255 draws uint8 orders, 256 and 300 draw uint16; integer
        # scores make most attribution means tie
        matrix, labels = wide_instance(n, ncat, integer_scores)
        orders = draw_orders(n, 65, seed=n + ncat)
        assert orders.dtype == (np.uint8 if n < 256 else np.uint16)
        assert_matches_loops(matrix, labels, orders)

    @pytest.mark.parametrize("n, ncat", [(255, 40), (256, 17), (300, 40)])
    def test_section_attribution_and_ties_match_loop(self, n, ncat):
        # integer scores: most chunks' nearest categories tie
        matrix, labels = wide_instance(n, ncat, integer_scores=True)
        engine = permutation_baselines(matrix, labels, draw_orders(n, 3, seed=n))
        section = _mode_section(matrix.chunk_ids, engine)
        reference = _attribute_loop(matrix, labels)
        assert reference["ties"]
        label_list = [labels[cid] for cid in matrix.chunk_ids]
        assert np.array_equal(engine.attribution.means, _category_means_loop(
            matrix.scores, label_list, sorted(set(label_list))
        ))
        assert json.dumps(section["attribution"]) == json.dumps(reference["per_chunk"])
        assert [(c["category"], c["attribution_hits"], c["attribution_total"])
                for c in section["categories"]] == [
            (c, reference["hits"][c], reference["totals"][c]) for c in reference["hits"]
        ]

    @pytest.mark.parametrize("instance", [0, 8, 9, 10])
    def test_attribution_means_match_loop(self, instance):
        matrix, labels = random_instance(instance)
        label_list = [labels[cid] for cid in matrix.chunk_ids]
        means = _category_means_loop(matrix.scores, label_list, sorted(set(label_list)))
        assert np.array_equal(attribute_chunks(matrix, labels).means, means)

    @pytest.mark.parametrize("instance", range(0, 60, 7))
    def test_attribution_is_attribute_chunks(self, instance):
        matrix, labels = random_instance(instance)
        orders = draw_orders(len(matrix.chunk_ids), 65, seed=instance)
        attribution = permutation_baselines(matrix, labels, orders).attribution
        assert_same_fields(attribution, attribute_chunks(matrix, labels))

    @pytest.mark.parametrize("n, ncat, integer_scores", [(255, 40, True), (300, 2, False)])
    def test_attribution_is_attribute_chunks_wide(self, n, ncat, integer_scores):
        matrix, labels = wide_instance(n, ncat, integer_scores)
        orders = draw_orders(n, 65, seed=n + ncat)
        attribution = permutation_baselines(matrix, labels, orders).attribution
        assert_same_fields(attribution, attribute_chunks(matrix, labels))

    def test_labels_encoded_once(self, monkeypatch):
        calls, encode = [], homogeneity._encode

        def recording(chunk_ids, labels):
            calls.append(len(chunk_ids))
            return encode(chunk_ids, labels)

        monkeypatch.setattr(homogeneity, "_encode", recording)
        matrix, labels = random_instance(9)
        permutation_baselines(matrix, labels, draw_orders(len(matrix.chunk_ids), 130, seed=5))
        assert calls == [len(matrix.chunk_ids)]

    def test_rejects_zero_permutations(self):
        orders = np.zeros((0, 4), dtype=np.uint8)
        with pytest.raises(PreconditionFailed, match="orders have shape"):
            permutation_baselines(SEPARATED, LABELS4, orders)

    @pytest.mark.parametrize(
        "reshape",
        [
            lambda o: o[:, :-1],
            lambda o: np.hstack([o, o[:, :1]]),
            lambda o: o.T,
            lambda o: o[None],
            np.ravel,
        ],
        ids=["fewer_columns", "more_columns", "transposed", "stacked", "flat"],
    )
    def test_rejects_orders_of_wrong_shape(self, reshape):
        matrix, labels = random_instance(9)
        orders = reshape(draw_orders(len(matrix.chunk_ids), 130, seed=5))
        with pytest.raises(PreconditionFailed, match="orders have shape"):
            permutation_baselines(matrix, labels, orders)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda o, n: o[100].__setitem__(3, o[100, 7]),
            lambda o, n: o[100].__setitem__(0, n),
            # -1 in place of n-1 would index the last chunk if not caught
            lambda o, n: o[100].__setitem__(int(np.flatnonzero(o[100] == n - 1)[0]), -1),
        ],
        ids=["duplicated", "too_large", "negative"],
    )
    def test_rejects_orders_that_are_not_permutations(self, corrupt):
        matrix, labels = random_instance(9)
        n = len(matrix.chunk_ids)
        orders = draw_orders(n, 130, seed=5).astype(np.int16)
        corrupt(orders, n)
        with pytest.raises(PreconditionFailed, match=rf"permutation of range\({n}\)"):
            permutation_baselines(matrix, labels, orders)

    def test_rejects_orders_that_are_not_integers(self):
        orders = draw_orders(4, 10, seed=5).astype(float)
        with pytest.raises(PreconditionFailed, match="orders must be integers"):
            permutation_baselines(SEPARATED, LABELS4, orders)

    def test_memory_is_bounded_per_block(self):
        # beyond the (K, permutations) nulls, nothing grows with the permutations
        matrix, labels = random_instance(10)
        n, ncat = len(matrix.chunk_ids), len(set(labels.values()))
        peaks = {}
        for permutations in (640, 6400):
            orders = draw_orders(n, permutations, seed=3)
            tracemalloc.start()
            permutation_baselines(matrix, labels, orders)
            peaks[permutations] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        nulls = 2 * ncat * (6400 - 640) * 8
        assert peaks[6400] - peaks[640] <= 1.2 * nulls, (peaks, nulls)


def _splitmix64(seed):
    """Reference SplitMix64 stream (Steele, Lea & Flood, 2014) in Python ints."""
    mask = (1 << 64) - 1
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def _splitmix64_keys(seed, permutations, n):
    """Outputs 0 ... permutations*n-1 of SplitMix64 in NumPy, one row per shuffle."""
    z = np.arange(1, permutations * n + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z.reshape(permutations, n)


class TestDrawOrders:
    def test_reference_reproduces_published_vector(self):
        stream = _splitmix64(1234567)
        assert [next(stream) for _ in range(3)] == [
            6457827717110365317, 3203168211198807973, 9817491932198370423,
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 80, 255, 256, 257, 1000])
    @pytest.mark.parametrize("seed", [0, 7, 42, 2**64 - 1])
    def test_rows_match_splitmix64_reference(self, n, seed):
        orders = draw_orders(n, 40, seed)
        stream = _splitmix64(seed)
        for row in orders.tolist():
            words = [next(stream) for _ in range(n)]
            assert row == sorted(range(n), key=words.__getitem__)

    @pytest.mark.parametrize("n", [1, 2, 10, 80, 255, 256, 300])
    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
    def test_is_the_stable_argsort_of_distinct_keys(self, n, seed):
        # distinct keys have one ascending order, so the default argsort
        # the draw uses gives the stable one; uint8 orders up to n = 255
        keys = _splitmix64_keys(seed, 50, n)
        assert (np.diff(np.sort(keys, axis=1), axis=1) != 0).all()
        orders = draw_orders(n, 50, seed)
        assert orders.dtype == (np.uint8 if n <= 255 else np.uint16)
        assert np.array_equal(orders, np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("n", [1, 2, 80, 255, 256, 257, 1000])
    def test_prefix_dtype_and_permutation_rows(self, n):
        orders = draw_orders(n, 300, 9)
        assert orders.shape == (300, n)
        assert orders.dtype == np.min_scalar_type(n)
        assert np.array_equal(draw_orders(n, 120, 9), orders[:120])
        assert (np.sort(orders, axis=1) == np.arange(n)).all()

    def test_arrangements_of_four_are_uniform(self):
        rows = 240_000
        codes = draw_orders(4, rows, 42).astype(int) @ (4 ** np.arange(4))
        _, counts = np.unique(codes, return_counts=True)
        assert len(counts) == 24
        statistic = float(((counts - rows / 24) ** 2).sum() / (rows / 24))
        assert statistic < chi2.ppf(0.999, 23), statistic

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_splits_of_ten_into_five_and_five_are_uniform(self, seed):
        # the chunks at positions 0..4 take the first category's labels: each
        # of the C(10, 5) = 252 sets is as likely; the bound is fixed in advance
        rows = 10_000
        masks = (1 << draw_orders(10, rows, seed)[:, :5].astype(np.int64)).sum(axis=1)
        counts = np.bincount(masks, minlength=1 << 10)
        splits = [sum(1 << i for i in c) for c in itertools.combinations(range(10), 5)]
        assert counts[splits].sum() == rows
        expected = rows / len(splits)
        statistic = float(((counts[splits] - expected) ** 2).sum() / expected)
        assert statistic <= chi2.ppf(0.9999, len(splits) - 1), statistic

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_is_rejected(self, seed):
        with pytest.raises(PreconditionFailed, match="seed must lie in"):
            draw_orders(4, 1, seed)

    @pytest.mark.parametrize("words", [1, 80, 160, 320, 4000, 10**6])
    def test_blocked_draw_matches_one_shot(self, monkeypatch, words):
        # blocks of max(1, words // n) rows: 1, 1, 2, 4, 50 and all 123 rows
        n, permutations, seed = 80, 123, 2**63 + 5
        one_shot = np.argsort(_splitmix64_keys(seed, permutations, n), kind="stable")
        monkeypatch.setattr(homogeneity, "_DRAW_WORDS", words)
        orders = draw_orders(n, permutations, seed)
        assert orders.dtype == np.uint8
        assert np.array_equal(orders, one_shot)

    def test_draw_peak_memory_is_a_small_multiple_of_the_result(self):
        tracemalloc.start()
        orders = draw_orders(80, 20_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 3 * orders.nbytes, peak / orders.nbytes

    def test_zero_permutations_is_empty(self):
        orders = draw_orders(80, 0, seed=1)
        assert orders.shape == (0, 80)
