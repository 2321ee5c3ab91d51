import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dramastyle import (
    EmptyDistribution,
    ModeMismatch,
    TokenDistribution,
    TokenizationMode,
    chi_square_dissimilarity,
    pairwise_matrix,
)
from dramastyle import similarity
from dramastyle.similarity import write_matrix_csv

MODE = TokenizationMode("letter_unigram")


def dist(chunk_id, counts):
    return TokenDistribution(chunk_id, MODE, counts, sum(counts.values()))


def oracle_chi_square(counts_a, counts_b):
    """Independent transcription of the pooled-expectation formula."""
    na = sum(counts_a.values())
    nb = sum(counts_b.values())
    union = set(counts_a) | set(counts_b)
    total = 0.0
    for token in union:
        a = counts_a.get(token, 0)
        b = counts_b.get(token, 0)
        expected_a = na * (a + b) / (na + nb)
        expected_b = nb * (a + b) / (na + nb)
        total += (a - expected_a) ** 2 / expected_a
        total += (b - expected_b) ** 2 / expected_b
    return total / len(union)


count_maps = st.dictionaries(
    st.sampled_from("abcdef"), st.integers(min_value=1, max_value=10),
    min_size=1, max_size=6,
)


class TestChiSquare:
    def test_identical_is_zero(self):
        d = dist("a", {"x": 3, "y": 7})
        assert chi_square_dissimilarity(d, dist("b", {"x": 3, "y": 7})) == 0.0

    def test_hand_value(self):
        got = chi_square_dissimilarity(dist("a", {"a": 2, "b": 2}), dist("b", {"a": 1, "b": 3}))
        assert got == pytest.approx(4 / 15, rel=1e-12)

    def test_disjoint_vocabulary(self):
        got = chi_square_dissimilarity(dist("a", {"a": 2}), dist("b", {"b": 2}))
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_mode_mismatch(self):
        other = TokenDistribution("b", TokenizationMode("word_unigram"), {"a": 1}, 1)
        with pytest.raises(ModeMismatch):
            chi_square_dissimilarity(dist("a", {"a": 1}), other)

    def test_empty_rejected(self):
        bad = TokenDistribution("b", MODE, {}, 0)
        with pytest.raises(EmptyDistribution):
            chi_square_dissimilarity(dist("a", {"a": 1}), bad)

    @given(count_maps, count_maps)
    def test_symmetry_to_the_last_bit(self, ca, cb):
        a, b = dist("a", ca), dist("b", cb)
        assert chi_square_dissimilarity(a, b) == chi_square_dissimilarity(b, a)

    @given(count_maps, count_maps)
    def test_matches_oracle(self, ca, cb):
        got = chi_square_dissimilarity(dist("a", ca), dist("b", cb))
        want = oracle_chi_square(ca, cb)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    @given(count_maps, count_maps, st.integers(min_value=2, max_value=10))
    def test_count_scaling_law(self, ca, cb, k):
        base = chi_square_dissimilarity(dist("a", ca), dist("b", cb))
        scaled = chi_square_dissimilarity(
            dist("a", {t: k * v for t, v in ca.items()}),
            dist("b", {t: k * v for t, v in cb.items()}),
        )
        assert scaled == pytest.approx(k * base, rel=1e-9, abs=1e-12)

    @given(count_maps, count_maps)
    def test_non_negative_and_finite(self, ca, cb):
        got = chi_square_dissimilarity(dist("a", ca), dist("b", cb))
        assert got >= 0.0
        assert math.isfinite(got)


@pytest.fixture(scope="module")
def matrix_scale_oracle():
    """40 seeded chunks over 600 tokens (shared, disjoint and single-token
    supports) and the oracle's matrix for them."""
    rng = np.random.default_rng(2001)
    tokens = [f"t{k:03d}" for k in range(600)]
    supports = [np.flatnonzero(rng.random(500) < 0.4) for _ in range(24)]  # shared
    supports += [np.arange(500 + 10 * g, 510 + 10 * g) for g in range(10)]  # disjoint
    supports += [np.array([k]) for k in (3, 3, 7, 505, 599, 42)]  # single token
    dists = [
        dist(f"c{i:02d}", {tokens[k]: int(rng.integers(1, 20)) for k in support})
        for i, support in enumerate(supports)
    ]
    n = len(dists)
    want = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                want[i, j] = oracle_chi_square(dists[i].counts, dists[j].counts)
    return dists, want


class TestRowScoresWorkBuffer:
    """The kernel's result must not depend on what its work buffer held."""

    @pytest.mark.parametrize("fill", [np.nan, np.inf, -1e300, 7.5e305])
    @pytest.mark.parametrize("spare_rows", [0, 5])
    def test_buffer_contents_do_not_matter(self, matrix_scale_oracle, fill, spare_rows):
        dists, _ = matrix_scale_oracle
        counts, totals = similarity._dense(dists)
        for i in (0, 17, 30, len(dists) - 2):
            a, na, b, nb = counts[i], totals[i], counts[i + 1 :], totals[i + 1 :]
            work = np.full((3, len(b) + spare_rows, counts.shape[1]), fill)
            got = similarity._row_scores(a, na, b, nb, work)
            assert np.array_equal(got, similarity._row_scores(a, na, b, nb))


class TestPairwiseMatrix:
    # with 1 << 16 a row's 39 later chunks fit in one tile of 600-token rows;
    # the smaller tiles split them over several, down to one row per tile
    @pytest.mark.parametrize("tile", [1 << 16, similarity._TILE, 4096, 256])
    def test_matrix_scale_matches_oracle(self, matrix_scale_oracle, monkeypatch, tile):
        dists, want = matrix_scale_oracle
        monkeypatch.setattr(similarity, "_TILE", tile)
        m = pairwise_matrix(dists)
        assert m.chunk_ids == tuple(d.chunk_id for d in dists)
        np.testing.assert_allclose(m.scores, want, rtol=1e-12, atol=0)
        assert np.array_equal(m.scores, m.scores.T)
        assert not m.scores.diagonal().any()

    # one later row per tile; 7, which leaves the last tile of most rows
    # partial; one tile taller than any row's later rows
    @pytest.mark.parametrize("height", [1, 7, 64])
    def test_tile_height_does_not_change_bits(self, matrix_scale_oracle, monkeypatch, height):
        dists, want = matrix_scale_oracle
        unpatched = pairwise_matrix(dists).scores
        vocab = len(set().union(*(d.counts for d in dists)))
        monkeypatch.setattr(similarity, "_TILE", height * vocab)
        m = pairwise_matrix(dists)
        assert np.array_equal(m.scores, unpatched)
        np.testing.assert_allclose(m.scores, want, rtol=1e-12, atol=0)

    def test_identical_pair_gives_zero_matrix(self):
        m = pairwise_matrix([dist("a", {"x": 2}), dist("b", {"x": 2})])
        assert m.scores.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_structure_three_chunks(self):
        m = pairwise_matrix([dist("c", {"x": 1}), dist("a", {"y": 1}), dist("b", {"z": 1})])
        assert m.chunk_ids == ("a", "b", "c")
        assert np.array_equal(m.scores, m.scores.T)
        assert np.all(np.diag(m.scores) == 0.0)

    def test_entries_match_scalar_operation(self):
        da = dist("a", {"a": 2, "b": 2})
        db = dist("b", {"a": 1, "b": 3})
        dc = dist("c", {"a": 2})
        m = pairwise_matrix([da, db, dc])
        assert m.scores[0, 1] == chi_square_dissimilarity(da, db)
        assert m.scores[0, 2] == chi_square_dissimilarity(da, dc)
        assert m.scores[1, 2] == chi_square_dissimilarity(db, dc)

    def test_input_order_does_not_change_bits(self):
        rng = np.random.default_rng(7)
        dists = [
            dist(f"c{i:02d}", {t: int(rng.integers(1, 30)) for t in "abcdefgh"})
            for i in range(12)
        ]
        shuffled = [dists[i] for i in rng.permutation(len(dists))]
        m1 = pairwise_matrix(dists)
        m2 = pairwise_matrix(shuffled)
        assert m1.chunk_ids == m2.chunk_ids
        assert np.array_equal(m1.scores, m2.scores)

    def test_duplicate_ids_rejected(self):
        from dramastyle import PreconditionFailed

        with pytest.raises(PreconditionFailed):
            pairwise_matrix([dist("a", {"x": 1}), dist("a", {"y": 1})])

    def test_csv_format(self, tmp_path):
        m = pairwise_matrix([dist("a", {"a": 2, "b": 2}), dist("b", {"a": 1, "b": 3})])
        path = tmp_path / "m.csv"
        write_matrix_csv(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "chunk_id,a,b"
        assert lines[1] == "a,0.000000,0.266667"
        assert lines[2] == "b,0.266667,0.000000"
