import math
from pathlib import Path

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
from dramastyle import experiment, load_config, similarity, tokenize
from dramastyle.experiment import chunk_matrix
from dramastyle.segmentation import Chunk
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

    # with equal ids the pair is oriented by its counts
    @pytest.mark.parametrize("ids", [("a", "b"), ("same", "same")],
                             ids=["distinct_ids", "equal_ids"])
    @given(count_maps, count_maps)
    def test_symmetry_to_the_last_bit(self, ids, ca, cb):
        a, b = dist(ids[0], ca), dist(ids[1], cb)
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


class TestWorkBuffer:
    """The kernel's result must not depend on what its work buffer held."""

    class _FilledEmpty:
        """numpy, except that `empty` returns an array full of `fill`."""

        def __init__(self, fill):
            self.fill = fill

        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape):
            return np.full(shape, self.fill)

    @pytest.mark.parametrize("fill", [np.nan, np.inf, -1e300, 7.5e305])
    @pytest.mark.parametrize("tile", [similarity._TILE, 256])
    def test_buffer_contents_do_not_matter(self, matrix_scale_oracle, monkeypatch, fill, tile):
        dists, _ = matrix_scale_oracle
        monkeypatch.setattr(similarity, "_TILE", tile)
        want = pairwise_matrix(dists).scores
        monkeypatch.setattr(similarity, "np", self._FilledEmpty(fill))
        assert np.array_equal(pairwise_matrix(dists).scores, want)


SHARED_TOKENS = [f"t{k:02d}" for k in range(30)]


@st.composite
def chunk_sets(draw):
    """2-8 chunks: shared, disjoint (own tokens), one-token and identical ones."""
    counts = st.integers(min_value=1, max_value=50)
    maps = []
    for i in range(draw(st.integers(min_value=2, max_value=8))):
        kind = draw(st.sampled_from(["shared", "disjoint", "one_token", "identical"]))
        if kind == "identical" and maps:
            maps.append(dict(draw(st.sampled_from(maps))))
        elif kind == "disjoint":
            own = [f"own{i}.{k}" for k in range(6)]
            maps.append(draw(st.dictionaries(st.sampled_from(own), counts, min_size=1)))
        elif kind == "one_token":
            maps.append({draw(st.sampled_from(SHARED_TOKENS)): draw(counts)})
        else:
            maps.append(draw(st.dictionaries(
                st.sampled_from(SHARED_TOKENS), counts, min_size=1, max_size=20,
            )))
    return [dist(f"c{i}", m) for i, m in enumerate(maps)]


class TestKernel:
    """One kernel, scored over each pair's own tokens, for scalar and matrix."""

    @given(chunk_sets())
    def test_matrix_matches_oracle(self, dists):
        m = pairwise_matrix(dists)
        n = len(dists)
        want = np.array([
            [oracle_chi_square(dists[i].counts, dists[j].counts) if i != j else 0.0
             for j in range(n)]
            for i in range(n)
        ])
        np.testing.assert_allclose(m.scores, want, rtol=1e-12, atol=0)
        assert np.array_equal(m.scores, m.scores.T)
        assert not m.scores.diagonal().any()

    def test_two_chunk_call_gives_full_matrix_bits(self, matrix_scale_oracle):
        dists, _ = matrix_scale_oracle
        full = pairwise_matrix(dists).scores
        for i in range(len(dists)):
            for j in range(i + 1, len(dists)):
                pair = pairwise_matrix([dists[j], dists[i]]).scores
                assert pair[0, 1] == full[i, j]

    def test_matrix_equals_scalar_for_every_pair(self, matrix_scale_oracle):
        dists, _ = matrix_scale_oracle
        full = pairwise_matrix(dists).scores
        for i, da in enumerate(dists):
            for j, db in enumerate(dists):
                if i != j:
                    assert chi_square_dissimilarity(da, db) == full[i, j]


class TestPairwiseMatrix:
    # with 1 << 16 a row's 39 later chunks fit in one tile (a row has at most
    # 600 tokens); the smaller tiles split them over several, and 1 gives one
    # row per tile
    @pytest.mark.parametrize("tile", [1 << 16, similarity._TILE, 4096, 256, 1])
    def test_matrix_scale_matches_oracle(self, matrix_scale_oracle, monkeypatch, tile):
        dists, want = matrix_scale_oracle
        monkeypatch.setattr(similarity, "_TILE", tile)
        m = pairwise_matrix(dists)
        assert m.chunk_ids == tuple(d.chunk_id for d in dists)
        np.testing.assert_allclose(m.scores, want, rtol=1e-12, atol=0)
        assert np.array_equal(m.scores, m.scores.T)
        assert not m.scores.diagonal().any()

    # a tile of height x V counts holds at least `height` later rows (more for
    # a row with fewer tokens): 1; 7, which leaves the last tile of most rows
    # partial; 64, taller than any row's later rows
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


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BUNDLED_CONFIGS = ["synthetic_two_category", "synthetic_translations"]
ALL_MODES = [TokenizationMode("letter_unigram"), TokenizationMode("word_unigram")] + [
    TokenizationMode(kind, n=n) for kind in ("letter_ngram", "word_ngram") for n in range(1, 6)
]


@pytest.fixture(scope="module", params=BUNDLED_CONFIGS)
def bundled_chunks(request):
    config = load_config(CONFIGS / f"{request.param}.json")
    return experiment._chunk_corpus(config, {})[0]


class TestChunkMatrix:
    """The pipeline's count-matrix path scores what the dict API scores."""

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.name)
    def test_matches_pairwise_matrix_of_tokenize(self, bundled_chunks, mode):
        matrix, sizes = chunk_matrix(bundled_chunks, mode)
        dists = [tokenize(c.text, mode, c.chunk_id) for c in bundled_chunks]
        want = pairwise_matrix(dists)
        assert matrix.chunk_ids == want.chunk_ids
        assert np.array_equal(matrix.scores, want.scores)
        assert sizes["vocabulary"] == len(set().union(*(d.counts for d in dists)))
        assert sizes["support_mean"] == sum(len(d.counts) for d in dists) / len(dists)
        assert sizes["token_total_min"] == min(d.total for d in dists)
        assert sizes["token_total_max"] == max(d.total for d in dists)

    def test_reaches_neither_the_dict_api_nor_np_unique(self, bundled_chunks, monkeypatch):
        # the first np.unique call of a process pages in NumPy code, and over
        # all grams its temporaries would set the peak memory
        def unreachable(*args, **kwargs):
            raise AssertionError("reached")

        want = [chunk_matrix(bundled_chunks, mode)[0].scores for mode in ALL_MODES]
        monkeypatch.setattr(similarity, "_dense", unreachable)
        monkeypatch.setattr(np, "unique", unreachable)
        for mode, scores in zip(ALL_MODES, want):
            assert np.array_equal(chunk_matrix(bundled_chunks, mode)[0].scores, scores)

    def test_chunk_without_tokens_names_it(self):
        chunks = [
            Chunk("a#00", "a", ("p", "original", "a"), "abc def", 7),
            Chunk("b#00", "b", ("p", "original", "b"), "123 !!", 6),
        ]
        with pytest.raises(EmptyDistribution, match="chunk b#00"):
            chunk_matrix(chunks, MODE)
