import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dramastyle import (
    PipelineError,
    PreconditionFailed,
    StatisticsError,
    TokenizationMode,
    matrix_from_counts,
)
from dramastyle import experiment, load_config, similarity
from dramastyle.experiment import Chunk, chunk_matrix, write_matrix_csv
from dramastyle.tokenization import UNITS
from reference_counts import _ref_tokenize, _rows

MODE = TokenizationMode("letter")


def matrix(maps, ids=None):
    """`matrix_from_counts` of the token -> count maps, ids c00, c01, ... by default."""
    ids = [f"c{i:02d}" for i in range(len(maps))] if ids is None else ids
    return matrix_from_counts(ids, _rows(maps))


def score(ca, cb):
    """The score of one pair: a 2-row `matrix_from_counts` call."""
    return float(matrix([ca, cb]).scores[0, 1])


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
        assert score({"x": 3, "y": 7}, {"x": 3, "y": 7}) == 0.0

    def test_hand_value(self):
        got = score({"a": 2, "b": 2}, {"a": 1, "b": 3})
        assert got == pytest.approx(4 / 15, rel=1e-12)

    def test_disjoint_vocabulary(self):
        got = score({"a": 2}, {"b": 2})
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_empty_rejected_naming_the_chunk(self):
        with pytest.raises(StatisticsError, match="^chunk c01: no tokens$"):
            matrix([{"a": 1}, {}])

    # either row first: the matrix mirrors the one score of the pair
    @pytest.mark.parametrize("swap", [False, True], ids=["as_given", "swapped"])
    @given(count_maps, count_maps)
    def test_symmetry_to_the_last_bit(self, swap, ca, cb):
        m = matrix([cb, ca] if swap else [ca, cb]).scores
        assert m[0, 1] == m[1, 0]
        assert np.array_equal(m, m.T)

    @given(count_maps, count_maps)
    def test_matches_oracle(self, ca, cb):
        got = score(ca, cb)
        want = oracle_chi_square(ca, cb)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    @given(count_maps, count_maps, st.integers(min_value=2, max_value=10))
    def test_count_scaling_law(self, ca, cb, k):
        base = score(ca, cb)
        scaled = score({t: k * v for t, v in ca.items()}, {t: k * v for t, v in cb.items()})
        assert scaled == pytest.approx(k * base, rel=1e-9, abs=1e-12)

    @given(count_maps, count_maps)
    def test_non_negative_and_finite(self, ca, cb):
        got = score(ca, cb)
        assert got >= 0.0
        assert math.isfinite(got)


@pytest.fixture(scope="module")
def matrix_scale_oracle():
    """40 seeded chunks over 600 tokens (shared, disjoint and single-token
    supports) as token -> count maps, and the oracle's matrix for them."""
    rng = np.random.default_rng(2001)
    tokens = [f"t{k:03d}" for k in range(600)]
    supports = [np.flatnonzero(rng.random(500) < 0.4) for _ in range(24)]  # shared
    supports += [np.arange(500 + 10 * g, 510 + 10 * g) for g in range(10)]  # disjoint
    supports += [np.array([k]) for k in (3, 3, 7, 505, 599, 42)]  # single token
    maps = [{tokens[k]: int(rng.integers(1, 20)) for k in support} for support in supports]
    n = len(maps)
    want = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                want[i, j] = oracle_chi_square(maps[i], maps[j])
    return maps, want


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
        maps, _ = matrix_scale_oracle
        monkeypatch.setattr(similarity, "_TILE", tile)
        want = matrix(maps).scores
        monkeypatch.setattr(similarity, "np", self._FilledEmpty(fill))
        assert np.array_equal(matrix(maps).scores, want)


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
    return maps


class TestKernel:
    """One kernel, scored over each pair's own tokens, whatever else the call holds."""

    @given(chunk_sets())
    def test_matrix_matches_oracle(self, maps):
        m = matrix(maps)
        n = len(maps)
        want = np.array([
            [oracle_chi_square(maps[i], maps[j]) if i != j else 0.0 for j in range(n)]
            for i in range(n)
        ])
        np.testing.assert_allclose(m.scores, want, rtol=1e-12, atol=0)
        assert np.array_equal(m.scores, m.scores.T)
        assert not m.scores.diagonal().any()

    def test_two_row_call_gives_full_matrix_bits(self, matrix_scale_oracle):
        # the pair's rows over its own vocabulary, and over the full one
        maps, _ = matrix_scale_oracle
        ids = [f"c{i:02d}" for i in range(len(maps))]
        counts = _rows(maps)
        full = matrix_from_counts(ids, counts).scores
        for i in range(len(maps)):
            for j in range(i + 1, len(maps)):
                own = matrix([maps[i], maps[j]], [ids[i], ids[j]]).scores
                rows = matrix_from_counts([ids[i], ids[j]], counts[[i, j]]).scores
                assert own[0, 1] == rows[0, 1] == full[i, j]


class TestMatrixFromCounts:
    # with 1 << 16 a row's 39 later chunks fit in one tile (a row has at most
    # 600 tokens); the smaller tiles split them over several, and 1 gives one
    # row per tile
    @pytest.mark.parametrize("tile", [1 << 16, similarity._TILE, 4096, 256, 1])
    def test_matrix_scale_matches_oracle(self, matrix_scale_oracle, monkeypatch, tile):
        maps, want = matrix_scale_oracle
        monkeypatch.setattr(similarity, "_TILE", tile)
        m = matrix(maps)
        assert m.chunk_ids == tuple(f"c{i:02d}" for i in range(len(maps)))
        np.testing.assert_allclose(m.scores, want, rtol=1e-12, atol=0)
        assert np.array_equal(m.scores, m.scores.T)
        assert not m.scores.diagonal().any()

    # a tile of height x V counts holds at least `height` later rows (more for
    # a row with fewer tokens): 1; 7, which leaves the last tile of most rows
    # partial; 64, taller than any row's later rows
    @pytest.mark.parametrize("height", [1, 7, 64])
    def test_tile_height_does_not_change_bits(self, matrix_scale_oracle, monkeypatch, height):
        maps, want = matrix_scale_oracle
        unpatched = matrix(maps).scores
        vocab = len(set().union(*maps))
        monkeypatch.setattr(similarity, "_TILE", height * vocab)
        m = matrix(maps)
        assert np.array_equal(m.scores, unpatched)
        np.testing.assert_allclose(m.scores, want, rtol=1e-12, atol=0)

    def test_identical_pair_gives_zero_matrix(self):
        m = matrix([{"x": 2}, {"x": 2}])
        assert m.scores.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_structure_three_chunks(self):
        m = matrix([{"y": 1}, {"z": 1}, {"x": 1}], ["a", "b", "c"])
        assert m.chunk_ids == ("a", "b", "c")
        assert np.array_equal(m.scores, m.scores.T)
        assert np.all(np.diag(m.scores) == 0.0)

    def test_entries_match_two_row_calls(self):
        ca, cb, cc = {"a": 2, "b": 2}, {"a": 1, "b": 3}, {"a": 2}
        m = matrix([ca, cb, cc])
        assert m.scores[0, 1] == score(ca, cb)
        assert m.scores[0, 2] == score(ca, cc)
        assert m.scores[1, 2] == score(cb, cc)

    def test_unsorted_ids_rejected(self):
        with pytest.raises(PreconditionFailed, match="unique and sorted"):
            matrix([{"x": 1}, {"y": 1}], ["b", "a"])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(PreconditionFailed, match="unique and sorted"):
            matrix([{"x": 1}, {"y": 1}], ["a", "a"])

    # one id or count row more than the others
    @pytest.mark.parametrize("ids, rows", [(3, 2), (2, 3)], ids=["more_ids", "more_rows"])
    def test_mismatched_lengths_rejected(self, ids, rows):
        counts = _rows([{"x": 1}, {"y": 2}, {"x": 1, "z": 3}])
        with pytest.raises(PreconditionFailed, match="one of each per chunk"):
            matrix_from_counts(["a", "b", "c"][:ids], counts[:rows])

    def test_csv_format(self, tmp_path):
        m = matrix([{"a": 2, "b": 2}, {"a": 1, "b": 3}], ["a", "b"])
        path = tmp_path / "m.csv"
        write_matrix_csv(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "chunk_id,a,b"
        assert lines[1] == "a,0.000000,0.266667"
        assert lines[2] == "b,0.266667,0.000000"

    @pytest.mark.parametrize("seed", range(4))
    def test_csv_bytes_match_one_format_per_entry(self, tmp_path, seed):
        def reference(m, path):
            # every field through csv.writer, one `format(v, ".6f")` call per entry
            experiment._write_csv(path, ["chunk_id", *m.chunk_ids], (
                [cid, *(format(v, ".6f") for v in row)] for cid, row in zip(m.chunk_ids, m.scores)
            ))

        rng = np.random.default_rng(seed)
        # ids with commas, quotes and line ends, which the csv module quotes, a
        # leading space, "@" and non-ASCII; the files are compared whole, since
        # splitting at "\n" would cut a quoted id
        ids = ("a,b", 'c"d', "e f", "g", 'h,"i" j', "k", "l\nm", "n\ro", "\r\n", " p", "@q",
               "Åse", 'é,\n"')
        # .6f half-way points (odd multiples of 1/128) and the floats beside them
        halfway = rng.integers(0, 10**6, 12) + (2 * rng.integers(0, 64, 12) + 1) / 128
        values = np.concatenate([
            halfway, np.nextafter(halfway, np.inf), np.nextafter(halfway, -np.inf),
            [0.0, -0.0, 1e-7, 5e-7, 1e6, 123456789.0000005, 1e20, 1e300],
            rng.random(6) * 10.0 ** rng.integers(-8, 9, 6),
        ])
        scores = rng.permutation(np.resize(values, len(ids) ** 2)).reshape(len(ids), -1)
        m = similarity.DissimilarityMatrix(ids, scores)
        write_matrix_csv(m, tmp_path / "got.csv")
        reference(m, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BUNDLED_CONFIGS = ["synthetic_two_category", "synthetic_translations"]
ALL_MODES = [TokenizationMode(unit, n) for unit in UNITS for n in range(1, 6)]


@pytest.fixture(scope="module", params=BUNDLED_CONFIGS)
def bundled_chunks(request):
    config = load_config(CONFIGS / f"{request.param}.json")
    return experiment._chunk_corpus(config, {})[0]


class TestChunkMatrix:
    """The pipeline's path scores what the reference counts score."""

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.name)
    def test_matches_matrix_of_reference_counts(self, bundled_chunks, mode):
        got, sizes, _ = chunk_matrix(bundled_chunks, mode)
        ordered = sorted(bundled_chunks, key=lambda c: c.chunk_id)
        maps = [_ref_tokenize(c.text, mode) for c in ordered]
        want = matrix(maps, [c.chunk_id for c in ordered])
        assert got.chunk_ids == want.chunk_ids
        assert np.array_equal(got.scores, want.scores)
        assert sizes["vocabulary"] == len(set().union(*maps))
        assert sizes["support_mean"] == sum(map(len, maps)) / len(maps)
        assert sizes["token_total_min"] == min(sum(m.values()) for m in maps)
        assert sizes["token_total_max"] == max(sum(m.values()) for m in maps)

    def test_input_order_does_not_change_bits(self, bundled_chunks):
        order = np.random.default_rng(7).permutation(len(bundled_chunks))
        shuffled = [bundled_chunks[i] for i in order]
        assert shuffled != sorted(bundled_chunks, key=lambda c: c.chunk_id)
        for mode in (MODE, TokenizationMode("word", 2)):
            m1, _, _ = chunk_matrix(bundled_chunks, mode)
            m2, _, _ = chunk_matrix(shuffled, mode)
            assert m1.chunk_ids == m2.chunk_ids
            assert np.array_equal(m1.scores, m2.scores)

    def test_does_not_reach_np_unique(self, bundled_chunks, monkeypatch):
        # the first np.unique call of a process pages in NumPy code, and over
        # all grams its temporaries would set the peak memory
        def unreachable(*args, **kwargs):
            raise AssertionError("reached")

        want = [chunk_matrix(bundled_chunks, mode)[0].scores for mode in ALL_MODES]
        monkeypatch.setattr(np, "unique", unreachable)
        for mode, scores in zip(ALL_MODES, want):
            assert np.array_equal(chunk_matrix(bundled_chunks, mode)[0].scores, scores)

    def test_chunk_without_tokens_names_it(self):
        chunks = [
            Chunk("a#00", "a", ("p", "original", "a"), "abc def"),
            Chunk("b#00", "b", ("p", "original", "b"), "123 !!"),
        ]
        # the error names the stage, as every stage's does, and the chunk
        with pytest.raises(PipelineError, match=r"^\[matrix:letter_unigram\] .*chunk b#00") as err:
            chunk_matrix(chunks, MODE)
        assert isinstance(err.value.cause, StatisticsError)
        assert str(err.value.cause) == "chunk b#00: no tokens"
