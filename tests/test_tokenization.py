import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dramastyle import EmptyDistribution, TokenizationMode, tokenize
from dramastyle import similarity, tokenization

LETTERS = TokenizationMode("letter_unigram")
WORDS = TokenizationMode("word_unigram")

texts = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Po", "Zs")),
    max_size=80,
)


class TestLetterModes:
    def test_fold_and_drop_non_letters(self):
        d = tokenize("Aab!", LETTERS)
        assert d.counts == {"a": 2, "b": 1}
        assert d.total == 3

    def test_empty_raises(self):
        with pytest.raises(EmptyDistribution):
            tokenize("", LETTERS)

    def test_punctuation_only_raises(self):
        with pytest.raises(EmptyDistribution):
            tokenize("... 123 !!", LETTERS)

    def test_no_folding(self):
        d = tokenize("Aa", TokenizationMode("letter_unigram", case_folding=False))
        assert d.counts == {"A": 1, "a": 1}

    def test_keep_non_letters(self):
        d = tokenize("a b", TokenizationMode("letter_unigram", drop_non_letters=False))
        assert d.counts == {"a": 1, " ": 1, "b": 1}

    def test_bigram(self):
        d = tokenize("abab", TokenizationMode("letter_ngram", n=2))
        assert d.counts == {"ab": 2, "ba": 1}

    def test_multibyte_letters_counted_once(self):
        d = tokenize("håp på", LETTERS)
        assert d.counts == {"h": 1, "å": 2, "p": 2}


class TestWordModes:
    def test_split_on_non_alnum(self):
        d = tokenize("to be, to be", WORDS)
        assert d.counts == {"to": 2, "be": 2}
        assert d.total == 4

    def test_apostrophe_kept_inside_word(self):
        d = tokenize("Don't don't", WORDS)
        assert d.counts == {"don't": 2}

    def test_word_bigrams(self):
        d = tokenize("a b a b", TokenizationMode("word_ngram", n=2))
        assert d.counts == {"a b": 2, "b a": 1}


class TestModeValidation:
    def test_n_bounds(self):
        with pytest.raises(ValueError):
            TokenizationMode("letter_ngram", n=6)
        with pytest.raises(ValueError):
            TokenizationMode("letter_ngram", n=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TokenizationMode("syllables")

    def test_parse_notation(self):
        mode = TokenizationMode.parse("letter_ngram:3")
        assert (mode.kind, mode.n) == ("letter_ngram", 3)
        assert TokenizationMode.parse("word_unigram") == WORDS


class TestProperties:
    @given(texts, texts)
    def test_unigram_additivity(self, a, b):
        def counts(text, mode):
            try:
                return tokenize(text, mode).counts
            except EmptyDistribution:
                return {}

        for mode in (LETTERS, WORDS):
            merged = counts(a, mode).copy()
            for token, n in counts(b, mode).items():
                merged[token] = merged.get(token, 0) + n
            # word tokens may fuse at the boundary; separate with a space
            joined = a + " " + b if mode is WORDS else a + b
            assert counts(joined, mode) == merged

    # alphabets of the corpus languages; exotic scripts with asymmetric
    # case mappings (dotless i) are out of the tool's domain
    @given(st.text(alphabet="abczåøæäöüß ABCZÅØÆÄÖÜ.,!123", max_size=80))
    def test_case_folding_invariance(self, text):
        for mode in (LETTERS, WORDS):
            try:
                upper = tokenize(text.upper(), mode)
            except EmptyDistribution:
                continue
            plain = tokenize(text, mode)
            assert upper.counts == plain.counts

    @given(texts)
    def test_no_zero_counts_and_total(self, text):
        try:
            d = tokenize(text, LETTERS)
        except EmptyDistribution:
            return
        assert all(v >= 1 for v in d.counts.values())
        assert d.total == sum(d.counts.values())


def _loop_counts(text: str, mode: TokenizationMode) -> dict[str, int]:
    """Reference: the per-token counting loop `tokenize` used before Counter."""
    if mode.kind in ("letter_unigram", "letter_ngram"):
        stream = tokenization._letter_stream(text, mode)
        joiner = ""
    else:
        stream = tokenization._word_stream(text, mode)
        joiner = " "
    n = 1 if "unigram" in mode.kind else mode.n
    counts: dict[str, int] = {}
    for i in range(len(stream) - n + 1):
        token = joiner.join(stream[i : i + n]) if n > 1 else stream[i]
        counts[token] = counts.get(token, 0) + 1
    return counts


class TestCountingMatchesLoop:
    ALPHABET = "abcåøæß ABÅØ.,'’!1\n"
    MODES = [
        TokenizationMode(kind, n=n)
        for kind in ("letter_ngram", "word_ngram")
        for n in range(1, 6)
    ] + [LETTERS, WORDS]

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: f"{m.kind}:{m.n}")
    def test_counts_and_order_match_loop(self, mode):
        rng = random.Random(f"{mode.kind}:{mode.n}")
        for length in [*range(12), *(rng.randrange(12, 600) for _ in range(40))]:
            text = "".join(rng.choice(self.ALPHABET) for _ in range(length))
            expected = _loop_counts(text, mode)
            if not expected:  # stream shorter than n
                with pytest.raises(EmptyDistribution):
                    tokenize(text, mode)
                continue
            counts = tokenize(text, mode).counts
            assert counts == expected
            assert list(counts) == list(expected)


def _assert_matches_dense_of_tokenize(texts, mode):
    """`count_matrix` against its reference: `tokenize` each text, then the dict
    API's `_dense`."""
    counts, totals = tokenization.count_matrix(texts, mode)
    want_counts, want_totals = similarity._dense(
        [tokenize(t, mode, f"c{i}") for i, t in enumerate(texts)]
    )
    assert counts.dtype == totals.dtype == np.float64
    assert np.array_equal(counts, want_counts)
    assert np.array_equal(totals, want_totals)


def _has_tokens(text, mode):
    try:
        tokenize(text, mode)
    except EmptyDistribution:
        return False
    return True


ALL_MODES = [
    TokenizationMode(kind, n=n, case_folding=folding, drop_non_letters=drop)
    for kind in tokenization.KINDS
    for n in range(1, 6)
    for folding in (True, False)
    for drop in (True, False)
]

# casefold-expanding (ß, ﬁ, İ), non-BMP (𝔄), a lone surrogate, digits, both apostrophes
EXOTIC = "aAbBåÅzßﬁİ𝔄\ud800" + "09" + "'’" + " .,!\n"
exotic_texts = st.lists(st.sampled_from(EXOTIC), max_size=60).map("".join)


class TestCountMatrix:
    """`count_matrix` counts what `tokenize` counts, in `_dense`'s layout."""

    @pytest.mark.parametrize(
        "mode", ALL_MODES,
        ids=lambda m: f"{m.kind}:{m.n}-fold{int(m.case_folding)}-drop{int(m.drop_non_letters)}",
    )
    def test_matches_dense_of_tokenize(self, mode):
        rng = random.Random(f"{mode}")
        texts = ["".join(rng.choice(EXOTIC) for _ in range(rng.randrange(40, 400)))
                 for _ in range(6)]
        texts = [t for t in texts if _has_tokens(t, mode)]
        assert len(texts) >= 2
        _assert_matches_dense_of_tokenize(texts, mode)

    @given(st.lists(exotic_texts, min_size=1, max_size=5), st.sampled_from(ALL_MODES))
    def test_matches_dense_of_tokenize_on_any_text(self, texts, mode):
        texts = [t for t in texts if _has_tokens(t, mode)]
        if texts:
            _assert_matches_dense_of_tokenize(texts, mode)

    def test_alphabet_beyond_int64_mixed_radix(self):
        # 7,000 letters at n = 5: the mixed-radix codes of the 5-grams would pass 2**63
        alphabet = [chr(0x4E00 + k) for k in range(7000)]
        assert all(c.isalpha() for c in alphabet) and len(alphabet) ** 5 >= 2**63
        rng = random.Random(5)
        shuffled = rng.sample(alphabet, len(alphabet))
        texts = ["".join(shuffled)]
        texts += ("".join(rng.choices(alphabet[:40], k=1500)) for _ in range(3))
        _assert_matches_dense_of_tokenize(texts, TokenizationMode("letter_ngram", n=5))

    def test_case_folding_maps_each_character_on_its_own(self):
        # the alphabet is built from the folded characters, not the folded texts
        every = "".join(map(chr, range(0x110000)))
        assert every.casefold() == "".join(c.casefold() for c in every)

    def test_text_without_tokens_gives_zero_row(self):
        counts, totals = tokenization.count_matrix(["Aab", "... 1 !!", "b"], LETTERS)
        assert counts.tolist() == [[2.0, 1.0], [0.0, 0.0], [0.0, 1.0]]
        assert totals.tolist() == [3.0, 0.0, 1.0]
