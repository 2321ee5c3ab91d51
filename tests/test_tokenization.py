import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dramastyle import ConfigError, PreconditionFailed, TokenizationMode, count_matrix
from dramastyle import tokenization
from reference_counts import _ref_stream, _ref_tokenize, _rows

LETTERS = TokenizationMode("letter")
WORDS = TokenizationMode("word")
# the 10 modes: each unit with n = 1 (the unigram) to 5
ALL_MODES = [TokenizationMode(unit, n) for unit in tokenization.UNITS for n in range(1, 6)]

texts = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Po", "Zs")),
    max_size=80,
)


def _assert_counts(texts, mode, want):
    """`count_matrix(texts, mode)` is the rows of the token -> count maps `want`."""
    counts = count_matrix(texts, mode)
    assert counts.dtype == np.float64
    assert np.array_equal(counts, _rows(want))


class TestLetterModes:
    def test_fold_and_drop_non_letters(self):
        _assert_counts(["Aab!"], LETTERS, [{"a": 2, "b": 1}])

    def test_bigram(self):
        _assert_counts(["abab"], TokenizationMode("letter", 2), [{"ab": 2, "ba": 1}])

    def test_multibyte_letters_counted_once(self):
        _assert_counts(["håp på"], LETTERS, [{"h": 1, "å": 2, "p": 2}])


class TestWordModes:
    def test_split_on_non_alnum(self):
        _assert_counts(["to be, to be"], WORDS, [{"to": 2, "be": 2}])

    def test_apostrophe_kept_inside_word(self):
        _assert_counts(["Don't don't"], WORDS, [{"don't": 2}])

    def test_word_bigrams(self):
        _assert_counts(["a b a b"], TokenizationMode("word", 2), [{"a b": 2, "b a": 1}])


class TestModeValidation:
    def test_n_bounds(self):
        with pytest.raises(ValueError):
            TokenizationMode("letter", 6)
        with pytest.raises(ValueError):
            TokenizationMode("letter", 0)

    # each equals an int n, but would spell a name no other mode has (letter_ngram2.0)
    @pytest.mark.parametrize("n", [True, 2.0, 3.0, np.float64(4.0)], ids=repr)
    def test_n_is_an_int(self, n):
        with pytest.raises(ValueError):
            TokenizationMode("letter", n)

    def test_unknown_unit(self):
        with pytest.raises(ValueError):
            TokenizationMode("syllable")

    def test_parse_notation(self):
        assert TokenizationMode.parse("letter_ngram:3") == TokenizationMode("letter", 3)
        assert TokenizationMode.parse("word_unigram") == WORDS

    @pytest.mark.parametrize("spec, unit, n, name", [
        ("letter_unigram", "letter", 1, "letter_unigram"),
        ("letter_ngram:2", "letter", 2, "letter_ngram2"),
        ("letter_ngram:3", "letter", 3, "letter_ngram3"),
        ("letter_ngram:4", "letter", 4, "letter_ngram4"),
        ("letter_ngram:5", "letter", 5, "letter_ngram5"),
        ("word_unigram", "word", 1, "word_unigram"),
        ("word_ngram:2", "word", 2, "word_ngram2"),
        ("word_ngram:3", "word", 3, "word_ngram3"),
        ("word_ngram:4", "word", 4, "word_ngram4"),
        ("word_ngram:5", "word", 5, "word_ngram5"),
    ])
    def test_spelling_parses_to_its_mode(self, spec, unit, n, name):
        mode = TokenizationMode.parse(spec)
        assert mode == TokenizationMode(unit, n)
        assert (mode.spec, mode.name) == (spec, name)

    def test_each_mode_has_one_spelling_and_its_name(self):
        assert len(set(ALL_MODES)) == 10
        assert [TokenizationMode.parse(m.spec) for m in ALL_MODES] == ALL_MODES
        assert [m.name for m in ALL_MODES] == [
            "letter_unigram", "letter_ngram2", "letter_ngram3", "letter_ngram4", "letter_ngram5",
            "word_unigram", "word_ngram2", "word_ngram3", "word_ngram4", "word_ngram5",
        ]

    @pytest.mark.parametrize("spec", [
        "letter_ngram", "letter_ngram:", "letter_ngram:1", "word_ngram", "letter_ngram:03",
        "letter_ngram: 3", "letter_ngram:6", "letter_unigram:3", "word_unigram:1",
        "letter_unigram:",
        # int() reads each of these N as 3 or 0
        "letter_ngram:+3", "letter_ngram:3 ", "letter_ngram:\u0663", "letter_ngram:\uff13",
        "word_ngram:0",
        # a mode's name, another case, nothing
        "letter_ngram3", "Letter_Unigram", "",
    ])
    def test_parse_rejects_other_spellings(self, spec):
        with pytest.raises(ConfigError, match=re.escape(f"unknown tokenization mode {spec!r}")):
            TokenizationMode.parse(spec)


class TestProperties:
    @given(texts, texts)
    def test_unigram_additivity(self, a, b):
        for mode in (LETTERS, WORDS):
            # word tokens may fuse at the boundary; separate with a space
            joined = a + " " + b if mode is WORDS else a + b
            counts = count_matrix([a, b, joined], mode)
            assert np.array_equal(counts[0] + counts[1], counts[2])

    # alphabets of the corpus languages; exotic scripts with asymmetric
    # case mappings (dotless i) are out of the tool's domain
    @given(st.text(alphabet="abczåøæäöüß ABCZÅØÆÄÖÜ.,!123", max_size=80))
    def test_case_folding_invariance(self, text):
        for mode in (LETTERS, WORDS):
            counts = count_matrix([text.upper(), text], mode)
            assert np.array_equal(counts[0], counts[1])

    @given(st.lists(texts, min_size=1, max_size=4))
    def test_no_unused_columns_and_integer_counts(self, batch):
        counts = count_matrix(batch, LETTERS)
        assert counts.any(axis=0).all()
        assert (counts >= 0).all() and np.array_equal(counts, np.round(counts))


def _loop_counts(text: str, mode: TokenizationMode) -> dict[str, int]:
    """Reference: a per-token counting loop over the token stream."""
    stream, joiner = _ref_stream(text, mode)
    n = mode.n
    counts: dict[str, int] = {}
    for i in range(len(stream) - n + 1):
        token = joiner.join(stream[i : i + n]) if n > 1 else stream[i]
        counts[token] = counts.get(token, 0) + 1
    return counts


class TestCountingMatchesLoop:
    ALPHABET = "abcåøæß ABÅØ.,'’!1\n"

    # lengths 0-11 give texts whose stream is shorter than n: zero rows
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.spec)
    def test_counts_match_loop(self, mode):
        rng = random.Random(mode.spec)
        texts = ["".join(rng.choice(self.ALPHABET) for _ in range(length))
                 for length in [*range(12), *(rng.randrange(12, 600) for _ in range(40))]]
        _assert_counts(texts, mode, [_loop_counts(t, mode) for t in texts])


def _assert_matches_reference(texts, mode):
    """`count_matrix` against its reference: `_ref_tokenize` each text, in rows."""
    _assert_counts(texts, mode, [_ref_tokenize(t, mode) for t in texts])


# casefold-expanding (ß, ﬁ, İ), non-BMP (𝔄), a lone surrogate, the largest code
# point (a non-letter: its code-point table has every entry), digits, both apostrophes
EXOTIC = "aAbBåÅzßﬁİ𝔄\ud800\U0010FFFF" + "09" + "'’" + " .,!\n"
exotic_texts = st.lists(st.sampled_from(EXOTIC), max_size=60).map("".join)

# the alphabets the random texts are drawn from: exotic characters; the letters
# of the corpus languages with their punctuation; letters sparse among digits
# and punctuation, so that letter streams are short and most words are digit
# runs; two letters, so that few distinct grams repeat many times
ALPHABETS = {
    "exotic": EXOTIC,
    "corpus": "abcdefghijklmnopqrstuvwxyzæøåäöüéABCDEFGHIJKLMNOPQRSTUVWXYZÆØÅÄÖÜÉ"
    + "     .,;:!?-'’\n",
    "sparse": "aBå" + " .,;:!?-\n0123456789",
    "binary": "aB  ",
    # words that are prefixes of one another, with both apostrophes inside:
    # word n-grams sort as their word tuples because a space sorts below both
    "prefix": "ab'’ ",
}


class TestCountMatrix:
    """`count_matrix` counts what `_ref_tokenize` counts, in `_rows`'s layout."""

    @pytest.mark.parametrize("alphabet", ALPHABETS)
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.spec)
    def test_matches_reference(self, mode, alphabet):
        rng = random.Random(f"{mode}-{alphabet}")
        chars = ALPHABETS[alphabet]
        texts = ["".join(rng.choice(chars) for _ in range(rng.randrange(40, 400)))
                 for _ in range(6)]
        assert sum(bool(_ref_tokenize(t, mode)) for t in texts) >= 2
        _assert_matches_reference(texts, mode)

    @given(st.lists(exotic_texts, min_size=1, max_size=5), st.sampled_from(ALL_MODES))
    def test_matches_reference_on_any_text(self, texts, mode):
        _assert_matches_reference(texts, mode)

    @pytest.mark.parametrize("unit", tokenization.UNITS)
    def test_alphabet_beyond_int64_mixed_radix(self, unit):
        # 7,000 letters or words at n = 5: the mixed-radix codes of the 5-grams
        # would pass 2**63, so they are compressed to ranks on the way
        if unit == "letter":
            alphabet, joiner = [chr(0x4E00 + k) for k in range(7000)], ""
        else:
            alphabet, joiner = [f"w{k}" for k in range(7000)], " "
        assert all(_ref_stream(t, TokenizationMode(unit))[0] == [t] for t in alphabet)
        assert len(alphabet) ** 5 >= 2**63
        rng = random.Random(5)
        shuffled = rng.sample(alphabet, len(alphabet))
        texts = [joiner.join(shuffled)]
        texts += (joiner.join(rng.choices(alphabet[:40], k=1500)) for _ in range(3))
        _assert_matches_reference(texts, TokenizationMode(unit, 5))

    @pytest.mark.parametrize("size", [15, 16, 17, 255, 256, 257])
    @pytest.mark.parametrize("unit", tokenization.UNITS)
    def test_code_type_boundaries(self, unit, size):
        # size**2 falls just below, at and just above 2**8 and 2**16: from 16
        # and 256 letters or words on, the bigram codes need a wider type
        # than the digits they are built from
        alphabet, joiner = [chr(0x4E00 + k) for k in range(size)], "" if unit == "letter" else " "
        rng = random.Random(size)
        texts = [joiner.join(rng.sample(alphabet, size))]
        texts += (joiner.join(rng.choices(alphabet, k=3 * size)) for _ in range(3))
        assert sorted(_ref_stream(texts[0], TokenizationMode(unit))[0]) == alphabet
        _assert_matches_reference(texts, TokenizationMode(unit, 2))

    def test_text_without_tokens_gives_zero_row(self):
        counts = count_matrix(["Aab", "... 1 !!", "", "b"], LETTERS)
        assert counts.tolist() == [[2.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("mode", [LETTERS, WORDS, TokenizationMode("letter", 3)],
                             ids=lambda m: m.name)
    def test_no_texts_rejected(self, mode):
        with pytest.raises(PreconditionFailed, match="at least one text"):
            count_matrix([], mode)

    @pytest.mark.parametrize("text, mode", [("abc", LETTERS), ("ab ab", WORDS)],
                             ids=["letter", "word"])
    def test_bare_str_rejected(self, text, mode):
        # a str is a sequence of one-character texts: one row per character
        with pytest.raises(PreconditionFailed, match="not a str"):
            count_matrix(text, mode)
