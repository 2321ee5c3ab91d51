import pytest
from hypothesis import given, strategies as st

from dramastyle import (
    ConfigError,
    DegenerateCategory,
    InsufficientText,
    PreconditionFailed,
    build_chunks,
    chunk_text,
)


class TestChunkText:
    def test_five_sections_of_2000(self):
        chunks = chunk_text("x" * 10000, 5, 2000)
        assert len(chunks) == 5
        assert all(len(c) == 2000 for c in chunks)

    def test_tail_truncated(self):
        text = "".join(chr(97 + i % 26) for i in range(10700))
        chunks = chunk_text(text, 5, 2000)
        assert len(chunks) == 5
        assert "".join(chunks) == text[:10000]

    def test_insufficient_text(self):
        with pytest.raises(InsufficientText):
            chunk_text("x" * 9999, 5, 2000)

    @pytest.mark.parametrize("count, size, problem", [
        (1, 10, "chunk_count must be at least 2"),
        (0, 10, "chunk_count must be at least 2"),
        (2, 0, "chunk_size must be at least 1"),
        (2, -1, "chunk_size must be at least 1"),
    ])
    def test_bad_chunking_is_precondition_failed(self, count, size, problem):
        with pytest.raises(PreconditionFailed, match=problem):
            chunk_text("x" * 100, count, size)

    @given(
        st.text(min_size=0, max_size=200),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=20),
    )
    def test_concatenation_is_prefix(self, text, count, size):
        if len(text) < count * size:
            with pytest.raises(InsufficientText):
                chunk_text(text, count, size)
        else:
            chunks = chunk_text(text, count, size)
            assert "".join(chunks) == text[: count * size]
            assert len({len(c) for c in chunks}) == 1


class TestBuildChunks:
    CHAR_TEXTS = {
        ("p1", "original", "nora"): "a" * 400,
        ("p1", "original", "helmer"): "b" * 400,
        ("p2", "original", "hilde"): "c" * 400,
    }

    def test_character_labeling(self):
        chunks = build_chunks(self.CHAR_TEXTS, "character", 2, 100)
        assert {c.category for c in chunks} == {"nora", "helmer", "hilde"}
        assert len(chunks) == 6
        assert len({c.chunk_id for c in chunks}) == 6
        assert [c.chunk_id for c in chunks] == sorted(c.chunk_id for c in chunks)

    def test_play_labeling_numbers_across_characters(self):
        chunks = build_chunks(self.CHAR_TEXTS, "play", 2, 100)
        p1 = [c for c in chunks if c.category == "p1"]
        assert len(p1) == 4
        assert sorted(c.chunk_id for c in p1) == [f"p1#{i:02d}" for i in range(4)]

    def test_translator_qualified_labeling(self):
        texts = {("p", "alpha", "ola"): "x" * 200, ("p", "beta", "ola"): "y" * 200}
        chunks = build_chunks(texts, "character_by_translator", 2, 100)
        assert {c.category for c in chunks} == {"ola@alpha", "ola@beta"}

    def test_equal_size_invariant(self):
        chunks = build_chunks(self.CHAR_TEXTS, "character", 3, 120)
        assert {len(c.text) for c in chunks} == {120}

    def test_deterministic(self):
        a = build_chunks(self.CHAR_TEXTS, "character", 2, 100)
        b = build_chunks(dict(reversed(list(self.CHAR_TEXTS.items()))), "character", 2, 100)
        assert a == b

    def test_single_category_rejected(self):
        with pytest.raises(DegenerateCategory, match="need at least 2 categories"):
            build_chunks({("p", "t", "solo"): "x" * 200}, "character", 2, 100)

    def test_unknown_labeling_rejected(self):
        with pytest.raises(ConfigError, match="unknown labeling mode 'bogus'"):
            build_chunks(self.CHAR_TEXTS, "bogus", 2, 100)
