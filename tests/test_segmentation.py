"""`prepare_chunks` from turns to chunks: each speaker's turns joined in
speaking order, aliases included, then the front of each kept speaker's
dialogue cut into equal chunks and labelled. Hand-built plays name their
speakers as `parse_play` writes them."""
import pytest
from hypothesis import given, strategies as st

from dramastyle import (
    ConfigError,
    ParseRules,
    PipelineError,
    PlayScript,
    RawDocument,
    SpeechTurn,
    StatisticsError,
    parse_play,
)
from dramastyle.experiment import prepare_chunks
from chunk_config import chunk_config


def _chunks(plays, *settings, aliases=None):
    """`prepare_chunks` of `plays` under a config of the chunking `settings`."""
    return prepare_chunks(plays, chunk_config(plays, *settings, aliases))


def _play(play_id, pairs, translator="original"):
    """A play of (speaker, text) turns, in that order."""
    turns = tuple(SpeechTurn(speaker, text, i) for i, (speaker, text) in enumerate(pairs))
    return PlayScript(play_id, "x", translator, turns)


def _joined(chunks):
    """Each speaker's chunks put back together, in chunk_id order."""
    texts = {}
    for c in chunks:
        texts[c.source[2]] = texts.get(c.source[2], "") + c.text
    return texts


class TestTurnsJoined:
    def test_concatenation_in_speaking_order(self):
        play = _play("p", [("a", "x1"), ("b", "y1 y2"), ("a", "x2")])
        chunks, _ = _chunks([play], "character", 5, 5, 1)
        assert _joined(chunks) == {"a": "x1 x2", "b": "y1 y2"}

    def test_single_turn(self):
        play = _play("p", [("a", "only line"), ("b", "other one")])
        chunks, _ = _chunks([play], "character", 9, 3, 3)
        assert _joined(chunks) == {"a": "only line", "b": "other one"}

    def test_total_length_preserved(self):
        play = _play("p", [("a", "one"), ("b", "two"), ("a", "three"), ("b", "four")])
        _, eligibility = _chunks([play], "character", 2, 2, 1)
        joiners = sum(len([t for t in play.turns if t.speaker == r["speaker"]]) - 1
                      for r in eligibility)
        assert sum(r["chars"] for r in eligibility) == (
            sum(len(t.text) for t in play.turns) + joiners
        )

    def test_aliased_turns_come_in_speaking_order(self):
        # one speaker under two headings: the window is cut from its turns in order
        play = _play("p", [("mrs. alving", "A1"), ("mrs alving", "B1"),
                           ("mrs. alving", "A2"), ("regina", "R1 R2 R3")])
        aliases = {("p", "original"): {"mrs. alving": "mrs alving"}}
        chunks, eligibility = _chunks([play], "character", 8, 4, 2, aliases=aliases)
        assert _joined(chunks) == {"mrs alving": "A1 B1 A2", "regina": "R1 R2 R3"}
        assert [r["speaker"] for r in eligibility] == ["mrs alving", "regina"]

    def test_alias_written_as_its_heading_merges(self):
        # the alias and the heading are normalized by the same rule
        text = "MRS. ALVING. A1\nMRS ALVING. B1\nREGINA. R1 R2\nMRS. ALVING. A2\n"
        play = parse_play(RawDocument("p.txt", text), ParseRules(), "p", "x")
        aliases = {("p", "original"): {"MRS. ALVING.": "mrs alving"}}
        chunks, eligibility = _chunks([play], "character", 5, 5, 1, aliases=aliases)
        assert _joined(chunks) == {"mrs alving": "A1 B1", "regina": "R1 R2"}
        assert [r["speaker"] for r in eligibility] == ["mrs alving", "regina"]

    def test_play_without_turns_is_skipped(self):
        plays = [_play("p", [("a", "xx"), ("b", "yy")]), _play("q", [])]
        chunks, eligibility = _chunks(plays, "character", 2, 2, 1)
        assert {c.source[0] for c in chunks} == {"p"}
        assert [r["play_id"] for r in eligibility] == ["p", "p"]


class TestCutting:
    def test_five_sections_of_2000(self):
        play = _play("p", [("a", "x" * 10000), ("b", "y" * 10000)])
        chunks, _ = _chunks([play], "character", 10000, 5, 2000)
        assert [c.chunk_id for c in chunks] == [f"{s}#{i:02d}" for s in "ab" for i in range(5)]
        assert all(len(c.text) == 2000 for c in chunks)

    def test_tail_truncated(self):
        text = "".join(chr(97 + i % 26) for i in range(10700))
        play = _play("p", [("a", text), ("b", "y" * 10000)])
        chunks, eligibility = _chunks([play], "character", 10000, 5, 2000)
        assert _joined(chunks)["a"] == text[:10000]
        assert [(r["chars"], r["chars_used"]) for r in eligibility] == [
            (10700, 10000), (10000, 10000)
        ]

    @given(
        st.lists(st.tuples(st.sampled_from(["alfa", "mrs. alfa", "bravo"]), st.text(max_size=30)),
                 max_size=12),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=20),
    )
    def test_chunks_are_the_front_of_the_turns_in_order(self, turns, count, size):
        window = count * size
        # two long speakers, so that the run always has 2 categories
        play = _play("p", [*turns, ("yankee", "y" * window), ("zulu", "z" * window)])
        aliases = {("p", "original"): {"MRS. ALFA.": "alfa"}}
        chunks, _ = _chunks([play], "character", window, count, size, aliases=aliases)
        joined = _joined(chunks)
        assert {len(c.text) for c in chunks} == {size}
        for speaker, names in (("alfa", ("alfa", "mrs. alfa")), ("bravo", ("bravo",))):
            text = " ".join(t for s, t in turns if s in names)
            if len(text) >= window:
                assert joined[speaker] == text[:window]
            else:
                assert speaker not in joined


class TestLabelling:
    PLAYS = [
        _play("p1", [("nora", "a" * 400), ("helmer", "b" * 400)]),
        _play("p2", [("hilde", "c" * 400)]),
    ]

    def test_character_labeling(self):
        chunks, _ = _chunks(self.PLAYS, "character", 400, 2, 100)
        assert {c.category for c in chunks} == {"nora", "helmer", "hilde"}
        assert len(chunks) == 6
        assert len({c.chunk_id for c in chunks}) == 6
        assert [c.chunk_id for c in chunks] == sorted(c.chunk_id for c in chunks)

    def test_play_labeling_numbers_across_characters(self):
        chunks, _ = _chunks(self.PLAYS, "play", 400, 2, 100)
        p1 = [c for c in chunks if c.category == "p1"]
        # sources in sorted order: helmer's chunks first
        assert [(c.chunk_id, c.source[2]) for c in p1] == [
            ("p1#00", "helmer"), ("p1#01", "helmer"), ("p1#02", "nora"), ("p1#03", "nora"),
        ]

    def test_translator_qualified_labeling(self):
        plays = [_play("p", [("ola", "x" * 200)], "alpha"),
                 _play("p", [("ola", "y" * 200)], "beta")]
        chunks, _ = _chunks(plays, "character_by_translator", 200, 2, 100)
        assert {c.category for c in chunks} == {"ola@alpha", "ola@beta"}

    def test_equal_size_invariant(self):
        chunks, _ = _chunks(self.PLAYS, "character", 400, 3, 120)
        assert {len(c.text) for c in chunks} == {120}

    def test_deterministic(self):
        a = _chunks(self.PLAYS, "character", 400, 2, 100)[0]
        b = _chunks(self.PLAYS[::-1], "character", 400, 2, 100)[0]
        assert a == b

    def test_single_category_rejected(self):
        with pytest.raises(PipelineError) as err:
            _chunks([_play("p", [("solo", "x" * 200)])], "character", 200, 2, 100)
        assert err.value.stage == "segmentation"
        assert isinstance(err.value.cause, StatisticsError)
        assert str(err.value.cause) == "need at least 2 categories, got ['solo']"

    def test_translator_with_at_sign_rejected(self):
        # a category speaker@translator splits at its last '@' into its source
        plays = [_play("p", [("a@x", "x" * 200)], "y"), _play("p", [("b", "x" * 200)], "z")]
        chunks, _ = _chunks(plays, "character_by_translator", 200, 2, 100)
        assert {c.category.rpartition("@")[::2] for c in chunks} == {("a@x", "y"), ("b", "z")}
        # else speaker a@x of translator y and speaker a of translator x@y share category a@x@y
        plays[1] = _play("p", [("a", "x" * 200)], "x@y")
        with pytest.raises(ConfigError, match="corpus translator must not contain '@', got 'x@y'"):
            chunk_config(plays, "character_by_translator", 200, 2, 100)

    def test_unknown_labeling_rejected(self):
        # by the config, before any turn is read
        with pytest.raises(ConfigError, match="unknown labeling mode 'bogus'"):
            chunk_config(self.PLAYS, "bogus", 400, 2, 100)
