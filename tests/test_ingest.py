import random
import re
import unicodedata

import pytest
from hypothesis import given, strategies as st

from dramastyle import (
    CorpusError,
    ParseRules,
    RawDocument,
    load_document,
    parse_play,
    strip_boilerplate,
)
from dramastyle import ingest
from dramastyle.ingest import (
    PlayScript,
    SpeechTurn,
    match_speaker_heading,
    normalize_speaker,
    play_to_json,
    remove_stage_directions,
)

RULES = ParseRules()


def doc(text):
    return RawDocument("test", text)


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["no_bom", "bom"])
@pytest.mark.parametrize("text", [
    "NORA. Yes.\r\nHELMER. No.\r\n",
    "NORA. Yes.\rHELMER. No.\r",
    "NORA. Yes.\r\r\nHELMER. No.\r\r\n",
    "NORA. Yes.\r\nHELMER. No.\rNORA. So.\nE\u0301lise. \r\r\n\n\rEnd\n\r",
    "NORA. Yes.\nE\u0301LISE. No.\r",
    "NORA. Yes.\nE\u0301LISE. No.\n",
], ids=["crlf", "cr", "cr_crlf", "mixed", "cr_last", "no_cr"])
def test_load_document_ends_lines_with_lf(tmp_path, bom, text):
    path = tmp_path / "play.txt"
    path.write_bytes(bom + text.encode("utf-8"))
    expected = unicodedata.normalize("NFC", text).replace("\r\n", "\n").replace("\r", "\n")
    assert load_document(path).text == expected


def test_latin1_is_an_nfc_fixed_point():
    # load_document skips the NFC pass on text that encodes as Latin-1
    chars = [chr(c) for c in range(256)]
    assert all(unicodedata.is_normalized("NFC", c) for c in chars)
    assert all(unicodedata.is_normalized("NFC", a + b) for a in chars for b in chars)


@pytest.mark.parametrize("encoding", ["utf-8", "latin-1"])
def test_load_document_keeps_latin1_text(tmp_path, encoding):
    path = tmp_path / "play.txt"
    path.write_bytes("FRU ALVING. Så?\n".encode(encoding))
    loaded = load_document(path, latin1_fallback=True)
    assert loaded.text == "FRU ALVING. Så?\n"
    assert loaded.encoding_note == {"utf-8": "utf-8", "latin-1": "latin-1 fallback"}[encoding]


def test_load_document_composes_a_combining_mark(tmp_path):
    # every other character is Latin-1: the mark alone makes the NFC pass run
    path = tmp_path / "play.txt"
    path.write_bytes("FRU ALVING. Sa\u030a?\n".encode("utf-8"))
    assert load_document(path).text == "FRU ALVING. Så?\n"


class TestStripBoilerplate:
    def test_no_markers_is_identity(self):
        d = doc("NORA. Hello.\nHELMER. Hi.\n")
        assert strip_boilerplate(d, RULES).text == d.text

    def test_markers_cut_header_and_footer(self):
        d = doc("HDR\n*** START OF X ***\nBODY\n*** END OF X ***\nFTR")
        assert strip_boilerplate(d, RULES).text == "BODY\n"

    def test_lone_start_marker_errors(self):
        with pytest.raises(CorpusError, match="start marker without end marker$"):
            strip_boilerplate(doc("a\n*** START OF X ***\nb\n"), RULES)

    def test_lone_end_marker_errors(self):
        with pytest.raises(CorpusError, match="end marker without start marker$"):
            strip_boilerplate(doc("a\n*** END OF X ***\nb\n"), RULES)


class TestSpeakerHeading:
    @pytest.mark.parametrize(
        "line,name,rest",
        [
            ("NORA. Hello there.", "NORA.", "Hello there."),
            ("Nora: Hello.", "Nora:", "Hello."),
            ("MRS. ALVING. How nice.", "MRS. ALVING.", "How nice."),
            ("Mrs. Linde. Hello.", "Mrs. Linde.", "Hello."),
            ("Nora. Yes.", "Nora.", "Yes."),
            ("PASTOR MANDERS. Quite so.", "PASTOR MANDERS.", "Quite so."),
        ],
    )
    def test_matches(self, line, name, rest):
        assert match_speaker_heading(line, RULES) == (name, rest)

    @pytest.mark.parametrize(
        "line",
        [
            "and the street was mine.",
            "THE MINIATURE PLAY",
            "[She dances.]",
            "",
            "   ",
            "lowercase. not a name.",
        ],
    )
    def test_rejects(self, line):
        assert match_speaker_heading(line, RULES) is None

    def test_dialogue_after_name_not_swallowed(self):
        # "I am glad" must not extend the heading past NORA
        assert match_speaker_heading("NORA. I am glad.", RULES) == ("NORA.", "I am glad.")


class TestParsePlay:
    def test_empty_input_raises(self):
        with pytest.raises(CorpusError, match="no speaker heading matched$"):
            parse_play(doc("no headings here, just prose.\n"), RULES, "p", "en")

    def test_two_turns_with_stage_direction_line(self):
        play = parse_play(
            doc("NORA. Hello there.\n[She dances.]\nHELMER. Hi.\n"), RULES, "p", "en"
        )
        assert [(t.speaker, t.text) for t in play.turns] == [
            ("nora", "Hello there."),
            ("helmer", "Hi."),
        ]

    def test_inline_direction_removed_and_whitespace_collapsed(self):
        play = parse_play(doc("NORA. I am (laughing) glad.\n"), RULES, "p", "en")
        assert play.turns[0].text == "I am glad."

    def test_nested_directions_removed_innermost_first(self):
        play = parse_play(doc("NORA. So [he (slowly) exits] it ends.\n"), RULES, "p", "en")
        assert play.turns[0].text == "So it ends."

    def test_multi_line_turns_joined(self):
        play = parse_play(doc("NORA. First line\nsecond line.\nHELMER. Hi.\n"), RULES, "p", "en")
        assert play.turns[0].text == "First line second line."

    def test_preamble_before_first_heading_discarded(self):
        play = parse_play(doc("Title page prose\nNORA. Hello.\n"), RULES, "p", "en")
        assert len(play.turns) == 1

    def test_ordinals_strictly_increasing(self):
        play = parse_play(
            doc("NORA. A.\nHELMER. B.\nNORA. C.\nHELMER. D.\n"), RULES, "p", "en"
        )
        assert [t.ordinal for t in play.turns] == [0, 1, 2, 3]

    def test_unmatched_bracket_is_warning_not_error(self):
        play = parse_play(doc("NORA. Hello [there.\nHELMER. Hi.\n"), RULES, "p", "en")
        assert play.warnings
        assert "[there." in play.turns[0].text

    def test_stage_direction_removal_idempotent(self):
        play = parse_play(
            doc("NORA. A [x] b (y) c.\nHELMER. Plain [nested (deep) one].\n"),
            RULES, "p", "en",
        )
        for t in play.turns:
            again, warns = remove_stage_directions(t.text, RULES)
            assert again == t.text
            assert not warns


class TestNormalizeSpeaker:
    def test_casefold_collapse_strip(self):
        assert normalize_speaker("  MRS.   ALVING. ") == "mrs. alving"
        # a space before trailing punctuation goes with it
        assert normalize_speaker("NORA :.") == normalize_speaker("nora") == "nora"

    def test_distinct_variants_stay_distinct(self):
        assert normalize_speaker("MRS. ALVING") != normalize_speaker("MRS ALVING")

    @given(st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Zs")), max_size=30))
    def test_pure_function(self, name):
        assert normalize_speaker(name) == normalize_speaker(name)

    # an alias table is normalized each time its config entry is built
    @given(st.text(alphabet=st.one_of(st.characters(), st.sampled_from(" .,:;\t\u3000ß")),
                   max_size=30))
    def test_idempotent(self, name):
        once = normalize_speaker(name)
        assert normalize_speaker(once) == once


# Reference parser: the heading matcher, stage-direction remover and turn
# assembly as they were before the exact prefilter, cached bracket patterns
# and the whitespace collapse by `str.replace` passes (`ingest._collapse`).
# The current parser must agree with them.

_REF_HONORIFICS = {"mr", "mrs", "ms", "dr", "st", "fru", "frk", "hr"}

_REF_WS_RE = re.compile(r"\s+")


def _ref_is_upper_word(word: str) -> bool:
    stripped = word.rstrip(".:")
    return bool(stripped) and stripped == stripped.upper() and any(c.isalpha() for c in stripped)


def _ref_is_title_word(word: str) -> bool:
    stripped = word.rstrip(".:")
    return bool(stripped) and stripped[0].isupper()


def _ref_match_speaker_heading(line: str, rules: ParseRules) -> tuple[str, str] | None:
    stripped = line.lstrip()
    if not stripped:
        return None
    tokens = list(re.finditer(r"\S+", stripped))
    last_end: int | None = None
    for i, m in enumerate(tokens[: rules.max_heading_words]):
        word = m.group()
        delim = next((d for d in rules.delimiters if word.endswith(d)), None)
        core = word[: -len(delim)] if delim else word
        if not core or not _ref_is_title_word(core):
            break
        if delim is None:
            continue
        last_end = m.end()
        # the name may continue past this delimiter
        all_upper = all(_ref_is_upper_word(t.group()) for t in tokens[: i + 1])
        honorific = core.lower() in _REF_HONORIFICS
        nxt = tokens[i + 1].group() if i + 1 < len(tokens) else None
        may_extend = (
            nxt is not None
            and i + 1 < rules.max_heading_words
            and ((all_upper and _ref_is_upper_word(nxt)) or (honorific and _ref_is_title_word(nxt)))
        )
        if not may_extend:
            break
    if last_end is None:
        return None
    return stripped[:last_end], stripped[last_end:].lstrip()


def _ref_remove_stage_directions(text: str, rules: ParseRules) -> tuple[str, list[str]]:
    patterns = [
        re.compile(
            re.escape(o) + "(?:(?!" + re.escape(o) + "|" + re.escape(c) + ").)*" + re.escape(c),
            re.DOTALL,
        )
        for o, c in rules.stage_direction_brackets
    ]
    changed = True
    while changed:
        changed = False
        for pat in patterns:
            text, n = pat.subn("", text)
            changed = changed or n > 0
    warnings = []
    for o, c in rules.stage_direction_brackets:
        for ch in (o, c):
            if ch in text:
                pos = text.index(ch)
                snippet = text[pos : pos + 40].replace("\n", " ")
                warnings.append(f"unmatched {ch!r} kept verbatim near: {snippet!r}")
    return text, warnings


def _ref_parse_turns(text: str, rules: ParseRules) -> tuple[list[SpeechTurn], list[str]]:
    turns: list[SpeechTurn] = []
    warnings: list[str] = []
    current_speaker: str | None = None
    current_lines: list[str] = []

    def flush():
        nonlocal current_speaker, current_lines
        if current_speaker is None:
            current_lines = []
            return
        body, warns = _ref_remove_stage_directions("\n".join(current_lines), rules)
        warnings.extend(warns)
        body = _REF_WS_RE.sub(" ", body).strip()
        speaker = normalize_speaker(current_speaker)
        turns.append(SpeechTurn(speaker=speaker, text=body, ordinal=len(turns)))
        current_speaker, current_lines = None, []

    for line in text.splitlines():
        heading = _ref_match_speaker_heading(line, rules)
        if heading is not None:
            flush()
            current_speaker, rest = heading
            current_lines = [rest] if rest else []
        elif current_speaker is not None:
            current_lines.append(line)
    flush()
    return turns, warnings


_LEADING = ["", " ", "   ", "\t", "\xa0", "\u3000", "\x1c", "\x85", "\u2028", " \xa0"]
_SEPARATORS = [" ", " ", " ", "  ", "\t", "\xa0", "\u3000", "\x1c", "\x85", "\u2028"]
_WORDS = [
    # honorifics, in every case and with or without their period
    "Mrs.", "MRS.", "mrs.", "Mr", "MR.", "Dr.", "St.", "Fru", "FRK.", "Hr.", "Ms.",
    # all-caps runs and title-case names
    "NORA", "HELMER", "ALVING", "PASTOR", "MANDERS", "LINDE", "I", "A", "O'NEILL",
    "Nora", "Linde", "Alving", "Manders", "Osvald", "Øyvind", "Élise", "Ünal",
    # ordinary dialogue
    "yes", "and", "the", "street", "was", "mine", "so", "it", "ends", "ÿes",
    # digits and punctuation first
    "1", "2nd", "42.", "--", "...", "'Tis", '"Nora', "¿Qué", "—", "*",
    # brackets around and inside words
    "[She", "dances.]", "(aside)", "[He", "(slowly)", "exits]", "[", ")",
]


def _seeded_line(rng: random.Random, delimiters: tuple[str, ...]) -> str:
    words = [rng.choice(_WORDS) for _ in range(rng.randint(1, 8))]
    if rng.random() < 0.7:
        # a delimiter at word position 1-6
        k = min(rng.randint(0, 5), len(words) - 1)
        words[k] += rng.choice(delimiters)
    if rng.random() < 0.15:
        words[0] = words[0].lower()
    line = words[0]
    for w in words[1:]:
        line += rng.choice(_SEPARATORS) + w
    return rng.choice(_LEADING) + line + rng.choice(["", "", " ", "\xa0"])


_CUSTOM_RULES = [
    ParseRules(),
    *(ParseRules(max_heading_words=n) for n in range(1, 7)),
    ParseRules(delimiters=("--", "::", "—"), max_heading_words=3),
    ParseRules(delimiters=(":", ".", ".:"), max_heading_words=6),
    ParseRules(delimiters=(".]",), stage_direction_brackets=(("<<", ">>"), ("{", "}"))),
]


class TestAgainstReferenceParser:
    @pytest.mark.parametrize("rules", _CUSTOM_RULES, ids=repr)
    def test_heading_matcher_matches_reference(self, rules):
        rng = random.Random(f"headings:{rules!r}")
        lines = [_seeded_line(rng, rules.delimiters) for _ in range(3000)]
        lines += ["", " ", "\xa0", "\u2028", "NORA.", "Mrs. Linde. Hello.", "1. NORA. x"]
        matched = 0
        for line in lines:
            expected = _ref_match_speaker_heading(line, rules)
            assert match_speaker_heading(line, rules) == expected, repr(line)
            matched += expected is not None
        # the seeded lines exercise both outcomes
        assert 0 < matched < len(lines)

    def test_one_matcher_reads_words_as_names_and_as_dialogue(self):
        rules = ParseRules()
        rng = random.Random("one matcher")
        match = ingest._heading_matcher(rules)
        name_words, dialogue_words = set(), set()
        for _ in range(3000):
            line = _seeded_line(rng, rules.delimiters)
            expected = _ref_match_speaker_heading(line, rules)
            assert match(line) == expected, repr(line)
            size = len(expected[0].split()) if expected else 0
            name_words.update(line.split()[:size])
            dialogue_words.update(line.split()[size:])
        # the matcher met many words in both roles
        assert len(name_words & dialogue_words) > 20

    def test_matchers_for_other_rules_read_the_same_words_apart(self):
        dot = ParseRules(delimiters=(".",), max_heading_words=1)
        dash = ParseRules(delimiters=("--", "::"), max_heading_words=6)
        matchers = [(rules, ingest._heading_matcher(rules)) for rules in (dot, dash)]
        rng = random.Random("two matchers")
        outcomes = set()
        for _ in range(3000):
            line = _seeded_line(rng, (".", "--", "::"))
            for rules, match in matchers:
                expected = _ref_match_speaker_heading(line, rules)
                assert match(line) == expected, (rules, line)
                outcomes.add((rules, expected is None))
        # each matcher both matched and rejected lines
        assert len(outcomes) == 4

    @pytest.mark.parametrize("rules", [
        ParseRules(),
        ParseRules(stage_direction_brackets=(("<<", ">>"), ("{", "}"), ("[", "]"))),
    ], ids=repr)
    def test_stage_direction_remover_matches_reference(self, rules):
        rng = random.Random(f"brackets:{rules!r}")
        marks = [b for pair in rules.stage_direction_brackets for b in pair]
        pieces = ["word", " ", "\n", "\xa0", "Nora.", "x", *marks, *marks]
        for _ in range(2000):
            text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 25)))
            assert remove_stage_directions(text, rules) == _ref_remove_stage_directions(
                text, rules
            ), repr(text)

    @pytest.mark.parametrize("rules", _CUSTOM_RULES[:3] + _CUSTOM_RULES[-3:], ids=repr)
    def test_parse_play_matches_reference_on_capital_heavy_script(self, rules):
        rng = random.Random(f"script:{rules!r}")
        open_, close = rules.stage_direction_brackets[0]
        lines = []
        for _ in range(600):
            line = _seeded_line(rng, rules.delimiters)
            roll = rng.random()
            if roll < 0.2:
                line = f"{open_}{line}{close}"
            elif roll < 0.25:
                line = f"{line} {open_}nested {open_}deep{close} aside{close}"
            elif roll < 0.28:
                line += f" {rng.choice([open_, close])}"
            lines.append(line)
        text = "\n".join(lines) + "\n"
        play = parse_play(doc(text), rules, "p", "en")
        turns, warnings = _ref_parse_turns(text, rules)
        expected = PlayScript("p", "en", "original", tuple(turns))
        assert play_to_json(play) == play_to_json(expected)
        assert list(play.warnings) == warnings
        assert len(turns) > 100 and warnings


def test_regex_whitespace_is_str_isspace():
    """`ingest._SPACES` is the `str.isspace` set, and `\\s` matches the same."""
    ws = re.compile(r"\s")
    disagree = [
        hex(cp) for cp in range(0x110000)
        if (ws.match(chr(cp)) is not None) != chr(cp).isspace()
    ]
    assert disagree == []
    assert ingest._SPACES == "".join(chr(cp) for cp in range(0x110000) if chr(cp).isspace())


def test_edge_case_fixture_matches_golden(data_dir, tmp_path, capsys):
    """Boilerplate markers next to U+2028 and form-feed breaks, both heading
    styles, nested and unmatched stage directions, a heading after a
    form feed and capitalised continuation lines, parsed byte for byte."""
    from dramastyle.cli import main

    out = tmp_path / "edge_cases.json"
    assert main([
        "parse", str(data_dir / "ingest_edge_cases.txt"), "--play-id", "edge_cases",
        "--language", "english", "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (data_dir / "golden" / "ingest_edge_cases.json").read_bytes()
    assert capsys.readouterr().err.splitlines() == [
        "warning: ingest_edge_cases.txt: unmatched '[' kept verbatim near: "
        "'[Aside. She never listens.'",
        "warning: ingest_edge_cases.txt: unmatched ']' kept verbatim near: "
        "'] to the water. Wait for me, Osvald.'",
        "warning: ingest_edge_cases.txt: unmatched '(' kept verbatim near: "
        "'( in the garden. I set it under the ches'",
    ]


# Reference boilerplate cut: the line scan over `splitlines(keepends=True)`
# that `strip_boilerplate` replaced with `str.find`.
def _ref_strip_boilerplate(doc: RawDocument, rules: ParseRules) -> RawDocument:
    lines = doc.text.splitlines(keepends=True)
    start_idx = end_idx = None
    for i, line in enumerate(lines):
        if start_idx is None and rules.boilerplate_start in line:
            start_idx = i
        elif start_idx is not None and rules.boilerplate_end in line:
            end_idx = i
            break
    if start_idx is None:
        if any(rules.boilerplate_end in line for line in lines):
            raise CorpusError(f"{doc.source_id}: end marker without start marker")
        return doc
    if end_idx is None:
        raise CorpusError(f"{doc.source_id}: start marker without end marker")
    body = "".join(lines[start_idx + 1 : end_idx])
    return RawDocument(doc.source_id, body, doc.encoding_note)


# every line break of `str.splitlines`, "\r\n" included
_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error, type and message, is the outcome
        return type(exc), str(exc)


def test_splitlines_breaks_are_the_listed_ones():
    breaks = [chr(cp) for cp in range(0x110000) if len(f"a{chr(cp)}b".splitlines()) == 2]
    assert breaks == sorted(b for b in _BREAKS if len(b) == 1)
    assert "a\r\nb".splitlines() == ["a", "b"]
    assert sorted(ingest._LINE_BREAKS) == breaks
    assert [ingest._LINE_END_RE.fullmatch(b) is not None for b in _BREAKS] == [True] * 11
    assert ingest._LINE_END_RE.match("\r\n").end() == 2


class TestStripBoilerplateAgainstReference:
    @pytest.mark.parametrize("rules", [
        ParseRules(),
        ParseRules(boilerplate_start="<<", boilerplate_end="<<"),
        ParseRules(boilerplate_start="BEGIN", boilerplate_end="END"),
    ], ids=["gutenberg", "same_marker", "nested_words"])
    def test_matches_reference_on_seeded_texts(self, rules):
        rng = random.Random(f"boilerplate:{rules!r}")
        start, end = rules.boilerplate_start, rules.boilerplate_end
        pieces = [
            "plain words", "NORA. Hello.", "", " ", "x", "START", "END OF",
            f"{start} X ***", f"*** {end} X", f"{end}{start}", f"{start}{end}",
            f"{start} and {end}", f"{end} and {start}", "\t", "\xa0",
        ]
        outcomes = set()
        for n in range(3000):
            lines = [rng.choice(pieces) for _ in range(rng.randint(1, 9))]
            if n % 5 == 0:  # markers on the first and on the last line
                lines[0] += f" {start}"
                lines[-1] += f" {end}"
            text = lines[0]
            for line in lines[1:]:
                text += rng.choice(_BREAKS) + line
            if rng.random() < 0.5:
                text += rng.choice(_BREAKS)
            if not text:
                continue
            d = RawDocument("seeded", text)
            got = _outcome(strip_boilerplate, d, rules)
            expected = _outcome(_ref_strip_boilerplate, d, rules)
            if isinstance(expected, RawDocument):
                assert isinstance(got, RawDocument), repr(text)
                got, expected = got.text, expected.text
                outcomes.add("cut" if got != text else "unchanged")
            else:
                outcomes.add(expected[1].split(": ", 1)[1])
            assert got == expected, repr(text)
        expected_outcomes = {
            "cut", "unchanged", "empty document",
            "start marker without end marker", "end marker without start marker",
        }
        if start == end:  # an end marker is then a start marker too
            expected_outcomes.remove("end marker without start marker")
        assert outcomes == expected_outcomes

    @pytest.mark.parametrize("brk", _BREAKS, ids=repr)
    @pytest.mark.parametrize("text", [
        "*** START OF X{b}BODY{b}*** END OF X",  # markers on the first and last line
        "*** START OF X{b}BODY{b}*** END OF X{b}",
        "*** START OF X *** END OF X{b}BODY{b}*** END OF X{b}tail",  # end on start's line
        "*** END OF X{b}*** START OF X{b}BODY{b}*** END OF X",  # end before start
        "head{b}*** START OF X{b}{b}{b}*** END OF X",  # empty lines only
        "head{b}*** START OF X{b}BODY",  # lone start marker
        "head{b}*** END OF X{b}BODY",  # lone end marker
        "head{b}*** START OF X",  # start marker on the last line
        "head{b}*** START OF X *** END OF X",  # both on one line
    ])
    def test_matches_reference_at_each_break(self, brk, text):
        d = RawDocument("fixed", text.format(b=brk))
        got = _outcome(strip_boilerplate, d, RULES)
        expected = _outcome(_ref_strip_boilerplate, d, RULES)
        if isinstance(expected, RawDocument):
            got, expected = got.text, expected.text
        assert got == expected


@pytest.mark.parametrize("rules", [
    ParseRules(),
    ParseRules(max_heading_words=2),
    ParseRules(delimiters=("--", ":"), stage_direction_brackets=(("<<", ">>"), ("{", "}"))),
], ids=repr)
@pytest.mark.parametrize(
    "brk", ["\r", "\r\n", "\x0b", "\x0c", "\x1d", "\x1e", "\u2028", "\u2029"], ids=repr
)
def test_parse_play_matches_reference_at_each_line_break(rules, brk):
    rng = random.Random(f"breaks:{rules!r}:{brk!r}")
    (open_, close), (open2, close2) = rules.stage_direction_brackets
    delim = rules.delimiters[0]
    plain = ["yes", "and", "the", "street", "was", "mine", "so", "it", "ends", "\xa0", "--"]
    # runs of spaces and every other whitespace character; "\n" only where it
    # is the break, so that the other documents hold none; "\u205f" only in
    # a deleted aside
    odd = "\u205f"
    spaces = [" " * n for n in (2, 3, 9, 17)] + [
        c for c in ingest._SPACES if c != odd and (c != "\n" or c in brk)
    ]
    lines = [
        "a title page line", "and a cast list",
        f"NORA{delim}{spaces[-1]}" + "".join(f"w{sp}" for sp in spaces),
        f"Osvald{delim}", "".join(spaces),
        f"MRS. ALVING{delim} so {open_}aside{odd}deep{odd * 3}{close} it{spaces[1]}",
    ]
    kinds = set()
    for _ in range(300):
        kind = rng.choice(["plain", "unmatched", "nested", "empty_rest", "seeded"])
        kinds.add(kind)
        name = rng.choice(["NORA", "MRS. ALVING", "Osvald", "Mrs. Linde"])
        words = [rng.choice(plain) for _ in range(rng.randint(1, 6))]
        if kind == "unmatched":
            words.insert(rng.randrange(len(words) + 1), rng.choice([open_, close, open2, close2]))
        elif kind == "nested":
            words.insert(0, f"{open_}aside {open2}deep{close2} more{close}")
        rest = "" if kind == "empty_rest" else " ".join(words)
        lines.append(f"{name}{delim} {rest}".rstrip())
        for _ in range(rng.randint(0, 3)):
            if kind == "seeded":
                lines.append(_seeded_line(rng, rules.delimiters))
            else:
                lines.append(" ".join(rng.choice(plain) for _ in range(rng.randint(0, 8))))
            if kind != "plain" and rng.random() < 0.3:
                lines[-1] += f" {rng.choice([open_, close])}"
    text = brk.join(lines) + brk
    play = parse_play(doc(text), rules, "p", "en")
    turns, warnings = _ref_parse_turns(text, rules)
    expected = PlayScript("p", "en", "original", tuple(turns))
    assert play_to_json(play) == play_to_json(expected)
    assert list(play.warnings) == warnings
    assert kinds == {"plain", "unmatched", "nested", "empty_rest", "seeded"}
    assert warnings and any(t.text == "" for t in turns)
    assert any(not any(b in t.text for pair in rules.stage_direction_brackets for b in pair)
               for t in turns)
    assert [t.text for t in turns[:3]] == [
        " ".join(["w"] * len(spaces)), "", "so it",
    ]
    assert ("\n" in text) == ("\n" in brk) and odd in text
