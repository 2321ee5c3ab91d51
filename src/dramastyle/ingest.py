"""Play-script ingestion: boilerplate stripping, speaker/dialogue extraction.

Turns raw e-texts into speaker-attributed dialogue turns with stage
directions removed. Heading detection is heuristic (scripts are not a
standardized format); the rules are documented on ParseRules and
deliberately conservative: unknown layouts fail loudly with NoTurnsFound
rather than producing silent garbage.

Work repeated across a play is done once: `parse_play` classifies each
distinct heading word and normalizes each distinct speaker name once per
play, and `load_document` scans for carriage returns only in text that
holds one.
"""
from __future__ import annotations

import functools
import json
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import CorpusError, NoTurnsFound, UnbalancedBoilerplateMarkers

# Honorific abbreviations that may carry a trailing period inside a
# title-case speaker name ("Mrs. Linde. Hello." -> speaker "Mrs. Linde").
_HONORIFICS = {"mr", "mrs", "ms", "dr", "st", "fru", "frk", "hr"}

# The characters at which `str.splitlines` ends a line; "\r\n" is one break.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_END_RE = re.compile(f"\r\n|[{_LINE_BREAKS}]")
# The characters for which `str.isspace` is true (a test checks the set).
_SPACES = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
           "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")


@dataclass(frozen=True)
class RawDocument:
    """A loaded e-text, before any parsing."""

    source_id: str
    text: str
    encoding_note: str = "utf-8"

    def __post_init__(self):
        if not self.text:
            raise CorpusError(f"{self.source_id}: empty document")


@dataclass(frozen=True)
class ParseRules:
    """Tunable heading/stage-direction conventions for one corpus file.

    A speaker heading is a line whose leading token is 1 to
    `max_heading_words` (at least 1) words, each fully uppercase or
    starting with an uppercase letter, immediately followed by one of
    `delimiters`. Everything after the delimiter on that line is dialogue;
    following non-heading lines continue the turn, whose speaker is the
    name under `normalize_speaker`. The boilerplate markers are non-empty
    strings without a line break, so that each lies within one line.
    """

    delimiters: tuple[str, ...] = (".", ":")
    stage_direction_brackets: tuple[tuple[str, str], ...] = (("[", "]"), ("(", ")"))
    boilerplate_start: str = "*** START OF"
    boilerplate_end: str = "*** END OF"
    max_heading_words: int = 4

    def __post_init__(self):
        pairs = tuple(self.stage_direction_brackets)
        # tuple() would split a string into its characters
        if isinstance(self.delimiters, str) or any(isinstance(pair, str) for pair in pairs):
            raise ValueError("delimiters and each bracket pair must be lists, not strings")
        # lists (as read from JSON) become tuples, so the rules stay hashable
        object.__setattr__(self, "delimiters", tuple(self.delimiters))
        object.__setattr__(self, "stage_direction_brackets", tuple(tuple(p) for p in pairs))
        if not self.delimiters or not all(isinstance(d, str) and d for d in self.delimiters):
            raise ValueError("delimiters must be a non-empty list of non-empty strings")
        flat = [b for pair in self.stage_direction_brackets for b in pair]
        if (
            any(len(pair) != 2 for pair in self.stage_direction_brackets)
            or not all(isinstance(b, str) and b for b in flat)
            or len(set(flat)) != len(flat)
        ):
            raise ValueError("bracket pairs must be distinct, non-overlapping strings")
        if type(self.max_heading_words) is not int or self.max_heading_words < 1:
            raise ValueError("max_heading_words must be an integer of at least 1")
        for name in ("boilerplate_start", "boilerplate_end"):
            marker = getattr(self, name)
            if not isinstance(marker, str) or marker.splitlines() != [marker]:
                raise ValueError(f"{name} must be a non-empty string without a line break")


@dataclass(frozen=True)
class SpeechTurn:
    speaker: str
    text: str
    ordinal: int


@dataclass(frozen=True)
class PlayScript:
    play_id: str
    language: str
    translator: str
    turns: tuple[SpeechTurn, ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)


def load_document(path: str | Path, latin1_fallback: bool = False) -> RawDocument:
    """Read a play file as UTF-8 (BOM tolerated), NFC-normalized, with
    "\r\n" and lone "\r" line ends made "\n". The two passes that do so
    run only on text that holds a "\r".

    Invalid byte sequences are an error unless `latin1_fallback` is set,
    in which case the file is re-read as Latin-1 and the fallback is
    recorded in the encoding note.
    """
    path = Path(path)
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8-sig")
        note = "utf-8"
    except UnicodeDecodeError:
        if not latin1_fallback:
            raise CorpusError(
                f"{path}: not valid UTF-8 (pass latin1_fallback to transcode)"
            ) from None
        text = raw.decode("latin-1")
        note = "latin-1 fallback"
    text = unicodedata.normalize("NFC", text)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return RawDocument(source_id=path.name, text=text, encoding_note=note)


def strip_boilerplate(doc: RawDocument, rules: ParseRules) -> RawDocument:
    """Cut Gutenberg-style license header/footer around the play body.

    Keeps the lines strictly between the first line containing the start
    marker and the first subsequent line containing the end marker, line
    breaks included. With no markers the document passes through
    unchanged; a lone marker means a truncated e-text and is an error.

    Lines end as under `str.splitlines`: at "\n", "\r", "\r\n", "\x0b",
    "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028" and "\u2029". The
    markers hold none of these (ParseRules), so `str.find` locates them and
    the cut is moved out to the ends of their lines.
    """
    text = doc.text
    start = text.find(rules.boilerplate_start)
    if start < 0:
        # an end marker without a start marker is equally suspicious
        if rules.boilerplate_end in text:
            raise UnbalancedBoilerplateMarkers(
                f"{doc.source_id}: end marker without start marker"
            )
        return doc
    # the body opens with the line after the start marker's line ...
    line_end = _LINE_END_RE.search(text, start + len(rules.boilerplate_start))
    begin = line_end.end() if line_end else len(text)
    end = text.find(rules.boilerplate_end, begin)
    if end < 0:
        raise UnbalancedBoilerplateMarkers(
            f"{doc.source_id}: start marker without end marker"
        )
    # ... and closes with the line before the end marker's line
    end = max(begin, *(text.rfind(b, begin, end) + 1 for b in _LINE_BREAKS))
    return RawDocument(doc.source_id, text[begin:end], doc.encoding_note)


def normalize_speaker(name: str) -> str:
    """Case-fold, collapse whitespace, strip trailing punctuation and spaces:
    the one rule for speaker names, of headings and alias tables alike.

    Internal punctuation survives: "MRS. ALVING" and "MRS ALVING" stay
    distinct and merge only through an explicit alias table.
    """
    return " ".join(name.casefold().split()).rstrip(".,:; ")


def _is_upper_word(word: str) -> bool:
    stripped = word.rstrip(".:")
    return stripped == stripped.upper() and any(map(str.isalpha, stripped))


def _is_title_word(word: str) -> bool:
    return word.rstrip(".:")[:1].isupper()


def _heading_matcher(rules: ParseRules) -> Callable[[str], tuple[str, str] | None]:
    """The matcher of `match_speaker_heading` under `rules`. It classifies
    each distinct word once and keeps the classification while it lives."""
    delimiters = rules.delimiters
    max_words = rules.max_heading_words
    # word -> (upper-case, title-case, mark); mark 0: no delimiter, -1: a
    # delimiter after a word that is not title-case, 1: a delimiter after a
    # title-case word, 2: a delimiter after a title-case honorific
    kinds: dict[str, tuple[bool, bool, int]] = {}

    def classify(word: str) -> tuple[bool, bool, int]:
        mark = 0
        for delim in delimiters:
            if word.endswith(delim):
                core = word[: -len(delim)]
                mark = (2 if core.lower() in _HONORIFICS else 1) if _is_title_word(core) else -1
                break
        kind = kinds[word] = _is_upper_word(word), _is_title_word(word), mark
        return kind

    def match(line: str) -> tuple[str, str] | None:
        words = line.split(None, max_words)
        size = 0  # words in the name
        all_upper = True  # every word so far is upper-case
        # after a delimiter: (all upper-case, honorific) up to it, else None
        extend: tuple[bool, bool] | None = None
        for k, word in enumerate(words[:max_words]):
            upper, title, mark = kinds.get(word) or classify(word)
            all_upper = all_upper and upper
            if extend is not None:
                # the name continues past its delimiter only with a like word
                upper_name, honorific = extend
                if not ((upper_name and all_upper) or (honorific and title)):
                    break
                extend = None
            if not mark:
                if not title:
                    break
                continue
            if mark < 0:
                break
            size = k + 1
            extend = all_upper, mark == 2
        if not size:
            return None
        # the rest keeps its own whitespace, the name its inner whitespace
        rest = line.split(None, size)[size] if size < len(words) else ""
        return line[: len(line) - len(rest)].strip(), rest

    return match


def match_speaker_heading(line: str, rules: ParseRules) -> tuple[str, str] | None:
    """Return (raw speaker name, rest of line) if the line opens a turn.

    Fully uppercase names may span several words with internal delimiters
    ("MRS. ALVING. How nice" -> "MRS. ALVING"); title-case names stop at
    the first delimiter unless the word before it is an honorific
    abbreviation ("Mrs. Linde. Hello" -> "Mrs. Linde", but
    "Nora. Yes." -> "Nora"). Words are the runs that `str.split` gives, read
    in one pass over the first `max_heading_words` of them. `parse_play`
    keeps one matcher per play, so it classifies each distinct word once
    per play; this call builds one for its line.
    """
    return _heading_matcher(rules)(line)


@functools.lru_cache(maxsize=16)
def _bracket_patterns(brackets: tuple[tuple[str, str], ...]) -> tuple[re.Pattern, ...]:
    """One pattern per (open, close) pair: an innermost bracketed span."""
    return tuple(
        re.compile(
            re.escape(o) + "(?:(?!" + re.escape(o) + "|" + re.escape(c) + ").)*" + re.escape(c),
            re.DOTALL,
        )
        for o, c in brackets
    )


def remove_stage_directions(text: str, rules: ParseRules) -> tuple[str, list[str]]:
    """Delete bracketed spans, innermost first, until none remain.

    Unmatched bracket characters are kept verbatim and reported as
    warnings, never silently dropped.
    """
    for o, c in rules.stage_direction_brackets:
        if o in text or c in text:
            break
    else:
        return text, []
    patterns = _bracket_patterns(rules.stage_direction_brackets)
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


def _collapse(text: str, spaces: str) -> str:
    """`" ".join(text.split())`, when `spaces` holds every whitespace
    character of `text` other than " ": each becomes " ", runs of " "
    shrink to one, and the ends are trimmed."""
    for ch in spaces:
        text = text.replace(ch, " ")
    while "  " in text:
        text = text.replace("  ", " ")
    return text.strip(" ")


def parse_play(
    doc: RawDocument,
    rules: ParseRules,
    play_id: str,
    language: str,
    translator: str = "original",
) -> PlayScript:
    """Split a boilerplate-stripped script into speaker-attributed turns.

    Lines are those of `str.splitlines` (see `strip_boilerplate`). Lines
    before the first heading are discarded; non-heading lines continue the
    current turn; a turn's lines are joined with "\n" and its bracketed
    stage directions deleted. Each run of `str.isspace` characters then
    becomes one space, and the turn is trimmed.
    """
    lines = doc.text.splitlines()
    match = _heading_matcher(rules)
    # Exact prefilter: a heading's first word is title-case, so the matcher
    # rejects every line whose first non-blank character is not upper-case.
    headings = [
        (i, heading) for i, line in enumerate(lines)
        if line.lstrip()[:1].isupper() and (heading := match(line))
    ]
    if not headings:
        raise NoTurnsFound(f"{doc.source_id}: no speaker heading matched")
    turns: list[SpeechTurn] = []
    warnings: list[str] = []
    # each heading name is normalized once
    speakers = {name: normalize_speaker(name) for name in {name for _, (name, _) in headings}}
    # bodies join lines with "\n"; deleting a stage direction adds no character
    spaces = "\n" + "".join(ch for ch in _SPACES if ch not in " \n" and ch in doc.text)
    ends = [i for i, _ in headings[1:]] + [len(lines)]
    for (i, (name, rest)), end in zip(headings, ends):
        body = "\n".join([rest, *lines[i + 1 : end]] if rest else lines[i + 1 : end])
        body, warns = remove_stage_directions(body, rules)
        warnings.extend(warns)
        turns.append(SpeechTurn(speakers[name], _collapse(body, spaces), len(turns)))
    return PlayScript(
        play_id=play_id,
        language=language,
        translator=translator,
        turns=tuple(turns),
        warnings=tuple(warnings),
    )


def play_to_json(play: PlayScript) -> str:
    """Serialize to the interchange format: fixed key order, UTF-8, LF."""
    payload = {
        "play_id": play.play_id,
        "language": play.language,
        "translator": play.translator,
        "turns": [
            {"speaker": t.speaker, "text": t.text, "ordinal": t.ordinal}
            for t in play.turns
        ],
    }
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"

