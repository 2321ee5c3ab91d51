"""Play-script ingestion: boilerplate stripping, speaker/dialogue extraction.

Turns raw e-texts into speaker-attributed dialogue turns with stage
directions removed. Heading detection is heuristic (scripts are not a
standardized format); the rules are documented on ParseRules and
deliberately conservative: unknown layouts fail loudly with NoTurnsFound
rather than producing silent garbage.
"""
from __future__ import annotations

import functools
import json
import logging
import re
import unicodedata
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from .errors import CorpusError, NoTurnsFound, UnbalancedBoilerplateMarkers

log = logging.getLogger(__name__)

# Honorific abbreviations that may carry a trailing period inside a
# title-case speaker name ("Mrs. Linde. Hello." -> speaker "Mrs. Linde").
_HONORIFICS = {"mr", "mrs", "ms", "dr", "st", "fru", "frk", "hr"}

_WS_RE = re.compile(r"\s+")
_TOKEN_RE = re.compile(r"\S+")


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
    following non-heading lines continue the turn.
    """

    delimiters: tuple[str, ...] = (".", ":")
    stage_direction_brackets: tuple[tuple[str, str], ...] = (("[", "]"), ("(", ")"))
    name_normalization: bool = True
    boilerplate_start: str = "*** START OF"
    boilerplate_end: str = "*** END OF"
    max_heading_words: int = 4

    def __post_init__(self):
        # lists (as read from JSON) become tuples, so the rules stay hashable
        object.__setattr__(self, "delimiters", tuple(self.delimiters))
        object.__setattr__(
            self, "stage_direction_brackets",
            tuple(tuple(pair) for pair in self.stage_direction_brackets),
        )
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
    """Read a play file as UTF-8 (BOM tolerated), NFC-normalized.

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
    text = unicodedata.normalize("NFC", text).replace("\r\n", "\n").replace("\r", "\n")
    return RawDocument(source_id=path.name, text=text, encoding_note=note)


def strip_boilerplate(doc: RawDocument, rules: ParseRules) -> RawDocument:
    """Cut Gutenberg-style license header/footer around the play body.

    Keeps the lines strictly between the first line containing the start
    marker and the first subsequent line containing the end marker. With
    no markers the document passes through unchanged; a lone marker means
    a truncated e-text and is an error.
    """
    lines = doc.text.splitlines(keepends=True)
    start_idx = end_idx = None
    for i, line in enumerate(lines):
        if start_idx is None and rules.boilerplate_start in line:
            start_idx = i
        elif start_idx is not None and rules.boilerplate_end in line:
            end_idx = i
            break
    if start_idx is None:
        # an end marker without a start marker is equally suspicious
        if any(rules.boilerplate_end in line for line in lines):
            raise UnbalancedBoilerplateMarkers(
                f"{doc.source_id}: end marker without start marker"
            )
        return doc
    if end_idx is None:
        raise UnbalancedBoilerplateMarkers(
            f"{doc.source_id}: start marker without end marker"
        )
    body = "".join(lines[start_idx + 1 : end_idx])
    return RawDocument(doc.source_id, body, doc.encoding_note)


def normalize_speaker(name: str) -> str:
    """Case-fold, collapse whitespace, strip trailing punctuation.

    Internal punctuation survives: "MRS. ALVING" and "MRS ALVING" stay
    distinct and merge only through an explicit alias table.
    """
    name = _WS_RE.sub(" ", name.strip().casefold())
    return name.rstrip(".,:;")


def _is_upper_word(word: str) -> bool:
    stripped = word.rstrip(".:")
    return bool(stripped) and stripped == stripped.upper() and any(c.isalpha() for c in stripped)


def _is_title_word(word: str) -> bool:
    stripped = word.rstrip(".:")
    return bool(stripped) and stripped[0].isupper()


def match_speaker_heading(line: str, rules: ParseRules) -> tuple[str, str] | None:
    """Return (raw speaker name, rest of line) if the line opens a turn.

    Fully uppercase names may span several words with internal delimiters
    ("MRS. ALVING. How nice" -> "MRS. ALVING"); title-case names stop at
    the first delimiter unless the word before it is an honorific
    abbreviation ("Mrs. Linde. Hello" -> "Mrs. Linde", but
    "Nora. Yes." -> "Nora").
    """
    stripped = line.lstrip()
    # Exact prefilter: a heading's first word is title-case, so its first
    # character is upper-case.
    if not stripped or not stripped[0].isupper():
        return None
    tokens = list(islice(_TOKEN_RE.finditer(stripped), rules.max_heading_words))
    last_end: int | None = None
    for i, m in enumerate(tokens):
        word = m.group()
        delim = next((d for d in rules.delimiters if word.endswith(d)), None)
        core = word[: -len(delim)] if delim else word
        if not core or not _is_title_word(core):
            break
        if delim is None:
            continue
        last_end = m.end()
        # the name may continue past this delimiter
        all_upper = all(_is_upper_word(t.group()) for t in tokens[: i + 1])
        honorific = core.lower() in _HONORIFICS
        nxt = tokens[i + 1].group() if i + 1 < len(tokens) else None
        may_extend = (
            nxt is not None
            and ((all_upper and _is_upper_word(nxt)) or (honorific and _is_title_word(nxt)))
        )
        if not may_extend:
            break
    if last_end is None:
        return None
    return stripped[:last_end], stripped[last_end:].lstrip()


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


def parse_play(
    doc: RawDocument,
    rules: ParseRules,
    play_id: str,
    language: str,
    translator: str = "original",
) -> PlayScript:
    """Split a boilerplate-stripped script into speaker-attributed turns.

    Lines before the first heading are discarded; non-heading lines
    continue the current turn; bracketed stage directions are deleted and
    whitespace collapsed per turn.
    """
    turns: list[SpeechTurn] = []
    warnings: list[str] = []
    current_speaker: str | None = None
    current_lines: list[str] = []

    def flush():
        nonlocal current_speaker, current_lines
        if current_speaker is None:
            current_lines = []
            return
        body, warns = remove_stage_directions("\n".join(current_lines), rules)
        warnings.extend(warns)
        body = " ".join(body.split())
        speaker = normalize_speaker(current_speaker) if rules.name_normalization else current_speaker
        turns.append(SpeechTurn(speaker=speaker, text=body, ordinal=len(turns)))
        current_speaker, current_lines = None, []

    for line in doc.text.splitlines():
        heading = match_speaker_heading(line, rules)
        if heading is not None:
            flush()
            current_speaker, rest = heading
            current_lines = [rest] if rest else []
        elif current_speaker is not None:
            current_lines.append(line)
    flush()

    if not turns:
        raise NoTurnsFound(f"{doc.source_id}: no speaker heading matched")
    for w in warnings:
        log.warning("%s: %s", doc.source_id, w)
    return PlayScript(
        play_id=play_id,
        language=language,
        translator=translator,
        turns=tuple(turns),
        warnings=tuple(warnings),
    )


def extract_character_text(play: PlayScript) -> dict[str, str]:
    """Concatenate each speaker's turn texts in order, space-joined."""
    if not play.turns:
        raise CorpusError(f"{play.play_id}: play has no turns")
    out: dict[str, list[str]] = {}
    for turn in play.turns:
        out.setdefault(turn.speaker, []).append(turn.text)
    return {speaker: " ".join(parts) for speaker, parts in out.items()}


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


def play_from_json(text: str) -> PlayScript:
    """Read the interchange format; anything else is a CorpusError."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"invalid interchange JSON: {exc}") from None
    try:
        return PlayScript(
            play_id=data["play_id"],
            language=data["language"],
            translator=data["translator"],
            turns=tuple(
                SpeechTurn(t["speaker"], t["text"], t["ordinal"]) for t in data["turns"]
            ),
        )
    except KeyError as exc:
        raise CorpusError(f"interchange JSON lacks key {exc}") from None
    except TypeError as exc:
        raise CorpusError(f"malformed interchange JSON: {exc}") from None
