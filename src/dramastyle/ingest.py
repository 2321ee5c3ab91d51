"""Play-script ingestion: boilerplate stripping, speaker/dialogue extraction.

Turns raw e-texts into speaker-attributed dialogue turns with stage
directions removed. Heading detection is heuristic (scripts are not a
standardized format); the rules are documented on ParseRules. The
parser fails, with CorpusError, only when no line of a file matches a
heading. A layout it does not know can still parse to false turns
without a warning: a dialogue line such as "Yes. I will go.", a cast
list line, or a line opening with a capitalised German or Norwegian
noun and a full stop opens a turn of its own.

`parse_play` is the one parser. It returns a `PlayScript` held column by
column, each turn's speaker in `speakers` and its text in `texts`, which
a run reduces to chunks and `play_to_json` writes as interchange JSON.

Work repeated across a play is done once: `parse_play` classifies each
distinct heading word and normalizes each distinct speaker name once per
play, and `load_document` scans for carriage returns only in text that
holds one. `parse_play` reads a play in one regex scan of the lines that
can open a turn, and cuts each turn's text as one slice of the play.
"""
from __future__ import annotations

import functools
import json
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import CorpusError, PreconditionFailed

# Honorific abbreviations that may carry a trailing period inside a
# title-case speaker name ("Mrs. Linde. Hello." -> speaker "Mrs. Linde").
_HONORIFICS = {"mr", "mrs", "ms", "dr", "st", "fru", "frk", "hr"}

# The characters at which `str.splitlines` ends a line; "\r\n" is one break.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_END_RE = re.compile(f"\r\n|[{_LINE_BREAKS}]")
# A line, after its "\n", that may open a turn: its first non-blank character
# is A-Z (the only ASCII characters that are `str.isupper`) or not ASCII.
_CANDIDATE_RE = re.compile(r"\n([^\S\n]*[^\s\x00-@\[-\x7f][^\n]*)")
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
    `delimiters`, which hold no whitespace: words are the runs between
    whitespace. Everything after the delimiter on that line is dialogue;
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
        if any(ch.isspace() for d in self.delimiters for ch in d):
            raise ValueError(f"delimiters must not contain whitespace, got {list(self.delimiters)}")
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
class PlayScript:
    """A parsed play, column by column: turn i is `texts[i]`, said by
    `speakers[i]`, in the order of the play. The columns and `warnings`
    are stored as tuples; columns of two lengths raise PreconditionFailed."""

    play_id: str
    language: str
    translator: str
    speakers: tuple[str, ...]
    texts: tuple[str, ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        for name in ("speakers", "texts", "warnings"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len(self.speakers) != len(self.texts):
            raise PreconditionFailed(f"{self.play_id}/{self.translator}: {len(self.speakers)} "
                                     f"speakers for {len(self.texts)} turn texts")


def load_document(path: str | Path, latin1_fallback: bool = False) -> RawDocument:
    """Read a play file as UTF-8 (BOM tolerated), NFC-normalized, with
    "\r\n" and lone "\r" line ends made "\n". The two passes that do so
    run only on text that holds a "\r". The NFC pass runs only on text
    that does not encode as Latin-1: characters up to U+00FF are already
    NFC, alone or in any sequence (none has a nonzero combining class, and
    no two of them compose), so such text is its own normal form.

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
    try:
        text.encode("latin-1")
    except UnicodeEncodeError:
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
            raise CorpusError(f"{doc.source_id}: end marker without start marker")
        return doc
    # the body opens with the line after the start marker's line ...
    line_end = _LINE_END_RE.search(text, start + len(rules.boilerplate_start))
    begin = line_end.end() if line_end else len(text)
    end = text.find(rules.boilerplate_end, begin)
    if end < 0:
        raise CorpusError(f"{doc.source_id}: start marker without end marker")
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

    Each round deletes the innermost spans of every pair. The rounds stop
    when one deletes nothing, or when no opening bracket is left, since a
    further round could then delete nothing. Unmatched bracket characters
    are kept verbatim and reported as warnings, never silently dropped.
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
        # with no opening bracket left, another round can remove nothing
        for o, _ in rules.stage_direction_brackets:
            if o in text:
                break
        else:
            break
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
    """Split a boilerplate-stripped script into speaker-attributed turns:
    a PlayScript of each turn's speaker and text, in order, and the parse
    warnings.

    Lines are those of `str.splitlines` (see `strip_boilerplate`). Lines
    before the first heading are discarded; non-heading lines continue the
    current turn; a turn's lines are joined with "\n" and its bracketed
    stage directions deleted. Each run of `str.isspace` characters then
    becomes one space, and the turn is trimmed. A turn's speaker is its
    heading name under `normalize_speaker`.

    The text is read in one scan. Every other line break is first made
    "\n"; one pattern then finds the lines whose first non-blank character
    is A-Z or not ASCII, a superset of the lines that can open a turn, and
    the matcher decides. Each turn's lines, joined, are one slice of the
    text: from the rest of its heading line, or from the next line, to the
    "\n" before the next heading, or to the end less one final "\n".
    """
    text = doc.text
    # one `in` scan per break character is far faster than a character class
    if any(brk in text for brk in _LINE_BREAKS[1:]):
        text = _LINE_END_RE.sub("\n", text)
    # every line, the first too, follows a "\n"
    text = "\n" + text
    match = _heading_matcher(rules)
    # per heading: where its line's "\n" is, where its body begins, its name
    headings: list[tuple[int, int, str]] = []
    for m in _CANDIDATE_RE.finditer(text):
        line = m.group(1)
        # exact: a heading's first word is title-case, so the matcher rejects
        # every line whose first non-blank character is not upper-case
        if line.lstrip()[:1].isupper() and (heading := match(line)):
            name, rest = heading
            end = m.end()
            # the body opens with `rest`, a suffix of the line, or on the next line
            headings.append((m.start(), end - len(rest) if rest else end + 1, name))
    if not headings:
        raise CorpusError(f"{doc.source_id}: no speaker heading matched")
    # each heading name is normalized once
    names = {name: normalize_speaker(name) for name in {name for _, _, name in headings}}
    speakers = [names[name] for _, _, name in headings]
    texts: list[str] = []
    warnings: list[str] = []
    # deleting a stage direction adds no character
    spaces = "".join(ch for ch in _SPACES if ch != " " and ch in text)
    # a body ends at the "\n" before the next heading, the last one at the
    # end of the text less one final "\n"
    stops = [start for start, _, _ in headings[1:]] + [len(text) - text.endswith("\n")]
    for (_, begin, _), stop in zip(headings, stops):
        body, warns = remove_stage_directions(text[begin:stop], rules)
        warnings.extend(warns)
        texts.append(_collapse(body, spaces))
    return PlayScript(play_id, language, translator, speakers, texts, warnings)


def play_to_json(play: PlayScript) -> str:
    """Serialize to the interchange format: fixed key order, UTF-8, LF;
    each turn is numbered by its place in the play from 0."""
    payload = {
        "play_id": play.play_id,
        "language": play.language,
        "translator": play.translator,
        "turns": [
            {"speaker": speaker, "text": text, "ordinal": ordinal}
            for ordinal, (speaker, text) in enumerate(zip(play.speakers, play.texts))
        ],
    }
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"

