"""Seeded play-script corpora and experiment configs for the three workloads.

The workload fixes the shape (plays, speakers, dialogue lengths, chunking,
permutations) and the lexicon. The seed draws each speaker's word
preferences, all dialogue, stage directions and the second translator's
word changes, and is the permutation seed in the config. So different seeds
give different texts that cost the program nearly the same work.

The texts imitate Gutenberg e-texts of translated plays: a licence header
and footer around START/END markers, a title block and cast list before the
first speaker heading, bracketed or parenthesised stage directions, wrapped
dialogue lines, honorific headings ("MRS. ALVING." and "Mrs. Alving."),
and minor speakers that stay below the eligibility threshold.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

SYLLABLES = (
    "ba be bi bo bu da de di do du fa fe fi fo ga ge gi go ha he hi ho ja je "
    "ka ke ki ko la le li lo lu ma me mi mo na ne ni no pa pe pi po ra re ri "
    "ro sa se si so sk st ta te ti to va ve vi vo æ ø å ei au en er et an in "
    "or ar ing ig dt nd ll tt"
).split()

STAGE_VERBS = ("crosses to the window", "sits down", "rises", "turns away",
               "laughs", "goes to the door", "takes the letter", "lowers her voice",
               "looks at him", "pauses", "lights the lamp", "puts down the cup")

LICENCE_SENTENCE = (
    "this ebook is for the use of anyone anywhere at no cost and with almost "
    "no restrictions whatsoever you may copy it give it away or re-use it under "
    "the terms of the licence included with this ebook or online"
)


@dataclass(frozen=True)
class PlaySpec:
    play_id: str
    speakers: tuple[str, ...]  # heading names; the first `eligible` are main parts
    eligible: int
    minor_chars: int  # dialogue per minor speaker, below min_size


@dataclass(frozen=True)
class Workload:
    name: str
    plays: tuple[PlaySpec, ...]
    translators: tuple[str, ...]
    labeling: str
    modes: tuple[str, ...]
    min_size: int
    chunk_count: int
    chunk_size: int
    permutations: int
    main_chars: int  # dialogue per eligible speaker, above min_size
    compare_translations: bool = False
    parallel: bool = False  # run with --jobs = usable cores

    @property
    def mode_names(self) -> tuple[str, ...]:
        """Mode names as the program writes them into artifact file names."""
        out = []
        for spec in self.modes:
            kind, _, n = spec.partition(":")
            out.append(kind if "unigram" in kind else f"{kind}{n or 1}")
        return tuple(out)

    @property
    def eligible_speakers(self) -> int:
        per_play = sum(p.eligible for p in self.plays)
        return per_play * (len(self.translators) if self.compare_translations else 1)

    @property
    def chunks(self) -> int:
        return self.eligible_speakers * self.chunk_count


def _cast(names: str) -> tuple[str, ...]:
    return tuple(n.strip() for n in names.split(","))


WORKLOADS = {
    w.name: w
    for w in (
        # 3 plays, 16 main speakers with unique names -> 16 categories, 80 chunks
        Workload(
            name="scale_perm",
            plays=(
                PlaySpec("gengangere", _cast("MRS. ALVING, MANDERS, OSVALD, REGINE, "
                                             "ENGSTRAND, HEGSTAD, DR. BRATT"), 6, 2500),
                PlaySpec("dukkehjem", _cast("NORA, HELMER, MRS. LINDE, KROGSTAD, "
                                            "RANK, ANNE MARIE, HELENE"), 5, 3000),
                PlaySpec("solness", _cast("SOLNESS, ALINE, HILDE, BROVIK, RAGNAR, "
                                          "KAJA, HERDAL"), 5, 4000),
            ),
            translators=("original",),
            labeling="character",
            modes=("letter_unigram", "word_unigram"),
            min_size=10000,
            chunk_count=5,
            chunk_size=2000,
            permutations=2000,
            main_chars=12500,
        ),
        # 4 plays with 5, 5, 4 and 4 main speakers, play labeling
        # -> 4 large categories, 90 chunks
        Workload(
            name="ngram_matrix",
            plays=tuple(
                PlaySpec(pid, _cast(cast), eligible, 3000)
                for pid, eligible, cast in (
                    ("vildanden", 5, "WERLE, GREGERS, HJALMAR, GINA, HEDVIG, RELLING"),
                    ("rosmersholm", 5, "ROSMER, REBEKKA, KROLL, BRENDEL, MORTENSGÅRD, MRS. HELSETH"),
                    ("fruen", 4, "WANGEL, ELLIDA, BOLETTE, HILDE, ARNHOLM, LYNGSTRAND"),
                    ("borkman", 4, "BORKMAN, GUNHILD, ELLA, ERHART, FANNY, FOLDAL"),
                )
            ),
            translators=("original",),
            labeling="play",
            modes=("letter_ngram:3",),
            min_size=15000,
            chunk_count=5,
            chunk_size=3000,
            permutations=200,
            main_chars=17000,
        ),
        # 3 long plays (~510 kB per translation) in two translators: two main
        # parts and seven minor parts each -> 12 categories, 60 chunks
        Workload(
            name="translations",
            plays=tuple(
                PlaySpec(pid, _cast(cast), 2, 25000)
                for pid, cast in (
                    ("ghosts", "MRS. ALVING, MANDERS, OSVALD, REGINA, ENGSTRAND, "
                               "MR. HEGSTAD, DR. BRATT, MRS. BRATT, THE MAID"),
                    ("dolls_house", "NORA, HELMER, MRS. LINDE, KROGSTAD, RANK, "
                                    "ANNE, HELEN, THE PORTER, IVAR"),
                    ("bygmester", "SOLNESS, HILDA, ALINE, BROVIK, RAGNAR, "
                                  "KAIA, HERDAL, MR. KNUT, MRS. BROVIK"),
                )
            ),
            translators=("archer", "sharp"),
            labeling="character_by_translator",
            modes=("letter_unigram",),
            min_size=140000,
            chunk_count=5,
            chunk_size=2000,
            permutations=100,
            main_chars=150000,
            compare_translations=True,
            parallel=True,
        ),
    )
}


class _Language:
    """A Zipf-weighted lexicon; each speaker reweights it slightly."""

    def __init__(self, rng: random.Random, size: int = 2500):
        words: set[str] = set()
        while len(words) < size:
            words.add("".join(rng.choice(SYLLABLES) for _ in range(rng.choice((1, 2, 2, 3, 3, 4)))))
        self.words = sorted(words)
        rng.shuffle(self.words)
        self.base = [1.0 / (rank + 1) ** 1.07 for rank in range(size)]

    def speaker(self, rng: random.Random) -> "_Voice":
        weights = [w * rng.lognormvariate(0.0, 0.3) for w in self.base]
        return _Voice(self.words, weights, rng)


class _Voice:
    def __init__(self, words: list[str], weights: list[float], rng: random.Random):
        self.words = words
        total = 0.0
        self.cum = []
        for w in weights:
            total += w
            self.cum.append(total)
        self.rng = rng

    def sentence(self) -> str:
        n = self.rng.randint(4, 14)
        words = self.rng.choices(self.words, cum_weights=self.cum, k=n)
        words[0] = words[0][0].upper() + words[0][1:]
        if n > 7 and self.rng.random() < 0.4:
            words[n // 2] += ","
        return " ".join(words) + self.rng.choice(".....?!")

    def turn(self, target_chars: int) -> str:
        parts = []
        length = 0
        while length < target_chars:
            s = self.sentence()
            parts.append(s)
            length += len(s) + 1
        return " ".join(parts)


def _wrap(words: list[str], width: int = 72) -> list[str]:
    """Greedy wrap that never starts a continuation line with a capitalised word,
    so no continuation line can be mistaken for a speaker heading."""
    lines: list[list[str]] = [[]]
    length = 0
    for w in words:
        if lines[-1] and length + 1 + len(w) > width and not w[0].isupper():
            lines.append([])
            length = 0
        length += len(w) + (1 if lines[-1] else 0)
        lines[-1].append(w)
    return [" ".join(line) for line in lines]


def _heading(name: str, title_case: bool) -> str:
    if not title_case:
        return name + "."
    return " ".join(w[0] + w[1:].lower() for w in name.split()) + "."


def _stage(rng: random.Random, brackets: tuple[str, str]) -> str:
    return f"{brackets[0]}{rng.choice(('He', 'She'))} {rng.choice(STAGE_VERBS)}.{brackets[1]}"


def _play_text(
    spec: PlaySpec,
    translator: str,
    turns: list[tuple[int, list[str]]],
    rng: random.Random,
    title_case: bool,
    brackets: tuple[str, str],
) -> str:
    title = f"{spec.play_id.replace('_', ' ').upper()}"
    lines = [
        f"The Project Gutenberg eBook of {title}, translated by {translator}",
        "",
        *_wrap(LICENCE_SENTENCE.split()),
        "",
        f"*** START OF THE PROJECT GUTENBERG EBOOK {title} ***",
        "",
        title,
        "",
        "persons of the play: " + ", ".join(n.lower() for n in spec.speakers) + ".",
        "",
        f"{brackets[0]}Act One. A room in the house.{brackets[1]}",
        "",
    ]
    for speaker, sentences in turns:
        words = " ".join(sentences).split()
        if rng.random() < 0.3:
            words.insert(rng.randrange(len(words) + 1), _stage(rng, brackets))
        body = _wrap([_heading(spec.speakers[speaker], title_case), *words])
        lines.extend(body)
        if rng.random() < 0.1:
            lines.append(_stage(rng, brackets))
        lines.append("")
    lines.append(f"*** END OF THE PROJECT GUTENBERG EBOOK {title} ***")
    lines.append("")
    for _ in range(40):
        lines.extend(_wrap(LICENCE_SENTENCE.split()))
    return "\n".join(lines) + "\n"


def _dialogue(spec: PlaySpec, workload: Workload, language: _Language, rng: random.Random):
    """Interleaved (speaker index, sentences) turns meeting each part's length."""
    voices = [language.speaker(rng) for _ in spec.speakers]
    need = [workload.main_chars if i < spec.eligible else spec.minor_chars
            for i in range(len(spec.speakers))]
    turns = []
    while any(n > 0 for n in need):
        live = [i for i, n in enumerate(need) if n > 0]
        i = rng.choices(live, weights=[need[k] for k in live])[0]
        target = min(need[i], rng.randint(60, 600))
        text = voices[i].turn(target)
        need[i] -= len(text)
        turns.append((i, text.split(" ")))
    return turns


def _retranslate(turns, language: _Language, rng: random.Random, rate: float = 0.12):
    """A second translator: the same turns with some words chosen differently."""
    out = []
    for speaker, words in turns:
        new = []
        for w in words:
            if rng.random() < rate:
                repl = rng.choice(language.words)
                if w[0].isupper():
                    repl = repl[0].upper() + repl[1:]
                w = repl + (w[-1] if not w[-1].isalnum() else "")
            new.append(w)
        out.append((speaker, new))
    return out


def generate(workload: Workload, seed: int, out_dir: Path) -> Path:
    """Write the workload's corpus and config under `out_dir`; return the config path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    # the language is part of the workload; the seed draws the voices and the dialogue
    language = _Language(random.Random(f"{workload.name}:lexicon"))
    rng = random.Random(f"{workload.name}:{seed}")
    entries = []
    for spec in workload.plays:
        base = _dialogue(spec, workload, language, rng)
        for k, translator in enumerate(workload.translators):
            turns = base if k == 0 else _retranslate(base, language, rng)
            text = _play_text(
                spec, translator, turns, rng,
                title_case=k % 2 == 1,
                brackets=("(", ")") if k % 2 else ("[", "]"),
            )
            name = f"{spec.play_id}_{translator}.txt"
            (out_dir / name).write_text(text, encoding="utf-8", newline="\n")
            entries.append({"path": name, "play_id": spec.play_id,
                            "language": "norwegian" if len(workload.translators) == 1 else "english",
                            "translator": translator})
    config = {
        "experiment_id": workload.name,
        "corpus": entries,
        "labeling": workload.labeling,
        "modes": list(workload.modes),
        "min_size": workload.min_size,
        "chunk_count": workload.chunk_count,
        "chunk_size": workload.chunk_size,
        "permutations": workload.permutations,
        "seed": seed,
        "output_dir": "out",
    }
    path = out_dir / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path
