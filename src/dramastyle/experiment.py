"""Declarative experiment configs and the end-to-end pipeline.

A config JSON names the corpus files, the labeling mode, one or more
tokenization modes, the chunking budget, and the permutation settings.
`run_experiment` executes ingest -> extract -> segmentation -> tokenize
-> matrix -> statistics and writes a manifest CSV, one matrix CSV per
mode, and a report JSON; `compare_translations` writes each chunk's
nearest foreign category instead. Each is one straight sequence of
timed stages: `_chunk_corpus`, the one function from a config to
chunks (ingest, extract and segmentation once per corpus file, then
segmentation once more to number the chunks), the command's own loop
over the modes (`chunk_matrix`'s tokenize and matrix, then its
statistic), the report stage, and `_write_run_meta`.
`_chunk_corpus` holds one corpus file at a time: as soon as a file is
parsed, `_add_play` reduces its turns to each speaker's eligibility
record (which goes to run_meta.json only) and the front window of each
speaker with at least `min_size` characters; `_number_chunks` then cuts
and labels the windows of all files. Both pipelines call `_chunk_corpus`
and `chunk_matrix`; `prepare_chunks` does the same reduction for plays
that are already parsed. This module alone knows the output formats:
`_mode_section` lays out a mode's report.json section from the arrays
of `permutation_baselines`, and `_write_csv` writes every CSV but the
matrices, whose number fields `write_matrix_csv` formats in one pass
per row. `Chunk`, the unit of the analysis, and `LABELINGS`, the
idiolect categories of Rybicki (2006), live here beside
`prepare_chunks`. The report states each value once: the settings only
in its `config` echo, and per chunk only its attributed category. A
chunk's true category is its row of the manifest, and its means follow
from the matrix CSV and the manifest; both files sit at fixed names. A
config checks its fields when it is built, so an invalid one never
reaches a stage.
Everything is deterministic given the config and corpus bytes; the
wall-clock timestamp and the file locations live in a sidecar file so
the hashed outputs stay reproducible.
"""
from __future__ import annotations

import csv
import io
import json
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DramastyleError, PipelineError, PreconditionFailed, StatisticsError
from .homogeneity import PermutationBaselines, attribute_chunks, draw_orders, permutation_baselines
from .ingest import (
    ParseRules, PlayScript, load_document, normalize_speaker, parse_turns, strip_boilerplate,
)
from .similarity import DissimilarityMatrix, matrix_from_counts
from .tokenization import TokenizationMode, count_matrix

DEFAULT_SIGNIFICANCE = 0.05
# 100x the paper's 10,000; the orders array takes permutations x chunks
MAX_PERMUTATIONS = 1_000_000


@dataclass(frozen=True)
class CorpusEntry:
    path: str
    play_id: str
    language: str
    translator: str = "original"
    parse_rules: ParseRules = ParseRules()
    # read-only (name, canonical) pairs, one per normalized name; from a JSON object or mapping
    speaker_aliases: tuple[tuple[str, str], ...] = ()
    latin1_fallback: bool = False

    def __post_init__(self) -> None:
        # JSON gives any type: check them before any value is used
        fields = ("path", "play_id", "language", "translator")
        _check_types(self, fields, (str,), "a string", "corpus ")
        _check_types(self, ("latin1_fallback",), (bool,), "true or false", "corpus ")
        # so that a category speaker@translator splits at its last '@'
        if "@" in self.translator:
            raise ConfigError(f"corpus translator must not contain '@', got {self.translator!r}")
        if not isinstance(self.parse_rules, ParseRules):
            try:
                object.__setattr__(self, "parse_rules", ParseRules(**self.parse_rules))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{self.play_id}/{self.translator}: parse_rules: {exc}") from None
        where = f"{self.play_id}/{self.translator}: speaker_aliases"
        pairs = self.speaker_aliases
        pairs = tuple(pairs.items()) if isinstance(pairs, Mapping) else pairs
        if not (isinstance(pairs, tuple) and all(
                isinstance(kv, tuple) and len(kv) == 2 and all(isinstance(s, str) for s in kv)
                for kv in pairs)):
            raise ConfigError(f"{where} must map names to names")
        canonical: dict[str, str] = {}  # names as parse_play writes a turn's speaker
        for name, target in pairs:
            name, target = normalize_speaker(name), normalize_speaker(target)
            if not (name and target):
                raise ConfigError(f"{where}: a name normalizes to the empty string")
            if canonical.setdefault(name, target) != target:
                raise ConfigError(f"{where}: {name!r} maps to {canonical[name]!r} and {target!r}")
        for name, target in canonical.items():
            if canonical.get(target, target) != target:
                raise ConfigError(f"{where}: {name!r} maps to {target!r}, which maps to "
                                  f"{canonical[target]!r}")
        object.__setattr__(self, "speaker_aliases", tuple(canonical.items()))


def _check_types(
    obj: object, names: Sequence[str], kinds: tuple[type, ...], kind: str, where: str = ""
) -> None:
    """Raise ConfigError unless each named field's type is exactly one of
    `kinds`, so that True and 1.5 are not integers."""
    for name in names:
        value = getattr(obj, name)
        if type(value) not in kinds:
            raise ConfigError(f"{where}{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    corpus: tuple[CorpusEntry, ...]
    labeling: str = "character"
    modes: tuple[str, ...] = ("letter_unigram",)
    min_size: int = 10000
    chunk_count: int = 5
    chunk_size: int = 2000
    permutations: int = 10000
    seed: int = 42
    significance: float = DEFAULT_SIGNIFICANCE
    output_dir: str = "out"

    def __post_init__(self) -> None:
        # JSON gives any type: check them before any value is compared or used
        integers = ("permutations", "min_size", "chunk_count", "chunk_size", "seed")
        _check_types(self, integers, (int,), "an integer")
        _check_types(self, ("significance",), (int, float), "a number")
        _check_types(self, ("experiment_id", "output_dir", "labeling"), (str,), "a string")
        _check_types(self, ("modes", "corpus"), (list, tuple), "a list")
        # stored as tuples, so a checked config cannot change afterwards
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "corpus", tuple(self.corpus))
        if not self.corpus:
            raise ConfigError("corpus must be non-empty")
        if not all(isinstance(entry, CorpusEntry) for entry in self.corpus):
            raise ConfigError(f"corpus items must be CorpusEntry, got {list(self.corpus)!r}")
        name = self.experiment_id
        # it names a directory under output_dir that a run replaces as a whole
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise ConfigError(f"experiment_id must be one plain path component, got {name!r}")
        if not 1 <= self.permutations <= MAX_PERMUTATIONS:
            raise ConfigError(f"permutations must lie in [1, {MAX_PERMUTATIONS}]")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must lie in [0, 2**64)")
        # every eligible speaker can give at least 2 chunks of at least 1 character
        if self.chunk_count < 2:
            raise ConfigError("chunk_count must be at least 2")
        if self.chunk_size < 1:
            raise ConfigError("chunk_size must be at least 1")
        if self.chunk_count * self.chunk_size > self.min_size:
            raise ConfigError(f"chunk_count*chunk_size ({self.chunk_count * self.chunk_size}) "
                              f"exceeds min_size ({self.min_size})")
        if not 0 < self.significance < 1:
            raise ConfigError("significance must lie strictly between 0 and 1")
        # the pipeline keys each file's speakers, aliases and chunks by this pair
        keys = [(e.play_id, e.translator) for e in self.corpus]
        if len(set(keys)) != len(keys):
            raise ConfigError("each (play_id, translator) must name one corpus file")
        if not self.modes:
            raise ConfigError("modes must be non-empty")
        for m in self.modes:
            if type(m) is not str:
                raise ConfigError(f"modes must be strings, got {m!r}")
            TokenizationMode.parse(m)
        if len(set(self.modes)) != len(self.modes):
            raise ConfigError(f"modes must list each mode once, got {list(self.modes)}")
        if self.labeling not in LABELINGS:
            raise ConfigError(
                f"unknown labeling mode {self.labeling!r}; expected one of {tuple(LABELINGS)}"
            )


def load_config(path: str | Path, **overrides) -> ExperimentConfig:
    """Load a config JSON, which is checked as it is built; keyword overrides win."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8-sig"))  # a BOM is tolerated, as in plays
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    data.update({k: v for k, v in overrides.items() if v is not None})
    try:
        corpus = tuple(CorpusEntry(**e) for e in data.pop("corpus"))
        config = ExperimentConfig(corpus=corpus, **data)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    # corpus paths are relative to the config file
    return replace(config, corpus=tuple(
        replace(e, path=str((path.parent / e.path).resolve())) for e in config.corpus
    ))


@contextmanager
def _stage(name: str, timings: dict[str, float] | None = None) -> Iterator[None]:
    """Re-raise a DramastyleError or OSError of the block as a PipelineError
    naming the stage; any other error is a fault of the program, and
    passes through with its traceback.

    If the block succeeds, its perf_counter seconds are added to
    `timings[name]`, when given: a stage opened once per corpus file, as
    `ingest`, `extract` and `segmentation` are, sums its seconds over the
    files. Stages are never nested.
    """
    start = time.perf_counter()
    try:
        yield
    except (DramastyleError, OSError) as exc:
        raise PipelineError(name, exc) from exc
    if timings is not None:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - start


@contextmanager
def _output_dir(config: ExperimentConfig) -> Iterator[Path]:
    """Yield an empty sibling of `output_dir/experiment_id` to write into.

    Only when the block succeeds does it replace the previous directory as
    a whole, so a rerun never mixes stale and fresh files and a failed run
    leaves the previous results untouched.
    """
    final = Path(config.output_dir) / config.experiment_id
    if final.is_symlink() or final.exists() and not final.is_dir():  # the swap would hide it
        raise NotADirectoryError(f"{final}: a file or symlink is where the output directory goes")
    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = final.with_name(f".{final.name}.{os.urandom(8).hex()}.tmp")
    tmp.mkdir()
    try:
        yield tmp
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    stale = final.with_name(f".{final.name}.{os.urandom(8).hex()}.old")
    if final.exists():
        final.rename(stale)
    tmp.rename(final)
    shutil.rmtree(stale, ignore_errors=True)


# labeling mode -> the category of a chunk's (play_id, translator, speaker) source
LABELINGS: dict[str, Callable[[str, str, str], str]] = {
    "character": lambda play_id, translator, speaker: speaker,
    "play": lambda play_id, translator, speaker: play_id,
    "character_by_translator": lambda play_id, translator, speaker: f"{speaker}@{translator}",
}


@dataclass(frozen=True)
class Chunk:
    """An equal-size slice from the front of one speaker's dialogue."""
    chunk_id: str
    category: str
    source: tuple[str, str, str]  # (play_id, translator, speaker)
    text: str


def _chunk_corpus(
    config: ExperimentConfig, timings: dict[str, float]
) -> tuple[list[Chunk], list[str], dict[str, list]]:
    """Config to chunks, one corpus file at a time: load, strip and parse
    the file, as stage `ingest`, and reduce its turns at once to its
    speakers' eligibility records and kept windows (`_add_play`). Beside
    the windows, one file's text at most is held, and no turn object is
    built.

    Returns the chunks of `_number_chunks`, the encoding and parse
    warnings, and the run_meta.json records `corpus_paths`, `turns` (each
    file's turn count), `encoding_fallbacks` (the `play_id/translator` of
    each file that was not read as UTF-8) and `eligibility`.
    """
    plays: dict[tuple[str, str], tuple[list, dict[str, str]]] = {}
    warnings, fallbacks, turns = [], [], []
    for entry in config.corpus:
        where = f"{entry.play_id}/{entry.translator}"
        rules = entry.parse_rules
        with _stage("ingest", timings):
            doc = load_document(entry.path, latin1_fallback=entry.latin1_fallback)
            if doc.encoding_note != "utf-8":
                fallbacks.append(where)
                warnings.append(f"{where}: {doc.encoding_note}")
            speakers, texts, parsed = parse_turns(strip_boilerplate(doc, rules), rules)
            del doc  # freed before the turns are reduced and the next file is read
            warnings.extend(f"{where}: {w}" for w in parsed)
            aliases = dict(entry.speaker_aliases)
            if aliases:
                names = set(speakers)
                warnings.extend(f"{where}: speaker alias '{name}' names no speaker"
                                for name in aliases if name not in names)
            turns.append(len(texts))
        _add_play(plays, (entry.play_id, entry.translator), speakers, texts, aliases, config,
                  timings)
        del speakers, texts  # only the kept windows outlive the file
    chunks, eligibility = _number_chunks(plays, config, timings)
    return chunks, warnings, {"corpus_paths": [e.path for e in config.corpus], "turns": turns,
                              "encoding_fallbacks": fallbacks, "eligibility": eligibility}


def prepare_chunks(
    plays: Sequence[PlayScript],
    config: ExperimentConfig,
    timings: dict[str, float] | None = None,
) -> tuple[list[Chunk], list[dict]]:
    """Turns to labelled chunks under the settings of the checked `config`:
    for plays that are already parsed, the reduction that `_chunk_corpus`
    makes in both pipelines as it reads the corpus files.

    Stage `extract` gathers each speaker's turns in speaking order per
    (play_id, translator); that corpus entry's `speaker_aliases` map
    speaker names, as parse_play writes them, onto canonical ones. Two
    plays of one (play_id, translator) raise PreconditionFailed.
    Stage `segmentation` keeps the speakers whose turns, joined with a
    space, reach `min_size` characters; only a corpus where no play has
    one raises StatisticsError. The first chunk_count * chunk_size
    characters of each kept speaker, in sorted (play_id, translator,
    speaker) order, give `chunk_count` chunks, labelled by the `labeling`
    mode and numbered `category#NN` per category; fewer than 2 categories
    raise StatisticsError. Both stages open once per play, and
    `segmentation` once more to number the chunks; their seconds are
    summed into `timings`. Each of these errors arrives as a PipelineError
    naming its stage.

    Returns the chunks by chunk_id and one eligibility record per speaker,
    sorted by (play_id, translator) and in speaking order within a play:
    play_id, translator, speaker, chars of dialogue, the chars its chunks
    use and whether it was kept.
    """
    aliases = {(e.play_id, e.translator): dict(e.speaker_aliases) for e in config.corpus}
    reduced: dict[tuple[str, str], tuple[list, dict[str, str]]] = {}
    for play in plays:
        key = (play.play_id, play.translator)
        _add_play(reduced, key, [t.speaker for t in play.turns], [t.text for t in play.turns],
                  aliases.get(key, {}), config, timings)
    return _number_chunks(reduced, config, timings)


def _add_play(
    plays: dict[tuple[str, str], tuple[list, dict[str, str]]],
    key: tuple[str, str],
    speakers: Sequence[str],
    texts: Sequence[str],
    aliases: Mapping[str, str],
    config: ExperimentConfig,
    timings: dict[str, float] | None,
) -> None:
    """Reduce one play's turns, given as parallel lists, to `plays[key]`:
    its (speaker, chars, kept) records in speaking order and the window of
    each kept speaker, the first chunk_count * chunk_size characters of its
    turns joined with a space. Only the leading turns the window needs are
    joined: the whole join has the turns' lengths plus one space between
    each two turns as its `chars`, empty turns included.
    """
    window = config.chunk_count * config.chunk_size
    with _stage("extract", timings):
        if key in plays:
            raise PreconditionFailed(f"each (play_id, translator) must name one play: {key}")
        if aliases:
            speakers = [aliases.get(speaker, speaker) for speaker in speakers]
        by_speaker: dict[str, list[str]] = {}
        for speaker, text in zip(speakers, texts):
            by_speaker.setdefault(speaker, []).append(text)
    with _stage("segmentation", timings):
        records, windows = [], {}
        for speaker, said in by_speaker.items():
            chars = sum(map(len, said)) + len(said) - 1
            kept = chars >= config.min_size
            if kept:  # then chars >= window, and the loop breaks
                joined = -1
                for used, text in enumerate(said, 1):
                    joined += len(text) + 1
                    if joined >= window:
                        break
                windows[speaker] = " ".join(said[:used])
            records.append((speaker, chars, kept))
        plays[key] = records, windows


def _number_chunks(
    plays: Mapping[tuple[str, str], tuple[list, dict[str, str]]],
    config: ExperimentConfig,
    timings: dict[str, float] | None,
) -> tuple[list[Chunk], list[dict]]:
    """Cut and label the windows of the plays that `_add_play` reduced, as
    stage `segmentation`: the chunks and eligibility records, in the order
    `prepare_chunks` returns them."""
    window = config.chunk_count * config.chunk_size
    label = LABELINGS[config.labeling]
    with _stage("segmentation", timings):
        eligibility = []
        by_category: dict[str, list[Chunk]] = {}
        for play_id, translator in sorted(plays):
            records, windows = plays[play_id, translator]
            eligibility.extend({
                "play_id": play_id, "translator": translator, "speaker": speaker,
                "chars": chars, "chars_used": window if kept else 0, "kept": kept,
            } for speaker, chars, kept in records)
            for speaker in sorted(windows):
                source = (play_id, translator, speaker)
                category = label(*source)
                bucket = by_category.setdefault(category, [])
                text = windows[speaker]
                for start in range(0, window, config.chunk_size):
                    bucket.append(Chunk(f"{category}#{len(bucket):02d}", category, source,
                                        text[start:start + config.chunk_size]))
        if not by_category:
            raise StatisticsError(f"no character in any play reaches {config.min_size} characters")
        if len(by_category) < 2:
            raise StatisticsError(f"need at least 2 categories, got {sorted(by_category)}")
        chunks = sorted((c for bucket in by_category.values() for c in bucket),
                        key=lambda c: c.chunk_id)
        return chunks, eligibility


def chunk_matrix(
    chunks: Sequence[Chunk], mode: TokenizationMode, timings: dict[str, float] | None = None
) -> tuple[DissimilarityMatrix, dict, dict[str, int]]:
    """Count every chunk's tokens under `mode` and score all pairs, as the
    stages `tokenize:<mode>` and `matrix:<mode>`, whose seconds go into
    `timings`.

    Returns the matrix, rows in chunk_id order; its sizes: the chunks,
    pairs, union vocabulary, the mean number of distinct tokens per chunk
    (which sets the matrix cost) and the smallest and largest token total:
    the metric assumes equal-size chunks, and token totals can differ
    between equal-size chunks; and each chunk's token total by chunk_id.
    """
    ordered = sorted(chunks, key=lambda c: c.chunk_id)
    with _stage(f"tokenize:{mode.name}", timings):
        counts = count_matrix([c.text for c in ordered], mode)
    with _stage(f"matrix:{mode.name}", timings):
        matrix = matrix_from_counts([c.chunk_id for c in ordered], counts)
    totals = counts.sum(axis=1)
    n = len(ordered)
    sizes = {
        "chunks": n,
        "pairs": n * (n - 1) // 2,
        "vocabulary": counts.shape[1],
        "support_mean": np.count_nonzero(counts) / n,
        "token_total_min": int(totals.min()),
        "token_total_max": int(totals.max()),
    }
    return matrix, sizes, dict(zip(matrix.chunk_ids, map(int, totals)))


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a UTF-8 CSV with LF line ends: the header, then the rows."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_matrix_csv(matrix: DissimilarityMatrix, path: str | Path) -> None:
    """Matrix CSV: header of chunk_ids, one labeled row per chunk, 6 decimals.

    The bytes are those of `_write_csv` with one field per number. The csv
    module writes the header and quotes each row's chunk_id as the first of
    several fields; the numbers follow as one `%` over a "%.6f,%.6f,..."
    template, which gives the bytes of `format(v, ".6f")` per entry, and a
    number needs no quoting. One row at a time is held as Python floats,
    not the whole matrix.
    """
    template = ",".join(["%.6f"] * len(matrix.chunk_ids)) + "\n"
    label = io.StringIO()
    label_writer = csv.writer(label, lineterminator="\n")
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerow(["chunk_id", *matrix.chunk_ids])
        for cid, row in zip(matrix.chunk_ids, matrix.scores):
            label.seek(0)
            label.truncate()
            label_writer.writerow([cid, ""])  # the quoted id, then ",\n"
            f.write(label.getvalue()[:-1] + template % tuple(row.tolist()))


def _mode_section(chunk_ids: Sequence[str], baselines: PermutationBaselines) -> dict:
    """One mode's section of report.json, laid out from the engine's arrays:
    a record per category, with its two nulls, and each chunk's attributed
    category, in matrix order."""
    result, null = baselines.attribution, baselines.rank_sum_null
    names = result.categories
    hit_means = baselines.hit_null.sum(axis=1) / null.shape[1]
    # row by row: std(axis=1) would allocate a temporary of the null's size
    summaries = [(float(r.mean()), float(r.std()), float(r.min()), float(r.max())) for r in null]
    categories = [
        {"category": name, "rank_sum": rank_sum, "rank_sum_p": rank_sum_p,
         "attribution_hits": hits, "attribution_total": total, "attribution_p": attribution_p,
         "rank_sum_null": {"null_mean": mean, "null_sd": sd, "null_min": low, "null_max": high},
         "attribution_null": {"null_mean": hit_mean}}
        for name, rank_sum, rank_sum_p, hits, total, attribution_p, (mean, sd, low, high), hit_mean
        in zip(names, baselines.rank_sums.tolist(), baselines.rank_sum_p.tolist(),
               baselines.hits.tolist(), np.bincount(result.codes).tolist(),
               baselines.attribution_p.tolist(), summaries, hit_means.tolist())
    ]
    best = result.means.argmin(axis=1)  # first index wins: lexicographic tie-break
    attribution = [{"chunk_id": chunk_id, "attributed_category": names[k]}
                   for chunk_id, k in zip(chunk_ids, best.tolist())]
    return {"categories": categories, "attribution": attribution}


def _blas() -> dict:
    """NumPy's BLAS as its build configuration names it; a key NumPy lacks is None."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def _write_run_meta(out_dir: Path, timings: dict[str, float], sizes: dict, **extra) -> None:
    """Write the run_meta.json sidecar: time written, stage seconds, sizes,
    NumPy's BLAS and the `extra` keys. Call it after the report stage, whose
    time it holds."""
    sidecar = {
        "written_at": datetime.now(timezone.utc).isoformat(),
        "timings": {name: round(secs, 6) for name, secs in timings.items()},
        "sizes": sizes,
        "blas": _blas(),
        **extra,
    }
    (out_dir / "run_meta.json").write_text(
        json.dumps(sidecar, indent=2) + "\n", encoding="utf-8"
    )


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute the full pipeline, write all artifacts and return the report.

    Writes chunk_manifest.csv, one matrix_<mode>.csv per mode, the returned
    report as report.json, and the run_meta.json sidecar. They replace
    `output_dir/experiment_id` as a whole, and only if the run succeeds.
    The permutation orders are drawn once, for all modes, as stage
    `permutation_orders`.
    """
    timings: dict[str, float] = {}
    sizes: dict[str, dict] = {}
    token_totals: dict[str, dict[str, int]] = {}
    matrices, sections = {}, {}
    with _output_dir(config) as out_dir:
        chunks, warnings, records = _chunk_corpus(config, timings)
        labels = {c.chunk_id: c.category for c in chunks}
        with _stage("permutation_orders", timings):
            orders = draw_orders(len(chunks), config.permutations, config.seed)
        for spec in config.modes:
            mode = TokenizationMode.parse(spec)
            matrix, sizes[mode.name], token_totals[mode.name] = chunk_matrix(chunks, mode, timings)
            # the orders permute chunks by matrix position
            assert matrix.chunk_ids == tuple(labels)
            sizes[mode.name]["permutations"] = config.permutations
            matrices[mode.name] = matrix
            with _stage(f"statistics:{mode.name}", timings):
                # no name holds the engine's result: its nulls are freed with the mode
                sections[mode.name] = _mode_section(
                    matrix.chunk_ids, permutation_baselines(matrix, labels, orders)
                )
        with _stage("report", timings):
            # chunks come sorted by chunk_id, as the matrices' rows
            _write_csv(out_dir / "chunk_manifest.csv", (
                "chunk_id", "category", "play_id", "translator", "speaker", "size_units",
            ), ([c.chunk_id, c.category, *c.source, len(c.text)] for c in chunks))
            for name, matrix in matrices.items():
                write_matrix_csv(matrix, out_dir / f"matrix_{name}.csv")
            echo = asdict(config)
            del echo["output_dir"]  # locations go to run_meta.json: the report echoes content
            for entry in echo["corpus"]:
                del entry["path"]
                entry["speaker_aliases"] = dict(entry["speaker_aliases"])
            # lists for the config's tuples: the returned report equals report.json read back
            echo = json.loads(json.dumps(echo))
            report = {"config": echo, "modes": sections, "warnings": warnings}
            (out_dir / "report.json").write_text(
                json.dumps(report, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
            )
        _write_run_meta(out_dir, timings, sizes, **records, token_totals=token_totals)
    return report


_CROSS_COLUMNS = (
    "mode", "chunk_id", "play_id", "translator", "speaker",
    "own_category", "nearest_foreign_category", "nearest_foreign_score",
)


def compare_translations(config: ExperimentConfig) -> list[dict]:
    """Cross-translation table: each chunk's nearest foreign category.

    Needs at least two translators of the same play; the labeling is
    forced to character_by_translator. Writes cross_attribution.csv and
    the run_meta.json sidecar.
    """
    config = replace(config, labeling="character_by_translator")
    # a config holds one file per (play_id, translator)
    if len({e.play_id for e in config.corpus}) == len(config.corpus):
        raise PreconditionFailed("two translators of one play required")
    timings: dict[str, float] = {}
    sizes: dict[str, dict] = {}
    token_totals: dict[str, dict[str, int]] = {}
    rows = []
    with _output_dir(config) as out_dir:
        chunks, warnings, records = _chunk_corpus(config, timings)
        labels = {c.chunk_id: c.category for c in chunks}
        for spec in config.modes:
            mode = TokenizationMode.parse(spec)
            matrix, sizes[mode.name], token_totals[mode.name] = chunk_matrix(chunks, mode, timings)
            # the attribution lists chunks by matrix position
            assert matrix.chunk_ids == tuple(labels)
            with _stage(f"cross:{mode.name}", timings):
                attribution = attribute_chunks(matrix, labels)
                names, own, at = attribution.categories, attribution.codes, np.arange(len(chunks))
                foreign = attribution.means.copy()
                foreign[at, own] = np.inf
                nearest = foreign.argmin(axis=1)  # first index wins: lexicographic tie-break
                scores = foreign[at, nearest].tolist()
                for chunk, k, j, score in zip(chunks, own.tolist(), nearest.tolist(), scores):
                    rows.append(dict(zip(_CROSS_COLUMNS, (
                        mode.name, chunk.chunk_id, *chunk.source, names[k], names[j], score,
                    ))))
        with _stage("report", timings):
            _write_csv(out_dir / "cross_attribution.csv", _CROSS_COLUMNS, (
                (*list(row.values())[:-1], format(row["nearest_foreign_score"], ".6f"))
                for row in rows
            ))
        # no report.json here, so the sidecar is the record of the warnings
        _write_run_meta(out_dir, timings, sizes, warnings=warnings, **records,
                        token_totals=token_totals)
    return rows
