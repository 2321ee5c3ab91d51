"""Declarative experiment configs and the end-to-end pipeline.

A config JSON names the corpus files, the labeling mode, one or more
tokenization modes, the chunking budget, and the permutation settings.
`run_experiment` executes ingest -> extract -> select -> chunk and
label -> tokenize -> matrix -> statistics and writes a manifest CSV, one
matrix CSV per mode, and a report JSON; `compare_translations` writes
each chunk's nearest foreign category instead. Each is one straight
sequence of timed stages: `_chunk_corpus` (ingest, then
`prepare_chunks`), the command's own loop over the modes
(`chunk_matrix`, then its statistic), the report stage, and
`_write_run_meta`. `prepare_chunks` keeps each speaker with at least
`min_size` characters of dialogue, returns each decision for
run_meta.json only, and has `segmentation.build_chunks` cut and label
the kept texts; it and `chunk_matrix` are the front half that every
command shares. A config checks its fields when it is built, so an
invalid one never reaches a stage. Everything is deterministic given
the config and corpus bytes; the wall-clock timestamp lives in a
sidecar file so the hashed outputs stay reproducible.
"""
from __future__ import annotations

import csv
import json
import secrets
import shutil
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, NoEligibleCharacters, PipelineError, PreconditionFailed
from .homogeneity import attribute_chunks, draw_orders, permutation_baselines
from .ingest import (
    ParseRules,
    PlayScript,
    extract_character_text,
    load_document,
    parse_play,
    strip_boilerplate,
)
from .segmentation import Chunk, build_chunks, labeler, write_manifest
from .similarity import DissimilarityMatrix, matrix_from_counts, write_matrix_csv
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
    parse_rules: dict = field(default_factory=dict)
    speaker_aliases: dict = field(default_factory=dict)
    latin1_fallback: bool = False

    def __post_init__(self) -> None:
        # JSON gives any type: check them before any value is used
        fields = ("path", "play_id", "language", "translator")
        _check_types(self, fields, (str,), "a string", "corpus ")
        _check_types(self, ("latin1_fallback",), (bool,), "true or false", "corpus ")
        try:
            ParseRules(**self.parse_rules)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.play_id}/{self.translator}: parse_rules: {exc}") from None
        aliases = self.speaker_aliases
        if not (isinstance(aliases, Mapping)
                and all(isinstance(s, str) for kv in aliases.items() for s in kv)):
            raise ConfigError(f"{self.play_id}/{self.translator}: speaker_aliases must map "
                              "names to names")


def check_chunking(min_size: int, chunk_count: int, chunk_size: int) -> None:
    """Raise ConfigError unless every eligible speaker can give the chunks:
    at least 2 chunks of at least 1 character, within `min_size`."""
    if chunk_count < 2:
        raise ConfigError("chunk_count must be at least 2")
    if chunk_size < 1:
        raise ConfigError("chunk_size must be at least 1")
    if chunk_count * chunk_size > min_size:
        raise ConfigError(
            f"chunk_count*chunk_size ({chunk_count * chunk_size}) "
            f"exceeds min_size ({min_size})"
        )


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
        _check_types(self, ("modes",), (list, tuple), "a list")
        if not self.corpus:
            raise ConfigError("corpus must be non-empty")
        name = self.experiment_id
        # it names a directory under output_dir that a run replaces as a whole
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise ConfigError(f"experiment_id must be one plain path component, got {name!r}")
        if not 1 <= self.permutations <= MAX_PERMUTATIONS:
            raise ConfigError(f"permutations must lie in [1, {MAX_PERMUTATIONS}]")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must lie in [0, 2**64)")
        check_chunking(self.min_size, self.chunk_count, self.chunk_size)
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
        labeler(self.labeling)


def load_config(path: str | Path, **overrides) -> ExperimentConfig:
    """Load a config JSON, which is checked as it is built; keyword overrides win."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    data.update({k: v for k, v in overrides.items() if v is not None})
    try:
        corpus = tuple(CorpusEntry(**e) for e in data.pop("corpus"))
        if isinstance(data.get("modes"), list):
            data["modes"] = tuple(data["modes"])
        config = ExperimentConfig(corpus=corpus, **data)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    # corpus paths are relative to the config file
    return replace(config, corpus=tuple(
        replace(e, path=str((path.parent / e.path).resolve())) for e in config.corpus
    ))


@contextmanager
def _stage(name: str, timings: dict[str, float] | None = None) -> Iterator[None]:
    """Re-raise any error of the block as a PipelineError naming the stage.

    If the block succeeds, its perf_counter seconds go into
    `timings[name]`, when given. Stages are never nested or repeated.
    """
    start = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise PipelineError(name, exc) from exc
    if timings is not None:
        timings[name] = time.perf_counter() - start


@contextmanager
def _output_dir(config: ExperimentConfig) -> Iterator[Path]:
    """Yield an empty sibling of `output_dir/experiment_id` to write into.

    Only when the block succeeds does it replace the previous directory as
    a whole, so a rerun never mixes stale and fresh files and a failed run
    leaves the previous results untouched.
    """
    final = Path(config.output_dir) / config.experiment_id
    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = final.with_name(f".{final.name}.{secrets.token_hex(8)}.tmp")
    tmp.mkdir()
    try:
        yield tmp
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    stale = final.with_name(f".{final.name}.{secrets.token_hex(8)}.old")
    if final.exists():
        final.rename(stale)
    tmp.rename(final)
    shutil.rmtree(stale, ignore_errors=True)


def _ingest_corpus(
    config: ExperimentConfig,
) -> tuple[list[PlayScript], list[str], list[str]]:
    """Load and parse every corpus entry; return the plays, the warnings and
    the `play_id/translator` of each file that was not read as UTF-8."""
    plays = []
    warnings = []
    fallbacks = []
    for entry in config.corpus:
        doc = load_document(entry.path, latin1_fallback=entry.latin1_fallback)
        if doc.encoding_note != "utf-8":
            fallbacks.append(f"{entry.play_id}/{entry.translator}")
            warnings.append(f"{entry.play_id}/{entry.translator}: {doc.encoding_note}")
        rules = ParseRules(**entry.parse_rules)
        doc = strip_boilerplate(doc, rules)
        play = parse_play(doc, rules, entry.play_id, entry.language, entry.translator)
        warnings.extend(f"{entry.play_id}/{entry.translator}: {w}" for w in play.warnings)
        plays.append(play)
    return plays, warnings, fallbacks


def _chunk_corpus(
    config: ExperimentConfig, timings: dict[str, float]
) -> tuple[list[Chunk], list[str], dict[str, list]]:
    """Ingest the corpus and chunk it with `prepare_chunks`; return the
    chunks, the encoding and parse warnings, and the run_meta.json records
    `encoding_fallbacks` and `eligibility` (the eligibility decisions)."""
    # ingest in a frame of its own, so that its last document is freed before chunking
    with _stage("ingest", timings):
        plays, warnings, fallbacks = _ingest_corpus(config)
    aliases = {(e.play_id, e.translator): e.speaker_aliases for e in config.corpus}
    chunks, eligibility = prepare_chunks(
        plays, config.labeling, config.min_size, config.chunk_count,
        config.chunk_size, aliases, timings,
    )
    return chunks, warnings, {"encoding_fallbacks": fallbacks, "eligibility": eligibility}


def prepare_chunks(
    plays: Sequence[PlayScript],
    labeling: str,
    min_size: int,
    chunk_count: int,
    chunk_size: int,
    aliases: Mapping[tuple[str, str], Mapping[str, str]] | None = None,
    timings: dict[str, float] | None = None,
) -> tuple[list[Chunk], list[dict]]:
    """Extract -> select -> chunk and label: the front half of every command.

    Each speaker's dialogue is gathered per (play_id, translator), with
    `aliases[(play_id, translator)]` mapping speaker names onto canonical
    ones; both sides compare and are stored case-folded. Two plays of one
    (play_id, translator) raise PreconditionFailed. A play with no
    eligible speaker is skipped; only a corpus where no play has one
    fails. Stage seconds go into `timings`. Returns the chunks and the
    eligibility records, one per speaker: play_id, translator, speaker,
    chars of dialogue, and whether it was kept.
    """
    aliases = aliases or {}
    by_play: dict[tuple[str, str], dict[str, str]] = {}
    with _stage("extract", timings):
        for play in plays:
            key = (play.play_id, play.translator)
            if key in by_play:
                raise PreconditionFailed(f"each (play_id, translator) must name one play: {key}")
            alias = {k.casefold(): v.casefold() for k, v in aliases.get(key, {}).items()}
            texts = by_play[key] = {}
            for speaker, text in extract_character_text(play).items():
                speaker = alias.get(speaker.casefold(), speaker)
                texts[speaker] = f"{texts[speaker]} {text}" if speaker in texts else text
    with _stage("segmentation", timings):
        eligible: dict[tuple[str, str, str], str] = {}
        eligibility = []
        for (play_id, translator), texts in sorted(by_play.items()):
            for speaker, text in texts.items():
                kept = len(text) >= min_size
                if kept:
                    eligible[(play_id, translator, speaker)] = text
                eligibility.append({
                    "play_id": play_id, "translator": translator, "speaker": speaker,
                    "chars": len(text), "kept": kept,
                })
        if not eligible:
            raise NoEligibleCharacters(
                f"no character in any play reaches {min_size} characters"
            )
        return build_chunks(eligible, labeling, chunk_count, chunk_size), eligibility


def chunk_matrix(
    chunks: Sequence[Chunk], mode: TokenizationMode
) -> tuple[DissimilarityMatrix, dict, dict[str, int]]:
    """Count every chunk's tokens under `mode` and score all pairs.

    Returns the matrix, rows in chunk_id order; its sizes: the chunks,
    pairs, union vocabulary, the mean number of distinct tokens per chunk
    (which sets the matrix cost) and the smallest and largest token total:
    the metric assumes equal-size chunks, and token totals can differ
    between equal-size chunks; and each chunk's token total by chunk_id.
    """
    ordered = sorted(chunks, key=lambda c: c.chunk_id)
    counts = count_matrix([c.text for c in ordered], mode)
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


def _write_run_meta(out_dir: Path, timings: dict[str, float], sizes: dict, **extra) -> None:
    """Write the run_meta.json sidecar: time written, stage seconds, sizes
    and the `extra` keys. Call it after the report stage, whose time it holds."""
    sidecar = {
        "written_at": datetime.now(timezone.utc).isoformat(),
        "timings": {name: round(secs, 6) for name, secs in timings.items()},
        "sizes": sizes,
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
            with _stage(f"analysis:{mode.name}", timings):
                matrix, sizes[mode.name], token_totals[mode.name] = chunk_matrix(chunks, mode)
                # the orders permute chunks by matrix position
                assert matrix.chunk_ids == tuple(labels)
                sizes[mode.name]["permutations"] = config.permutations
                baselines = permutation_baselines(matrix, labels, orders)
                attribution = baselines.attribution
                categories = [
                    {
                        "category": category,
                        "rank_sum": rank_sum_null["observed"],
                        "rank_sum_p": baselines.rank_sum_p[category],
                        "attribution_hits": attribution.hits[category],
                        "attribution_total": attribution.totals[category],
                        "attribution_p": baselines.attribution_p[category],
                        "permutations": config.permutations,
                        "seed": config.seed,
                        "rank_sum_null": rank_sum_null,
                    }
                    for category, rank_sum_null in baselines.rank_sum_null.items()
                ]
                matrices[mode.name] = matrix
                sections[mode.name] = {
                    "chunk_manifest_ref": "chunk_manifest.csv",
                    "matrix_ref": f"matrix_{mode.name}.csv",
                    "categories": categories,
                    "attribution": list(attribution.per_chunk),
                    "attribution_null": baselines.attribution_null,
                    "ties_logged": list(attribution.ties),
                }
        with _stage("report", timings):
            write_manifest(chunks, out_dir / "chunk_manifest.csv")
            for name, matrix in matrices.items():
                write_matrix_csv(matrix, out_dir / sections[name]["matrix_ref"])
            report = {
                "experiment_id": config.experiment_id,
                "config": asdict(config),
                "modes": sections,
                "warnings": warnings,
                "settings": {
                    "permutations": config.permutations,
                    "seed": config.seed,
                    "threshold": config.significance,
                },
            }
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
            with _stage(f"cross:{mode.name}", timings):
                matrix, sizes[mode.name], token_totals[mode.name] = chunk_matrix(chunks, mode)
                # the attribution lists chunks by matrix position
                assert matrix.chunk_ids == tuple(labels)
                attribution = attribute_chunks(matrix, labels)
                for chunk, record in zip(chunks, attribution.per_chunk):
                    own = record["true_category"]
                    foreign = {c: s for c, s in record["mean_scores"].items() if c != own}
                    nearest = min(foreign, key=lambda c: (foreign[c], c))
                    rows.append(dict(zip(_CROSS_COLUMNS, (
                        mode.name, chunk.chunk_id, *chunk.source, own, nearest, foreign[nearest],
                    ))))
        with _stage("report", timings):
            with open(out_dir / "cross_attribution.csv", "w", newline="",
                      encoding="utf-8") as f:
                writer = csv.DictWriter(f, fieldnames=_CROSS_COLUMNS, lineterminator="\n")
                writer.writeheader()
                for row in rows:
                    score = format(row["nearest_foreign_score"], ".6f")
                    writer.writerow({**row, "nearest_foreign_score": score})
        # no report.json here, so the sidecar is the record of the warnings
        _write_run_meta(out_dir, timings, sizes, warnings=warnings, **records,
                        token_totals=token_totals)
    return rows
