"""Declarative experiment configs and the end-to-end pipeline.

A config JSON names the corpus files, the labeling mode, one or more
tokenization modes, the chunking budget, and the permutation settings.
`run_experiment` executes ingest -> extract -> select -> chunk ->
tokenize -> matrix -> statistics and writes a manifest CSV, one matrix
CSV per mode, and a report JSON; `prepare_chunks` and `chunk_matrix` are
the front half that every command shares. Everything is deterministic
given the config and corpus bytes; the wall-clock timestamp lives in a
sidecar file so the hashed outputs stay reproducible.
"""
from __future__ import annotations

import csv
import json
import secrets
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .errors import ConfigError, NoEligibleCharacters, PipelineError, PreconditionFailed
from .homogeneity import (
    HomogeneityReport,
    attribute_chunks,
    attribution_baseline,
    rank_pairs,
    rank_sum_baseline,
    within_category_rank_sum,
)
from .ingest import (
    ParseRules,
    PlayScript,
    extract_character_text,
    load_document,
    parse_play,
    strip_boilerplate,
)
from .segmentation import (
    CategoryLabeling,
    Chunk,
    build_chunks,
    check_labeling,
    select_eligible,
    write_manifest,
)
from .similarity import DissimilarityMatrix, pairwise_matrix, write_matrix_csv
from .tokenization import TokenizationMode, tokenize

DEFAULT_SIGNIFICANCE = 0.05


@dataclass(frozen=True)
class CorpusEntry:
    path: str
    play_id: str
    language: str
    translator: str = "original"
    parse_rules: dict = field(default_factory=dict)
    speaker_aliases: dict = field(default_factory=dict)
    latin1_fallback: bool = False


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

    def validate(self) -> None:
        if not self.corpus:
            raise ConfigError("corpus must be non-empty")
        if self.permutations < 1:
            raise ConfigError("permutations must be at least 1")
        if self.chunk_count < 2:
            raise ConfigError("chunk_count must be at least 2")
        if self.chunk_size < 1:
            raise ConfigError("chunk_size must be at least 1")
        if not 0 < self.significance < 1:
            raise ConfigError("significance must lie strictly between 0 and 1")
        if self.chunk_count * self.chunk_size > self.min_size:
            raise ConfigError(
                f"chunk_count*chunk_size ({self.chunk_count * self.chunk_size}) "
                f"exceeds min_size ({self.min_size})"
            )
        keys = [(e.play_id, e.language, e.translator) for e in self.corpus]
        if len(set(keys)) != len(keys):
            raise ConfigError("play_ids must be unique per (language, translator)")
        for m in self.modes:
            try:
                TokenizationMode.parse(m)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        CategoryLabeling.for_mode(self.labeling)

    def to_dict(self) -> dict:
        return asdict(self)


def load_config(path: str | Path, **overrides) -> ExperimentConfig:
    """Load and validate a config JSON; keyword overrides win."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    data.update({k: v for k, v in overrides.items() if v is not None})
    try:
        corpus = tuple(CorpusEntry(**e) for e in data.pop("corpus"))
        data["modes"] = tuple(data.get("modes", ("letter_unigram",)))
        config = ExperimentConfig(corpus=corpus, **data)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    config.validate()
    # corpus paths are relative to the config file
    resolved = tuple(
        CorpusEntry(**{**asdict(e), "path": str((path.parent / e.path).resolve())})
        for e in config.corpus
    )
    return ExperimentConfig(**{**asdict(config), "corpus": resolved})


@dataclass
class ExperimentReport:
    experiment_id: str
    config: dict
    modes: dict
    warnings: list
    settings: dict

    def to_json(self) -> str:
        payload = {
            "experiment_id": self.experiment_id,
            "config": self.config,
            "modes": self.modes,
            "warnings": self.warnings,
            "settings": self.settings,
        }
        return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=False) + "\n"


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Re-raise any error of the block as a PipelineError naming the stage."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


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


def _ingest_corpus(config: ExperimentConfig) -> tuple[list[PlayScript], list[str]]:
    plays = []
    warnings = []
    for entry in config.corpus:
        doc = load_document(entry.path, latin1_fallback=entry.latin1_fallback)
        rules = ParseRules(**{
            k: tuple(tuple(p) for p in v) if k == "stage_direction_brackets" else
            (tuple(v) if k == "delimiters" else v)
            for k, v in entry.parse_rules.items()
        })
        doc = strip_boilerplate(doc, rules)
        play = parse_play(doc, rules, entry.play_id, entry.language, entry.translator)
        warnings.extend(f"{entry.play_id}/{entry.translator}: {w}" for w in play.warnings)
        plays.append(play)
    return plays, warnings


def _aliases(config: ExperimentConfig) -> dict[tuple[str, str], dict[str, str]]:
    return {(e.play_id, e.translator): e.speaker_aliases for e in config.corpus}


def prepare_chunks(
    plays: Sequence[PlayScript],
    labeling: str,
    min_size: int,
    chunk_count: int,
    chunk_size: int,
    aliases: Mapping[tuple[str, str], Mapping[str, str]] | None = None,
) -> list[Chunk]:
    """Extract -> select -> chunk -> check: the front half of every command.

    Each speaker's dialogue is gathered per (play_id, translator), with
    `aliases[(play_id, translator)]` mapping speaker names (case-insensitive)
    onto canonical ones. A play with no eligible speaker is skipped; only a
    corpus where no play has one fails.
    """
    aliases = aliases or {}
    by_play: dict[tuple[str, str], dict[str, str]] = {}
    with _stage("extract"):
        for play in plays:
            key = (play.play_id, play.translator)
            alias = {k.lower(): v.lower() for k, v in aliases.get(key, {}).items()}
            texts = by_play.setdefault(key, {})
            for speaker, text in extract_character_text(play).items():
                speaker = alias.get(speaker, speaker)
                texts[speaker] = f"{texts[speaker]} {text}" if speaker in texts else text
    with _stage("segmentation"):
        eligible: dict[tuple[str, str, str], str] = {}
        for (play_id, translator), texts in sorted(by_play.items()):
            try:
                kept = select_eligible(texts, min_size)
            except NoEligibleCharacters:
                continue  # other plays may still qualify; checked globally below
            for speaker, text in kept.items():
                eligible[(play_id, translator, speaker)] = text
        if not eligible:
            raise NoEligibleCharacters(
                f"no character in any play reaches {min_size} characters"
            )
        chunks = build_chunks(
            eligible, CategoryLabeling.for_mode(labeling), chunk_count, chunk_size
        )
        check_labeling(chunks)
    return chunks


def chunk_matrix(
    chunks: Sequence[Chunk], mode: TokenizationMode, jobs: int = 1
) -> DissimilarityMatrix:
    """Tokenize every chunk under `mode` and score all pairs."""
    return pairwise_matrix([tokenize(c.text, mode, c.chunk_id) for c in chunks], jobs=jobs)


def _mode_analysis(config: ExperimentConfig, chunks, mode: TokenizationMode, jobs: int):
    matrix = chunk_matrix(chunks, mode, jobs)
    labels = {c.chunk_id: c.category for c in chunks}
    ranked = rank_pairs(matrix)
    attribution = attribute_chunks(matrix, labels)
    attr_p, attr_summary = attribution_baseline(
        matrix, labels, config.permutations, config.seed
    )
    categories = sorted(set(labels.values()))
    reports = []
    for category in categories:
        observed = within_category_rank_sum(ranked, labels, category)
        p, summary = rank_sum_baseline(
            ranked, labels, category, config.permutations, config.seed
        )
        reports.append(
            {
                "report": HomogeneityReport(
                    category=category,
                    rank_sum=observed,
                    rank_sum_p=p,
                    attribution_hits=attribution.hits[category],
                    attribution_total=attribution.totals[category],
                    attribution_p=attr_p[category],
                    permutations=config.permutations,
                    seed=config.seed,
                ),
                "rank_sum_null": summary,
            }
        )
    return matrix, attribution, reports, attr_summary


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Execute the full pipeline and write all artifacts.

    The artifacts replace `output_dir/experiment_id` as a whole, and only
    if the run succeeds.
    """
    config.validate()
    with _output_dir(config) as out_dir:
        with _stage("ingest"):
            plays, warnings = _ingest_corpus(config)
        chunks = prepare_chunks(
            plays, config.labeling, config.min_size, config.chunk_count,
            config.chunk_size, _aliases(config),
        )
        with _stage("segmentation"):
            manifest_path = out_dir / "chunk_manifest.csv"
            write_manifest(chunks, manifest_path)
        mode_sections = {}
        for mode_spec in config.modes:
            mode = TokenizationMode.parse(mode_spec)
            with _stage(f"analysis:{mode.name}"):
                matrix, attribution, reports, attr_summary = _mode_analysis(
                    config, chunks, mode, jobs
                )
                matrix_path = out_dir / f"matrix_{mode.name}.csv"
                write_matrix_csv(matrix, matrix_path)
                mode_sections[mode.name] = {
                    "chunk_manifest_ref": manifest_path.name,
                    "matrix_ref": matrix_path.name,
                    "categories": [
                        {**asdict(r["report"]), "rank_sum_null": r["rank_sum_null"]}
                        for r in reports
                    ],
                    "attribution": list(attribution.per_chunk),
                    "attribution_null": attr_summary,
                    "ties_logged": list(attribution.ties),
                }
        report = ExperimentReport(
            experiment_id=config.experiment_id,
            config=config.to_dict(),
            modes=mode_sections,
            warnings=warnings,
            settings={
                "permutations": config.permutations,
                "seed": config.seed,
                "threshold": config.significance,
            },
        )
        with _stage("report"):
            (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
            sidecar = {"written_at": datetime.now(timezone.utc).isoformat()}
            (out_dir / "run_meta.json").write_text(
                json.dumps(sidecar, indent=2) + "\n", encoding="utf-8"
            )
        return report


def compare_translations(config: ExperimentConfig, jobs: int = 1) -> list[dict]:
    """Cross-translation table: each chunk's nearest foreign category.

    Needs at least two translators of the same play; the labeling is
    forced to character_by_translator. Writes cross_attribution.csv.
    """
    config.validate()
    by_play: dict[str, set[str]] = {}
    for e in config.corpus:
        by_play.setdefault(e.play_id, set()).add(e.translator)
    if not any(len(t) >= 2 for t in by_play.values()):
        raise PreconditionFailed("two translators of one play required")
    config = ExperimentConfig(**{**config.to_dict(), "labeling": "character_by_translator",
                                 "corpus": config.corpus})
    with _output_dir(config) as out_dir:
        with _stage("ingest"):
            plays, _ = _ingest_corpus(config)
        chunks = prepare_chunks(
            plays, config.labeling, config.min_size, config.chunk_count,
            config.chunk_size, _aliases(config),
        )
        rows = []
        for mode_spec in config.modes:
            mode = TokenizationMode.parse(mode_spec)
            with _stage(f"cross:{mode.name}"):
                matrix = chunk_matrix(chunks, mode, jobs)
                labels = {c.chunk_id: c.category for c in chunks}
                attribution = attribute_chunks(matrix, labels)
                by_id = {c.chunk_id: c for c in chunks}
                for record in attribution.per_chunk:
                    own = record["true_category"]
                    foreign = {
                        c: s for c, s in record["mean_scores"].items() if c != own
                    }
                    nearest = min(foreign, key=lambda c: (foreign[c], c))
                    chunk = by_id[record["chunk_id"]]
                    play_id, translator, speaker = chunk.source
                    rows.append(
                        {
                            "mode": mode.name,
                            "chunk_id": record["chunk_id"],
                            "play_id": play_id,
                            "translator": translator,
                            "speaker": speaker,
                            "own_category": own,
                            "nearest_foreign_category": nearest,
                            "nearest_foreign_score": foreign[nearest],
                        }
                    )
        with _stage("report"):
            table = out_dir / "cross_attribution.csv"
            with open(table, "w", newline="", encoding="utf-8") as f:
                writer = csv.DictWriter(
                    f, fieldnames=list(rows[0].keys()), lineterminator="\n"
                )
                writer.writeheader()
                for row in rows:
                    row = dict(row)
                    row["nearest_foreign_score"] = format(
                        row["nearest_foreign_score"], ".6f"
                    )
                    writer.writerow(row)
        return rows
