"""Eligibility filtering and equal-size chunking of character dialogue."""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from .errors import ConfigError, DegenerateCategory, InsufficientText, NoEligibleCharacters

log = logging.getLogger(__name__)

LABELING_MODES = ("character", "play", "character_by_translator")


@dataclass(frozen=True)
class CategoryLabeling:
    """Maps a chunk's (play_id, translator, speaker) source to a category."""

    mode: str
    label_of: Callable[[str, str, str], str]

    @classmethod
    def for_mode(cls, mode: str) -> "CategoryLabeling":
        if mode == "character":
            return cls(mode, lambda play_id, translator, speaker: speaker)
        if mode == "play":
            return cls(mode, lambda play_id, translator, speaker: play_id)
        if mode == "character_by_translator":
            return cls(mode, lambda play_id, translator, speaker: f"{speaker}@{translator}")
        raise ConfigError(f"unknown labeling mode {mode!r}; expected one of {LABELING_MODES}")


@dataclass(frozen=True)
class Chunk:
    chunk_id: str
    category: str
    source: tuple[str, str, str]  # (play_id, translator, speaker)
    text: str
    size_units: int


def select_eligible(char_texts: dict[str, str], min_size: int) -> dict[str, str]:
    """Keep characters with at least `min_size` characters of dialogue.

    Inclusion/exclusion is logged per speaker so corpus surprises are
    visible in the run log rather than silently shaping the result.
    """
    if min_size <= 0:
        raise ValueError("min_size must be positive")
    kept = {}
    for speaker, text in char_texts.items():
        if len(text) >= min_size:
            kept[speaker] = text
            log.info("eligible: %s (%d chars)", speaker, len(text))
        else:
            log.info("excluded: %s (%d chars < %d)", speaker, len(text), min_size)
    if not kept:
        raise NoEligibleCharacters(
            f"no character reaches {min_size} characters of dialogue"
        )
    return kept


def chunk_text(text: str, chunk_count: int, chunk_size: int) -> list[str]:
    """Cut the text prefix into `chunk_count` slices of `chunk_size` chars.

    Anything beyond chunk_count * chunk_size is discarded (truncate-tail
    policy); boundaries may split words.
    """
    if chunk_count < 2:
        raise ValueError("chunk_count must be at least 2")
    needed = chunk_count * chunk_size
    if len(text) < needed:
        raise InsufficientText(
            f"text has {len(text)} chars, need {needed} ({chunk_count}x{chunk_size})"
        )
    return [text[i * chunk_size : (i + 1) * chunk_size] for i in range(chunk_count)]


def build_chunks(
    char_texts: dict[tuple[str, str, str], str],
    labeling: CategoryLabeling,
    chunk_count: int,
    chunk_size: int,
) -> list[Chunk]:
    """Chunk every eligible character and assign category labels.

    chunk_ids are `category#NN`, numbered per category over sources in
    sorted order, so identical inputs always yield identical ids.
    """
    by_category: dict[str, list[Chunk]] = {}
    for source in sorted(char_texts):
        play_id, translator, speaker = source
        category = labeling.label_of(play_id, translator, speaker)
        pieces = chunk_text(char_texts[source], chunk_count, chunk_size)
        bucket = by_category.setdefault(category, [])
        for piece in pieces:
            bucket.append(
                Chunk(
                    chunk_id=f"{category}#{len(bucket):02d}",
                    category=category,
                    source=source,
                    text=piece,
                    size_units=len(piece),
                )
            )
    chunks = [c for bucket in by_category.values() for c in bucket]
    chunks.sort(key=lambda c: c.chunk_id)
    return chunks


def check_labeling(chunks: Iterable[Chunk]) -> None:
    """Analysis needs >= 2 categories, each with >= 2 chunks."""
    sizes: dict[str, int] = {}
    for c in chunks:
        sizes[c.category] = sizes.get(c.category, 0) + 1
    if len(sizes) < 2:
        raise DegenerateCategory(f"need at least 2 categories, got {sorted(sizes)}")
    thin = sorted(cat for cat, n in sizes.items() if n < 2)
    if thin:
        raise DegenerateCategory(f"categories with fewer than 2 chunks: {thin}")


def write_manifest(chunks: list[Chunk], path: str | Path) -> None:
    """Chunk manifest CSV, sorted by chunk_id."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["chunk_id", "category", "play_id", "translator", "speaker", "size_units"])
        for c in sorted(chunks, key=lambda c: c.chunk_id):
            writer.writerow([c.chunk_id, c.category, *c.source, c.size_units])
