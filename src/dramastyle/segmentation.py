"""Equal-size chunking of character dialogue, labelled by category."""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from .errors import ConfigError, DegenerateCategory, InsufficientText, PreconditionFailed

# labeling mode -> the category of a chunk's (play_id, translator, speaker) source
LABELINGS: dict[str, Callable[[str, str, str], str]] = {
    "character": lambda play_id, translator, speaker: speaker,
    "play": lambda play_id, translator, speaker: play_id,
    "character_by_translator": lambda play_id, translator, speaker: f"{speaker}@{translator}",
}


def labeler(labeling: str) -> Callable[[str, str, str], str]:
    """The `LABELINGS` function of mode `labeling`; ConfigError for an unknown mode."""
    try:
        return LABELINGS[labeling]
    except KeyError:
        raise ConfigError(
            f"unknown labeling mode {labeling!r}; expected one of {tuple(LABELINGS)}"
        ) from None


@dataclass(frozen=True)
class Chunk:
    chunk_id: str
    category: str
    source: tuple[str, str, str]  # (play_id, translator, speaker)
    text: str


def chunk_text(text: str, chunk_count: int, chunk_size: int) -> list[str]:
    """Cut the text prefix into `chunk_count` slices of `chunk_size` chars.

    Anything beyond chunk_count * chunk_size is discarded (truncate-tail
    policy); boundaries may split words. Fewer than 2 chunks, or chunks
    of fewer than 1 char, raise PreconditionFailed.
    """
    if chunk_count < 2:
        raise PreconditionFailed("chunk_count must be at least 2")
    if chunk_size < 1:
        raise PreconditionFailed("chunk_size must be at least 1")
    needed = chunk_count * chunk_size
    if len(text) < needed:
        raise InsufficientText(
            f"text has {len(text)} chars, need {needed} ({chunk_count}x{chunk_size})"
        )
    return [text[i * chunk_size : (i + 1) * chunk_size] for i in range(chunk_count)]


def build_chunks(
    char_texts: Mapping[tuple[str, str, str], str],
    labeling: str,
    chunk_count: int,
    chunk_size: int,
) -> list[Chunk]:
    """Chunk each (play_id, translator, speaker) source's text and label
    the chunks by the `labeling` mode, sorted by chunk_id.

    chunk_ids are `category#NN`, numbered per category over sources in
    sorted order, so identical inputs always yield identical ids. Each
    category has at least `chunk_count` >= 2 chunks; fewer than 2
    categories raise DegenerateCategory.
    """
    label = labeler(labeling)
    by_category: dict[str, list[Chunk]] = {}
    for source in sorted(char_texts):
        category = label(*source)
        bucket = by_category.setdefault(category, [])
        for piece in chunk_text(char_texts[source], chunk_count, chunk_size):
            bucket.append(Chunk(f"{category}#{len(bucket):02d}", category, source, piece))
    if len(by_category) < 2:
        raise DegenerateCategory(f"need at least 2 categories, got {sorted(by_category)}")
    return sorted((c for bucket in by_category.values() for c in bucket),
                  key=lambda c: c.chunk_id)


def write_manifest(chunks: list[Chunk], path: str | Path) -> None:
    """Chunk manifest CSV, sorted by chunk_id; size_units is the chunk's length."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["chunk_id", "category", "play_id", "translator", "speaker", "size_units"])
        for c in sorted(chunks, key=lambda c: c.chunk_id):
            writer.writerow([c.chunk_id, c.category, *c.source, len(c.text)])
