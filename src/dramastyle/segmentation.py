"""Labelled chunks of dialogue, the unit of the analysis.

A `Chunk` is an equal-size slice from the front of one speaker's
dialogue; `labeler` gives its category under a `LABELINGS` mode, the
idiolect categories of Rybicki (2006). `experiment.prepare_chunks` is
the one place that cuts and labels chunks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError

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
