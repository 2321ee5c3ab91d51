"""A checked config for calling `prepare_chunks` on hand-built plays."""
from dramastyle.experiment import CorpusEntry, ExperimentConfig


def chunk_config(plays, labeling, min_size, chunk_count, chunk_size, aliases=None):
    """A config of the chunking settings with one corpus entry per
    (play_id, translator) of `plays` or of `aliases`, or one unused entry
    when there is none; `aliases` maps such a pair to its entry's
    `speaker_aliases`."""
    aliases = aliases or {}
    keys = dict.fromkeys([*((p.play_id, p.translator) for p in plays), *aliases])
    corpus = tuple(
        CorpusEntry(path=f"{play_id}.txt", play_id=play_id, language="x", translator=translator,
                    speaker_aliases=aliases.get((play_id, translator), {}))
        for play_id, translator in keys or [("unused", "original")]
    )
    return ExperimentConfig(experiment_id="chunks", corpus=corpus, labeling=labeling,
                            min_size=min_size, chunk_count=chunk_count, chunk_size=chunk_size)
