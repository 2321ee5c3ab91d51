import pkgutil
import types

import dramastyle

# the public Python API: a change to it shows here as a diff
PUBLIC_NAMES = [
    "Chunk",
    "ConfigError",
    "CorpusError",
    "DissimilarityMatrix",
    "DramastyleError",
    "ExperimentConfig",
    "ParseRules",
    "PermutationBaselines",
    "PipelineError",
    "PlayScript",
    "PreconditionFailed",
    "RawDocument",
    "SpeechTurn",
    "StatisticsError",
    "TokenizationMode",
    "attribute_chunks",
    "compare_translations",
    "count_matrix",
    "draw_orders",
    "load_config",
    "load_document",
    "matrix_from_counts",
    "parse_play",
    "permutation_baselines",
    "play_to_json",
    "rank_pairs",
    "run_experiment",
    "strip_boilerplate",
]

# the package's modules: one added, removed or renamed shows here as a diff
MODULE_NAMES = [
    "cli",
    "errors",
    "experiment",
    "homogeneity",
    "ingest",
    "similarity",
    "tokenization",
]


def test_public_names_are_pinned():
    public = sorted(
        name for name in dir(dramastyle)
        if not name.startswith("_") and not isinstance(getattr(dramastyle, name), types.ModuleType)
    )
    assert public == PUBLIC_NAMES


def test_module_names_are_pinned():
    assert sorted(m.name for m in pkgutil.iter_modules(dramastyle.__path__)) == MODULE_NAMES
