"""Stylometric homogeneity analysis of play-script dialogue."""

from .errors import (
    ConfigError,
    CorpusError,
    DramastyleError,
    PipelineError,
    PreconditionFailed,
    StatisticsError,
)
from .ingest import (
    ParseRules,
    PlayScript,
    RawDocument,
    SpeechTurn,
    load_document,
    parse_play,
    play_to_json,
    strip_boilerplate,
)
from .tokenization import TokenizationMode, count_matrix
from .similarity import DissimilarityMatrix, matrix_from_counts
from .homogeneity import (
    PermutationBaselines,
    attribute_chunks,
    draw_orders,
    permutation_baselines,
    rank_pairs,
)
from .experiment import Chunk, ExperimentConfig, compare_translations, load_config, run_experiment

__version__ = "0.1.0"
