"""Stylometric homogeneity analysis of play-script dialogue."""

from .errors import (
    ConfigError,
    CorpusError,
    DegenerateCategory,
    DramastyleError,
    EmptyDistribution,
    InsufficientText,
    ModeMismatch,
    NoEligibleCharacters,
    NoTurnsFound,
    PipelineError,
    PreconditionFailed,
    StatisticsError,
    UnbalancedBoilerplateMarkers,
)
from .ingest import (
    ParseRules,
    PlayScript,
    RawDocument,
    SpeechTurn,
    extract_character_text,
    load_document,
    parse_play,
    play_from_json,
    play_to_json,
    strip_boilerplate,
)
from .segmentation import CategoryLabeling, Chunk, build_chunks, chunk_text, select_eligible
from .tokenization import TokenDistribution, TokenizationMode, tokenize
from .similarity import (
    DissimilarityMatrix,
    chi_square_dissimilarity,
    pairwise_matrix,
)
from .homogeneity import (
    HomogeneityReport,
    RankedPairs,
    attribute_chunks,
    attribution_baseline,
    rank_pairs,
    rank_sum_baseline,
    within_category_rank_sum,
)
from .experiment import ExperimentConfig, compare_translations, load_config, run_experiment

__version__ = "0.1.0"
