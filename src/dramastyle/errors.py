"""Exception types shared across the pipeline."""


class DramastyleError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(DramastyleError):
    """Experiment configuration is invalid or unreadable."""


class CorpusError(DramastyleError):
    """A corpus file could not be loaded or parsed."""


class UnbalancedBoilerplateMarkers(CorpusError):
    """Exactly one boilerplate marker found; the e-text is truncated."""


class NoTurnsFound(CorpusError):
    """No speaker heading matched; the script format does not fit the rules."""


class StatisticsError(DramastyleError):
    """The corpus cannot support the requested statistic."""


class NoEligibleCharacters(StatisticsError):
    """No character meets the minimum-size requirement."""


class EmptyDistribution(StatisticsError):
    """Tokenization produced no tokens for a chunk."""


class DegenerateCategory(StatisticsError):
    """A category has fewer than 2 chunks; no within-category pair exists."""


class PreconditionFailed(DramastyleError):
    """An operation's stated precondition does not hold."""


class PipelineError(DramastyleError):
    """Wraps a module error with the pipeline stage where it occurred."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
