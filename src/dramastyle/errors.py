"""Exception types shared across the pipeline."""


class DramastyleError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(DramastyleError):
    """Experiment configuration is invalid or unreadable."""


class CorpusError(DramastyleError):
    """A corpus file could not be loaded or parsed: a lone boilerplate
    marker, no speaker heading, invalid UTF-8, an empty or malformed file."""


class StatisticsError(DramastyleError):
    """The corpus cannot support the requested statistic: no character
    reaches `min_size`, fewer than 2 categories, a category of one chunk
    or a chunk without tokens."""


class PreconditionFailed(DramastyleError):
    """An operation's stated precondition does not hold."""


class PipelineError(DramastyleError):
    """Wraps a module error with the pipeline stage where it occurred."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
