import warnings
from pathlib import Path

import pytest

# When a hypothesis test fails, hypothesis's pytest plugin imports
# `hypothesis.extra._patching`, whose import of libcst can emit a
# DeprecationWarning; pyproject.toml turns that warning into an error, and
# the session would end in INTERNALERROR with the later tests unrun.
# Imported once here with that warning ignored, the module is cached, and
# the global filter stays as it is for everything else.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin then skips the patch itself
        pass

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"
CONFIGS = REPO / "configs"


@pytest.fixture
def data_dir() -> Path:
    return DATA


@pytest.fixture
def configs_dir() -> Path:
    return CONFIGS
