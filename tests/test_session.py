"""The test session itself: a failing property test is reported like any
other failure, and the tests after it still run."""
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert False


def test_later_test_passes():
    pass
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(TESTS), str(REPO / "src")])}
    # the project's pytest settings, warning filters included, and its conftest as a plugin
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "conftest", "test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
