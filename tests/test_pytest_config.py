"""The pytest settings in ``pyproject.toml`` report a failing hypothesis
test as one failure.  Every warning is an error there, and hypothesis
reports a failure through libcst, whose import warns that
``mypy_extensions.TypedDict`` is deprecated; unignored, that warning
aborted the whole session with ``INTERNALERROR``."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(n):
    assert n != n
"""


def test_failing_hypothesis_test_is_reported_as_one_failure(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING_TEST)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), str(tmp_path / "test_fails.py"),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed" in output
    assert result.returncode == 1
