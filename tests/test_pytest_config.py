"""The repository's own pytest configuration."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PAIR = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # a failing @given test makes hypothesis import its patch writer, whose
    # import warns; warnings are errors, but this one must not abort pytest
    (tmp_path / "test_pair.py").write_text(FAILING_PAIR)
    argv = ["-q", "-p", "no:cacheprovider", "-c", str(CONFIG), "--rootdir", "."]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "test_pair.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "1 failed, 1 passed" in output
    assert "INTERNALERROR" not in output
