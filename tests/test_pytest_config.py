"""The repository's pytest options report a failing hypothesis example as a test failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ONE_FAILING_ONE_PASSING = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
"""


def test_failing_given_example_is_a_failure_not_an_internal_error(tmp_path):
    # hypothesis imports libcst to report a failing example, and that import
    # warns; with every warning an error, the session once ended in
    # INTERNALERROR (exit 3), skipping the later tests and hiding the failure.
    (tmp_path / "test_sample.py").write_text(ONE_FAILING_ONE_PASSING)
    argv = ["-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "test_sample.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
