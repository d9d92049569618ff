"""The repository's pytest settings, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_A_PASS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
"""


def test_a_failing_property_is_one_failure(tmp_path):
    # hypothesis reports a failure through an import that warns; under the
    # warnings-as-errors setting that warning must not become an
    # INTERNALERROR that ends the session before the next test runs
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY_THEN_A_PASS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]
