"""The suite's own pytest settings: a failing Hypothesis test must fail alone, not stop the run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_GIVEN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_runs_after_the_failure():
    pass
'''


def test_failing_hypothesis_test_does_not_crash_pytest(tmp_path):
    """Hypothesis's failure report imports libcst, which warns; as an error, that warning was an INTERNALERROR."""
    (tmp_path / "test_throwaway.py").write_text(FAILING_GIVEN)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
