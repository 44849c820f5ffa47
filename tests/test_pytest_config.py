"""The repository's pytest settings, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

INI = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, deadline=None)
@given(st.integers())
def test_small(n):
    assert n < 5
'''


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # filterwarnings = ["error"] must not turn the warnings raised while
    # Hypothesis reports a failure into an INTERNALERROR
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(INI), "-p", "no:cacheprovider",
         "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
