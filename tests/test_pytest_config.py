"""The pytest settings in pyproject.toml keep a session going past a failure."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # under filterwarnings = error, hypothesis's failure report once raised
    # an INTERNALERROR that stopped every later test from running
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_sample.py").write_text(FAILING_THEN_PASSING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout[-2000:]
