"""The pytest settings keep a session going past a failure, and CI runs tier-1 as ROADMAP says.

The CI workflow is read as plain text, so the check needs no YAML parser.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
ROADMAP = ROOT / "ROADMAP.md"

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


def test_ci_runs_the_tier1_command_on_the_python_floor():
    workflow = WORKFLOW.read_text(encoding="utf-8")
    step = re.search(r"- name: Tier-1 tests\n\s+run: (.+)", workflow)
    verify = re.search(r"\*\*Tier-1 verify:\*\* `(.+)`", ROADMAP.read_text(encoding="utf-8"))
    assert step and verify
    assert step.group(1).strip() == verify.group(1)
    floor = re.search(r'requires-python = ">=(\d+\.\d+)"', PYPROJECT.read_text(encoding="utf-8"))
    matrix = re.search(r"python-version: \[(.*)\]", workflow)
    assert floor and matrix
    assert f'"{floor.group(1)}"' in matrix.group(1).split(", ")
