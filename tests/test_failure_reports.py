"""A failing hypothesis test reports its falsifying example and the session
goes on to the next test, under this suite's own ``conftest.py`` and pytest
settings (``filterwarnings = ["error"]`` included), with libcst importable
and with it blocked. The report carries the ``@reproduce_failure`` line, so
a failure seen only in a CI log can be replayed locally."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PLANTED = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted_failure(x):
    assert x < 10


def test_after_the_failure():
    print("the next test ran")
'''


@pytest.mark.parametrize("libcst", ["importable", "blocked"])
def test_failing_given_reports_its_example_and_the_run_goes_on(tmp_path, libcst):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    (tmp_path / "test_planted.py").write_text(PLANTED)
    env = dict(os.environ)
    if libcst == "blocked":
        blocker = tmp_path / "blocked" / "libcst"
        blocker.mkdir(parents=True)
        (blocker / "__init__.py").write_text("raise ImportError('libcst is blocked')\n")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(blocker.parent), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-s", "-p", "no:cacheprovider", "test_planted.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    out = result.stdout + result.stderr
    assert result.returncode == 1, out
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example: test_planted_failure(" in out, out
    assert "@reproduce_failure(" in out, out
    assert "the next test ran" in out, out
    assert "1 failed, 1 passed" in out, out
