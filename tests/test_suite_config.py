import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PAIR = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def test_failing_given_test_does_not_stop_the_run(tmp_path):
    # When a @given test fails, the Hypothesis plugin imports libcst to
    # suggest a patch; that import warns, and under this suite's warning
    # filter an unignored warning ends the run with an INTERNALERROR before
    # the next test runs.
    (tmp_path / "test_pair.py").write_text(PAIR, encoding="utf-8")
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 1, res.stdout + res.stderr
    assert "1 failed, 1 passed" in res.stdout
