"""The pytest configuration in pyproject.toml turns warnings into errors,
save one: hypothesis touches the deprecated ``mypy_extensions.TypedDict``
while it reports a failing example, and as an error that warning is an
INTERNALERROR that ends the whole test run, so no later test runs.  A
failing hypothesis test next to a passing one, run in a subprocess
under that configuration, must fail alone.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAIR = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_fails_alone(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR, encoding="utf-8")
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q",
            "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider",
            str(tmp_path / "test_pair.py"),
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert result.returncode == 1, output
    assert "1 failed, 1 passed" in output
