"""The repository's pytest settings, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_a_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    # a failing @given test makes hypothesis import its patching helper,
    # whose imports warn; under "error" that warning used to end the
    # session with an INTERNALERROR before the next test ran
    (tmp_path / "test_pair.py").write_text(_PAIR)
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(_PYPROJECT),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
            str(tmp_path / "test_pair.py"),
        ],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in done.stdout, output
