import pathlib
import subprocess
import sys

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_failing_property_reports_its_example(tmp_path):
    # under the repo's warning filters a failing property test is an ordinary
    # failure that prints its falsifying example, not an internal error
    config = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(config), "--rootdir",
                           str(tmp_path), "-p", "no:cacheprovider", "-q", "test_fails.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
