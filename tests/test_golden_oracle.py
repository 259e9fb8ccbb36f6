"""The sympy script behind the A2 golden file reproduces it byte for byte.

The script does not import the package: it solves the linear system over
the restriction table with sympy, so it is the independent side of the
golden check.  Skipped where sympy is not installed.
"""

import importlib.resources
import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "make_golden_a2.py"


def test_the_sympy_script_reproduces_the_golden_file(tmp_path):
    pytest.importorskip("sympy")
    out = tmp_path / "golden_a2.txt"
    subprocess.run([sys.executable, str(SCRIPT), str(out)], check=True, capture_output=True)
    golden = importlib.resources.files("bottsam").joinpath("data").joinpath("golden_a2.txt")
    assert out.read_bytes() == golden.read_bytes()
