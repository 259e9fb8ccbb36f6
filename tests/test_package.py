"""The package surface: every exported name exists, and the selftest module
imports no more than it needs."""

import os
import subprocess
import sys
from pathlib import Path

import bottsam


def test_every_exported_name_resolves_and_is_listed_once():
    names = bottsam.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [n for n in names if not hasattr(bottsam, n)]
    assert not missing


def test_selftest_import_does_not_load_dataclasses():
    src = str(Path(bottsam.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, bottsam.selftest; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
