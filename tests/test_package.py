"""The package surface: every exported name exists, and importing the
package or the command line loads no more than they need."""

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


def fresh_interpreter(code: str) -> str:
    src = str(Path(bottsam.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def test_selftest_import_does_not_load_dataclasses():
    code = "import sys, bottsam.selftest; print('dataclasses' in sys.modules)"
    assert fresh_interpreter(code).strip() == "False"


def test_cli_import_loads_only_the_direct_imports():
    listing = "; import sys; print(*sorted(sys.modules))"
    cli = set(fresh_interpreter("import bottsam.cli" + listing).split())
    # the standard-library modules the package imports directly
    direct = "import __future__, argparse, fractions, itertools, json, operator, re, typing"
    baseline = set(fresh_interpreter(direct + listing).split())
    extra = {m for m in cli - baseline if m != "bottsam" and not m.startswith("bottsam.")}
    assert not extra


def test_import_builds_no_root_system():
    code = (
        "import gc, bottsam\n"
        "print(sum(isinstance(o, bottsam.RootSystem) for o in gc.get_objects()))"
    )
    assert fresh_interpreter(code).strip() == "0"
