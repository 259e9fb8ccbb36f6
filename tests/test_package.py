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
    direct = "import __future__, argparse, collections.abc, fractions, itertools, json, operator, re"
    baseline = set(fresh_interpreter(direct + listing).split())
    extra = {m for m in cli - baseline if m != "bottsam" and not m.startswith("bottsam.")}
    assert not extra


def test_cli_import_leaves_typing_out():
    """The annotations name ``collections.abc`` types and are never
    evaluated; ``-S`` keeps ``site`` from loading ``typing`` first."""
    code = "import sys, bottsam.cli; print('typing' in sys.modules)"
    src = str(Path(bottsam.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_builds_no_root_system():
    code = (
        "import gc, bottsam\n"
        "print(sum(isinstance(o, bottsam.RootSystem) for o in gc.get_objects()))"
    )
    assert fresh_interpreter(code).strip() == "0"


def test_cli_import_loads_neither_the_quotient_nor_the_schubert_layer():
    code = "import sys, bottsam.cli; print(*(m for m in sys.modules if m.startswith('bottsam')))"
    loaded = fresh_interpreter(code).split()
    assert "bottsam.cli" in loaded
    assert "bottsam.ordinary" not in loaded and "bottsam.schubert" not in loaded


def test_every_exported_name_resolves_in_a_fresh_interpreter():
    code = (
        "import bottsam, sys\n"
        "print('bottsam.rootsystem' in sys.modules)\n"
        "import bottsam.schubert\n"
        "bound = vars(bottsam)\n"
        "print(bound['billey'] is bottsam.schubert.billey, 'ordinary_multiply' in bound)\n"
        "values = [getattr(bottsam, n) for n in bottsam.__all__]\n"
        "from bottsam import *\n"
        "print(all(globals()[n] is v for n, v in zip(bottsam.__all__, values)))\n"
        "print(hasattr(bottsam, 'no_such_name'), set(bottsam.__all__) <= set(dir(bottsam)))"
    )
    assert fresh_interpreter(code).split() == ["False", "True", "False", "True", "False", "True"]
