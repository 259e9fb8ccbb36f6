"""The command examples of README "Command line" print what the README shows.

Every fenced block there whose lines start with ``bottsam `` is read as a
command followed by its output (up to a blank line or the next command).
Each command runs through ``cli.main`` and its standard output must match
byte for byte.
"""

import json
import pathlib
import re
import shlex

import pytest

from bottsam.cli import COMMANDS, main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def command_line_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Command line\n")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def fenced_blocks() -> list[str]:
    return re.findall(r"^```\n(.*?)^```$", command_line_section(), re.M | re.S)


def examples() -> list[tuple[str, str]]:
    """``(command, expected output)`` pairs; the output is empty when the
    block shows none."""
    out = []
    for block in fenced_blocks():
        if not block.startswith("bottsam "):
            continue
        lines = None
        for line in block.splitlines():
            if line.startswith("bottsam "):
                lines = []
                out.append((line, lines))
            elif not line:
                lines = None
            else:
                assert lines is not None, f"output without a command: {line!r}"
                lines.append(line)
    return [(cmd, "".join(f"{line}\n" for line in lines)) for cmd, lines in out]


EXAMPLES = examples()
WITH_OUTPUT = [(cmd, expected) for cmd, expected in EXAMPLES if expected]


def run(capsys, command: str) -> tuple[int, str]:
    code = main(shlex.split(command)[1:])
    return code, capsys.readouterr().out


def test_every_example_is_read():
    commands = [cmd for cmd, _ in EXAMPLES]
    assert "bottsam --type A2 roots" in commands and "bottsam selftest" in commands
    shown = {next(w for w in shlex.split(cmd) if w in COMMANDS) for cmd, _ in WITH_OUTPUT}
    assert shown == set(COMMANDS) - {"roots", "selftest"}
    assert len(WITH_OUTPUT) == 9


@pytest.mark.parametrize("command, expected", WITH_OUTPUT, ids=[c for c, _ in WITH_OUTPUT])
def test_readme_example_prints_what_the_readme_shows(capsys, command, expected):
    assert run(capsys, command) == (0, expected)


def test_roots_example_gives_the_longest_word_the_prose_names(capsys):
    assert ("bottsam --type A2 roots", "") in EXAMPLES
    assert "longest word (`1 2 1` for A2)" in command_line_section()
    code, out = run(capsys, "bottsam --type A2 roots")
    assert code == 0
    assert "longest word: 1 2 1\n" in out


def test_class_document_example_is_what_product_json_prints(capsys):
    (shown,) = [block for block in fenced_blocks() if block.startswith("{")]
    code, out = run(capsys, "bottsam --type A2 --word 1,2,1 product 001 001 --json")
    assert code == 0
    assert json.loads(shown) == json.loads(out)
