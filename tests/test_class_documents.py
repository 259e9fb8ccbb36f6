"""Malformed class documents: the exception and its message, from the
library readers and from ``integrate --class``, where they are one line on
stderr with exit 2."""

import json
import time

import pytest

from bottsam import CohClass, IndexOutOfRange, LengthMismatch, RootSystem
from bottsam.cli import main
from bottsam.ordinary import OrdinaryClass
from reference import REFUSALS


def refused(kind):
    return (f"coefficient of '001' is {kind}, not a string or an integer"
            " (write rationals as 'p/q')")


MALFORMED = [
    ({"word": [1, 2, 1], "coords": {"001": 1.5}}, ValueError, refused("a float")),
    ({"word": [1, 2, 1], "coords": {"001": True}}, ValueError, refused("a boolean")),
    ({"word": [1, 2, 1], "coords": {"001": None}}, ValueError, refused("null")),
    ({"word": [1, 2, 1], "coords": {"001": [1]}}, ValueError, refused("an array")),
    ({"word": [1, 2, 1], "coords": {"01": 1}}, LengthMismatch,
     "gallery of length 2 against a word of length 3"),
    # a zero coefficient is still checked against the word
    ({"word": [1, 2, 1], "coords": {"111": 1, "0110": 0}}, LengthMismatch,
     "gallery of length 4 against a word of length 3"),
    ({"word": [1, 2, 1], "coords": {"0a1": 1}}, ValueError, "not a gallery bit string: '0a1'"),
    ({"word": [1, 2, 1], "coords": {"": 1}}, ValueError, "not a gallery bit string: ''"),
    ({"word": [1, 2, 3], "coords": {"001": 1}}, IndexOutOfRange, "letter 3 out of range 1..2"),
    ({"word": [1, 5, 0], "coords": {"001": 1}}, IndexOutOfRange, "letter 5 out of range 1..2"),
    ({"word": [], "coords": {}}, ValueError, "a word needs at least one letter"),
    # every coefficient is checked before any gallery length, in either order
    ({"word": [1, 2, 1], "coords": {"01": 1, "001": 1.5}}, ValueError, refused("a float")),
    ({"word": [1, 2, 1], "coords": {"001": 1.5, "01": 1}}, ValueError, refused("a float")),
]


@pytest.mark.parametrize("doc, kind, message", MALFORMED)
def test_readers_raise_the_same_exception(doc, kind, message):
    rs = RootSystem.from_label("A2")
    for reader in (CohClass.from_json_dict, OrdinaryClass.from_json_dict):
        with pytest.raises(kind) as info:
            reader(rs, doc)
        assert type(info.value) is kind and str(info.value) == message


@pytest.mark.parametrize("doc, kind, message", MALFORMED)
def test_integrate_reports_one_line_and_exit_2(capsys, doc, kind, message):
    for extra in ((), ("--json",)):
        code = main(["--type", "A2", "--word", "1,2,1", *extra, "integrate", "111",
                     "--class", json.dumps(doc)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {kind.__name__}: {message}\n"


def test_a_well_formed_document_keeps_its_nonzero_coordinates():
    rs = RootSystem.from_label("A2")
    doc = {"word": [1, 2, 1], "coords": {"111": "0", "011": 0, "001": "a1 + 2*a2", "110": 3}}
    c = CohClass.from_json_dict(rs, doc)
    assert str(c) == "001: a1 + 2*a2, 110: 3"
    assert CohClass.from_json_dict(rs, c.to_json_dict()) == c
    assert str(OrdinaryClass.from_json_dict(rs, {"word": [1, 2, 1], "coords": {"011": "1/2"}})) \
        == "1/2*x_{011}"


@pytest.mark.parametrize("text, message", REFUSALS)
def test_integrate_reports_a_refused_coefficient_on_one_line(capsys, text, message):
    doc = {"word": [1, 2, 1], "coords": {"111": text}}
    code = main(["--type", "A2", "--word", "1,2,1", "integrate", "111", "--class", json.dumps(doc)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: ValueError: {message}\n")


def test_integrate_reads_a_long_run_in_linear_time(capsys):
    blanks, letters = " " * 20_000, "b" * 20_000
    for text, code, out, err in [
        ("a1" + blanks, 0, "a1\n", ""),
        ("a1 +" + blanks, 2, "", "error: ValueError: cannot read polynomial text at '+'\n"),
        ("a1 + " + letters, 2, "",
         f"error: ValueError: cannot read polynomial text at {('+ ' + letters)[:40]!r}...\n"),
    ]:
        doc = json.dumps({"word": [1, 2, 1], "coords": {"111": text}})
        start = time.perf_counter()
        got = main(["--type", "A2", "--word", "1,2,1", "integrate", "111", "--class", doc])
        seconds = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (got, captured.out, captured.err) == (code, out, err)
        assert seconds < 1.0


def test_a_refusal_of_a_long_text_is_one_short_line(capsys):
    doc = json.dumps({"word": [1, 2, 1], "coords": {"111": "a1 " * 30_000}})
    code = main(["--type", "A2", "--word", "1,2,1", "integrate", "111", "--class", doc])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert len(captured.err) < 200
    assert captured.err == f"error: ValueError: expected an operator at {('a1 ' * 14)[:40]!r}...\n"
