import json
from math import prod

import pytest

from bottsam import BUILTIN_CARTAN, RootSystem
from bottsam.cli import main
from reference import betas, weights


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["schema"] == 1
    return doc


def test_roots_text(capsys):
    code, out, err = run(capsys, "--type", "A2", "roots")
    assert code == 0
    assert "positive roots: a1, a2, a1 + a2" in out
    assert "longest word: 1 2 1" in out
    assert "longest length: 3" in out


def test_roots_json(capsys):
    doc = run_json(capsys, "--type", "G2", "roots", "--json")
    assert doc["longest_word"] == [1, 2, 1, 2, 1, 2]
    assert len(doc["positive_roots"]) == 6
    assert doc["matrix"] == [[2, -3], [-1, 2]]


def root_text(coords):
    """A root as the roots command has always printed it: a1, a2, ... in
    coordinate order, unit coefficients elided."""
    parts = []
    for k, c in enumerate(coords):
        if c:
            body = f"a{k + 1}" if abs(c) == 1 else f"{abs(c)}*a{k + 1}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


CUSTOM_CARTAN = {
    "A1xA1": [[2, 0], [0, 2]],
    "A1xB2": [[2, 0, 0], [0, 2, -1], [0, -2, 2]],
}


@pytest.mark.parametrize("label", sorted(BUILTIN_CARTAN) + sorted(CUSTOM_CARTAN))
def test_roots_output_is_pinned(label, tmp_path, capsys):
    """The roots in text and JSON, against the betas of the printed longest
    word from reference matrices, in height order, rendered by root_text."""
    if label in CUSTOM_CARTAN:
        matrix = CUSTOM_CARTAN[label]
        path = tmp_path / "cartan.json"
        path.write_text(json.dumps({"label": label, "matrix": matrix}))
        source = ("--cartan", str(path))
    else:
        matrix = [list(row) for row in BUILTIN_CARTAN[label]]
        source = ("--type", label)
    doc = run_json(capsys, *source, "roots", "--json")
    word = doc["longest_word"]
    rs = RootSystem(matrix)  # reference.betas reads its Cartan matrix
    roots = sorted(betas(rs, word), key=lambda b: (sum(b), tuple(-c for c in b)))
    assert len(set(roots)) == len(roots) == doc["longest_length"] == len(word)
    assert all(min(b) >= 0 for b in roots)
    texts = [root_text(b) for b in roots]
    assert doc == {"schema": 1, "label": label, "matrix": matrix, "positive_roots": texts,
                   "longest_length": len(word), "longest_word": word}
    code, out, err = run(capsys, *source, "roots")
    assert code == 0 and not err
    assert out.splitlines() == [
        f"type: {label}",
        "cartan matrix:",
        *("  " + " ".join(f"{v:3d}" for v in row) for row in matrix),
        "positive roots: " + ", ".join(texts),
        f"longest length: {len(word)}",
        "longest word: " + " ".join(map(str, word)),
    ]


def test_flags_may_come_before_or_after_the_command(capsys):
    a = run(capsys, "--type", "A1", "--word", "1", "table")
    b = run(capsys, "table", "--type", "A1", "--word", "1")
    assert a == b


def test_table_a1(capsys):
    code, out, err = run(capsys, "--type", "A1", "--word", "1", "table")
    assert code == 0
    assert out.splitlines() == ["# columns: 0, 1", "0: 1, 1", "1: 0, a1"]


def test_table_json_roundtrip(capsys):
    doc = run_json(capsys, "--type", "A2", "--word", "1,2,1", "table", "--json")
    assert doc["columns"][0] == "000"
    assert doc["rows"]["111"][-1] == "a1^2*a2 + a1*a2^2"
    assert len(doc["rows"]) == 8


def test_product_examples(capsys):
    code, out, _ = run(capsys, "--type", "A2", "--word", "1,2,1", "product", "100", "001")
    assert code == 0
    assert out.strip() == "101: 1"
    code, out, _ = run(capsys, "--type", "A2", "--word", "1,2,1", "product", "001", "001")
    assert code == 0
    assert out.strip() == "001: a1, 101: -2, 011: 1"


def test_product_check_flag(capsys):
    code, out, _ = run(
        capsys, "--type", "A2", "--word", "1,2,1", "product", "001", "001", "--check"
    )
    assert code == 0
    assert "check: closed one-generator rule agrees" in out
    code, out, _ = run(
        capsys, "--type", "A2", "--word", "1,2,1", "product", "110", "011", "--check"
    )
    assert (code, out) == (0, "111: a1 + a2\ncheck: closed one-generator rule agrees\n")


def test_product_json_reimports_as_a_class(capsys):
    doc = run_json(
        capsys, "--type", "A2", "--word", "1,2,1", "product", "001", "001", "--json"
    )
    from bottsam import CohClass, RootSystem

    cls = CohClass.from_json_dict(RootSystem.from_label("A2"), doc)
    assert doc["coords"] == {"001": "a1", "101": "-2", "011": "1"}
    assert cls.to_json_dict()["coords"] == doc["coords"]


def test_product_length_mismatch_is_a_user_error(capsys):
    code, out, err = run(capsys, "--type", "A2", "--word", "1,2,1", "product", "10", "001")
    assert code == 2
    assert "LengthMismatch" in err


def test_class_gallery_of_the_wrong_length_is_a_user_error(capsys):
    spec = json.dumps({"word": [1, 2, 1], "coords": {"011": "1", "01": "a1"}})
    code, out, err = run(
        capsys, "--type", "A2", "--word", "1,2,1", "integrate", "011", "--class", spec
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: LengthMismatch: ") and err.count("\n") == 1


def test_restrict(capsys):
    code, out, _ = run(
        capsys, "--type", "A2", "--word", "1,2,1", "restrict", "111", "--class", "001"
    )
    assert code == 0
    assert out.strip() == "a2"


def test_integrate_examples(capsys):
    word = ("--type", "A2", "--word", "1,2,1")
    code, out, _ = run(capsys, *word, "integrate", "100", "--class", "100")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, *word, "integrate", "100", "--class", "000")
    assert (code, out.strip()) == (0, "0")
    code, out, _ = run(capsys, *word, "integrate", "111", "--class", "111")
    assert (code, out.strip()) == (0, "1")


def test_integrate_inline_json_class(capsys):
    spec = json.dumps({"word": [1, 2, 1], "coords": {"110": "a1", "111": "3"}})
    code, out, _ = run(
        capsys, "--type", "A2", "--word", "1,2,1", "integrate", "111", "--class", spec
    )
    assert code == 0
    assert out.strip() == "3"


def test_integrate_check_flag(capsys, monkeypatch):
    word = ("--type", "A2", "--word", "1,2,1")
    spec = json.dumps({"word": [1, 2, 1], "coords": {"011": "1/2", "110": "a1"}})
    for domain, value in (("011", "1/2"), ("110", "a1"), ("111", "0")):
        code, out, _ = run(capsys, *word, "integrate", domain, "--class", spec, "--check")
        assert (code, out) == (0, f"{value}\ncheck: localization integral agrees\n")
    doc = run_json(capsys, *word, "integrate", "011", "--class", spec, "--check", "--json")
    assert (doc["value"], doc["check"]) == ("1/2", "localization integral agrees")
    assert "check" not in run_json(capsys, *word, "integrate", "011", "--class", spec, "--json")
    # an integral that disagrees with localization is an internal error
    import bottsam.cli
    from bottsam import Polynomial

    monkeypatch.setattr(bottsam.cli, "integrate", lambda w, e, c: Polynomial.zero(2))
    code, out, err = run(capsys, *word, "integrate", "011", "--class", spec, "--check")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: NotInSpan") and err.count("\n") == 1
    code, out, _ = run(capsys, *word, "integrate", "011", "--class", spec)
    assert (code, out) == (0, "0\n")


def test_checks_agree_on_a_sixteen_letter_d4_word(capsys):
    # the localization routes evaluate 2^15 fixed points here
    base = ("--type", "D4", "--word", "1,2,1,3,2,1,4,2,1,3,2,4,1,2,1,3")
    one = "1" + "0" * 15
    code, out, _ = run(capsys, *base, "product", "--check", one, one)
    assert (code, out) == (0, f"{one}: a1\ncheck: closed one-generator rule agrees\n")
    code, out, _ = run(capsys, *base, "integrate", "--check", "1" * 16, "--class", one)
    assert (code, out) == (0, "0\ncheck: localization integral agrees\n")


def test_element_outside_the_weyl_group_is_a_user_error(capsys, monkeypatch):
    # the CLI builds w from a word, so only a foreign matrix slipped in
    # behind it reaches RootSystem.length (through the fiber of --verify)
    from bottsam import RootSystem

    foreign = RootSystem.from_label("B2").weyl_from_word((1, 2, 1, 2))
    monkeypatch.setattr(RootSystem, "weyl_from_word", lambda self, word: foreign)
    code, out, err = run(
        capsys, "--type", "A2", "--word", "1,2,1", "billey", "--w", "1", "--v", "1,2,1",
        "--verify",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: NotInWeylGroup: ") and err.count("\n") == 1


def test_class_file_input(tmp_path, capsys):
    path = tmp_path / "cls.json"
    path.write_text(json.dumps({"word": [1, 2, 1], "coords": {"001": "1"}}))
    code, out, _ = run(
        capsys, "--type", "A2", "--word", "1,2,1", "restrict", "101", "--class", str(path)
    )
    assert code == 0
    assert out.strip() == "-a1"


def test_billey_examples(capsys):
    code, out, _ = run(capsys, "--type", "A2", "billey", "--w", "1", "--v", "1,2,1")
    assert (code, out.strip()) == (0, "a1 + a2")
    code, out, _ = run(capsys, "--type", "A2", "billey", "--w", "", "--v", "1,2,1")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "--type", "A2", "billey", "--w", "1,2", "--v", "1,2,1")
    assert (code, out.strip()) == (0, "a1^2 + a1*a2")


def test_billey_verify(capsys):
    code, out, _ = run(
        capsys,
        "--type", "B2", "--word", "1,2,1,2",
        "billey", "--w", "1,2", "--v", "1,2,1,2", "--verify",
    )
    assert code == 0
    assert "verify:" in out
    assert "0 disagree" in out
    argv = ("--type", "A2", "--word", "1,2,1", "billey", "--w", "1", "--v", "1,2,1")
    code, out, _ = run(capsys, *argv, "--verify")
    assert (code, out) == (0, "a1 + a2\nverify: 7 galleries agree, 0 disagree, 1 skipped\n")
    doc = run_json(capsys, *argv, "--verify", "--json")
    assert doc["verify"] == {"passed": 7, "failed": 0, "skipped": 1}


def test_billey_verify_on_the_d4_longest_word(capsys):
    lw = "1,2,1,3,2,1,4,2,1,3,2,4"
    code, out, _ = run(capsys, "--type", "D4", "--word", lw, "billey", "--w", "1,2,3,4",
                       "--v", lw, "--verify")
    assert code == 0
    value, verify = out.splitlines()
    assert value.startswith("a1^4 + 5*a1^3*a2 + ") and value.endswith(" + a3*a4^3")
    assert verify == "verify: 1096 galleries agree, 0 disagree, 3000 skipped"


def test_billey_non_reduced_v_is_a_user_error(capsys):
    code, _, err = run(capsys, "--type", "A2", "billey", "--w", "1", "--v", "1,1")
    assert code == 2
    assert "NotReducedWord" in err


def test_ordinary_relations_and_product(capsys):
    code, out, _ = run(capsys, "--type", "A2", "--word", "1,2,1", "ordinary")
    assert code == 0
    assert out.splitlines() == [
        "x1^2 = 0",
        "x2^2 - x1*x2 = 0",
        "x3^2 + 2*x1*x3 - x2*x3 = 0",
    ]
    code, out, _ = run(
        capsys, "--type", "A2", "--word", "1,2,1", "ordinary", "--product", "001", "001"
    )
    assert code == 0
    assert out.strip() == "-2*x_{101} + x_{011}"


def test_cartan_file_source(tmp_path, capsys):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps({"label": "B2", "matrix": [[2, -1], [-2, 2]]}))
    code, out, _ = run(capsys, "--cartan", str(path), "roots")
    assert code == 0
    assert "a1 + 2*a2" in out


def test_bad_cartan_file_is_a_user_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"matrix": [[3]]}))
    code, _, err = run(capsys, "--cartan", str(path), "roots")
    assert code == 2
    assert "InvalidCartan" in err
    code, _, err = run(capsys, "--cartan", str(tmp_path / "absent.json"), "roots")
    assert code == 2


# a Cartan file and what ``roots`` prints from it: one valid file, then one
# refusal per check, in the order the checks run
CARTAN_FILES = [
    ('{"label": "B2", "matrix": [[2, -1], [-2, 2]]}', 0,
     "type: B2\ncartan matrix:\n    2  -1\n   -2   2\n"
     "positive roots: a1, a2, a1 + a2, a1 + 2*a2\nlongest length: 4\nlongest word: 1 2 1 2\n"),
    ("[[2, -1], [-1, 2]]", 2, 'InvalidCartan: Cartan file must be an object with a "matrix" key'),
    ('{"label": "A2"}', 2, 'InvalidCartan: Cartan file must be an object with a "matrix" key'),
    ('{"matrix": [2, -1]}', 2, 'InvalidCartan: "matrix" must be a list of rows'),
    ('{"matrix": [[2, -1], [-1, 2.0]]}', 2, "InvalidCartan: matrix entry 2.0 is not an integer"),
    ('{"matrix": [[2, true], [-1, 2]]}', 2, "InvalidCartan: matrix entry True is not an integer"),
    ('{"matrix": [[2, -1], [-1, "2"]]}', 2, "InvalidCartan: matrix entry '2' is not an integer"),
    ('{"label": 2, "matrix": [[2.5]]}', 2, "InvalidCartan: matrix entry 2.5 is not an integer"),
    ('{"label": 2, "matrix": [[2]]}', 2, 'InvalidCartan: "label" must be a string when present'),
    ('{"matrix": []}', 2, "InvalidCartan: empty Cartan matrix"),
    ('{"matrix": [[3, 1]]}', 2, "InvalidCartan: Cartan matrix is not square"),
    ('{"matrix": [[2, -1], [-1, 3]]}', 2, "InvalidCartan: diagonal entry A[2][2] != 2"),
    ('{"matrix": [[2, 1], [-1, 2]]}', 2, "InvalidCartan: off-diagonal entry A[1][2] = 1 is positive"),
    ('{"matrix": [[2, -1], [0, 2]]}', 2, "InvalidCartan: asymmetric zero at A[1][2] / A[2][1]"),
    ('{"matrix": [[2, -2], [-2, 2]]}', 2,
     "NotFiniteType: A[1][2] * A[2][1] > 3: the Weyl group of simple roots 1 and 2 is infinite"),
    ('{"matrix": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]}', 2,
     "NotFiniteType: positive-root closure exceeded 10000 roots"),
]


@pytest.mark.parametrize("text, code, printed", CARTAN_FILES, ids=[t for t, _, _ in CARTAN_FILES])
def test_cartan_files_print_and_refuse_as_pinned(tmp_path, capsys, text, code, printed):
    """Standard output of a valid file, and the one stderr line of each
    refusal, byte for byte."""
    path = tmp_path / "cartan.json"
    path.write_text(text)
    out, err = (printed, "") if code == 0 else ("", f"error: {printed}\n")
    assert run(capsys, "--cartan", str(path), "roots") == (code, out, err)


def test_json_is_written_in_batches_as_json_dumps_would_print_it(capsys, monkeypatch):
    writes = []
    monkeypatch.setattr("sys.stdout.write", writes.append)
    assert main(["--type", "B2", "--word", "1,2,1,2,1,2,1", "table", "--json"]) == 0
    out = "".join(writes)
    assert len(writes) > 3 and out == json.dumps(json.loads(out), indent=2) + "\n"


def test_table_json_is_written_before_every_row_is_made(monkeypatch):
    from bottsam import bott_samelson

    walk, rows_made, at_first_write = bott_samelson._walk, [], []

    def counting_walk(*args, **kwargs):  # one walk per row
        rows_made.append(None)
        return walk(*args, **kwargs)

    def write(text):
        if not at_first_write:
            at_first_write.append(len(rows_made))

    monkeypatch.setattr(bott_samelson, "_walk", counting_walk)
    monkeypatch.setattr("sys.stdout.write", write)
    assert main(["--type", "A1", "--word", "1,1,1,1,1,1,1", "table", "--json"]) == 0
    assert len(rows_made) == 2**7 and 0 < at_first_write[0] < 2**7


def test_conflicting_cartan_sources(tmp_path, capsys):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps({"matrix": [[2, -1], [-2, 2]]}))
    code, _, err = run(capsys, "--type", "A2", "--cartan", str(path), "roots")
    assert code == 2


def test_letter_out_of_range_is_a_user_error(capsys):
    code, _, err = run(capsys, "--type", "A2", "--word", "1,3", "table")
    assert code == 2
    assert "IndexOutOfRange" in err
    # a letter is ASCII digits: Arabic-Indic and fullwidth digits, "_" separators
    for word in ["\u0661,2", "\uff11,\uff12", "1_0"]:
        code, out, err = run(capsys, "--type", "A2", "--word", word, "table")
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert "contains a non-integer letter" in err


def test_missing_word_is_a_user_error(capsys):
    code, _, err = run(capsys, "--type", "A2", "table")
    assert code == 2


def test_missing_command_is_a_user_error(capsys):
    code, _, err = run(capsys, "--type", "A2")
    assert (code, err) == (2, "bottsam: error: a COMMAND is required\n")


HUGE = "x" * 100_000
USAGE_ERRORS = [
    ("unknown-command", ["--type", "A2", HUGE], "bottsam: error: argument COMMAND: invalid choice: 'xxx"),
    ("extra-argument", ["--type", "A2", "--word", "1", "table", HUGE],
     "bottsam: error: unrecognized arguments: xxx"),
    ("missing-positional", ["--type", "A2", "--word", "1", "product", "1" * 100_000],
     "bottsam product: error: the following arguments are required: right"),
    ("unknown-option", ["--type", "A2", "--word", "1", "table", "--" + HUGE],
     "bottsam: error: unrecognized arguments: --xxx"),
    ("lines-in-an-argument", ["--type", "A2", "--word", "1", "table", "a\nb\r" * 50_000],
     "bottsam: error: unrecognized arguments: a b "),
]


@pytest.mark.parametrize("argv, start", [u[1:] for u in USAGE_ERRORS], ids=[u[0] for u in USAGE_ERRORS])
def test_usage_errors_are_one_bounded_line(capsys, argv, start):
    """argparse's own refusals print one line of at most 300 characters,
    without the usage block, and exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(start)
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert len(captured.err) <= 301


def test_cap_is_enforced_and_adjustable(capsys):
    code, _, err = run(
        capsys, "--type", "A2", "--word", "1,2,1,2,1", "--cap", "4", "table"
    )
    assert code == 2
    assert "CapExceeded" in err
    code, _, _ = run(capsys, "--type", "A2", "--word", "1,2,1,2,1", "table")
    assert code == 0


@pytest.mark.parametrize("option", ["--cap", "--seed"])
@pytest.mark.parametrize("value", ["x", "\u0662", "1_0", "\uff13", " 3", "+", ""])
def test_cap_and_seed_take_ascii_digits_only(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["--type", "A2", "--word", "1,2,1", option, value, "table"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {option}: invalid int value: {value!r}\n")


def test_long_numbers_are_refused_in_one_short_line(capsys, tmp_path):
    """A letter, a --cap or --seed value and a printed coefficient or
    exponent of more than MAX_DIGITS digits are refused with the package's
    own messages, not Python's conversion limit, quoting at most 40
    characters; a letter or Weyl-group index out of range is named by its
    size past 40 digits."""
    long = "9" * 5000
    code, out, err = run(capsys, "--type", "A2", "--word", f"1,{long}", "table")
    assert (code, out, err) == (
        2, "", f"error: IndexOutOfRange: letter {long[:40]!r}... has more than 4300 digits\n"
    )
    for option in ("--cap", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["--type", "A2", "--word", "1,2,1", option, long, "table"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument {option}: invalid int value: {long[:40]!r}...\n")
    n = "9" * 4300  # read, but the product has 8 600 digits
    doc = json.dumps({"word": [1, 2, 1], "coords": {"111": f"{n}*{n}"}})
    for as_json in ((), ("--json",)):
        argv = ["--type", "A2", "--word", "1,2,1", "integrate", "111", "--class", doc, *as_json]
        assert run(capsys, *argv) == (
            2, "", "error: ValueError: coefficient of more than 4300 digits\n"
        )
    short = "9" * 40
    code, out, err = run(capsys, "--type", "A2", "--word", f"1,{n}", "table")
    assert (code, out, err) == (
        2, "", "error: IndexOutOfRange: letter of more than 40 digits out of range 1..2\n"
    )
    code, out, err = run(capsys, "--type", "A2", "--word", f"1,{short}", "table")
    assert (code, out, err) == (2, "", f"error: IndexOutOfRange: letter {short} out of range 1..2\n")
    code, out, err = run(capsys, "--type", "A2", "billey", "--w", n, "--v", "1")
    assert (code, out, err) == (
        2, "", "error: IndexOutOfRange: simple-root index of more than 40 digits not in 1..2\n"
    )
    path = tmp_path / "class.json"  # the exponent sum has 4 301 digits
    path.write_text(json.dumps({"word": [1, 2, 1], "coords": {"011": f"a1^{n}*a1^{n}"}}))
    for command in (("restrict", "111"), ("integrate", "011")):
        argv = ["--type", "A2", "--word", "1,2,1", *command, "--class", str(path)]
        assert run(capsys, *argv) == (2, "", "error: ValueError: exponent of more than 4300 digits\n")


def test_cap_and_seed_keep_their_sign(capsys):
    from bottsam.cli import build_parser

    args = build_parser().parse_args(["--seed", "-3", "--cap", "+4", "selftest"])
    assert (args.seed, args.cap) == (-3, 4)
    code, _, err = run(capsys, "--type", "A2", "--word", "1,2,1", "--cap", "+2", "table")
    assert code == 2 and "the gallery cap 2" in err


def test_table_refuses_words_over_twelve_letters(capsys, monkeypatch):
    from bottsam import BSWord

    def unreachable(self):
        raise AssertionError("galleries() called for a refused table")

    monkeypatch.setattr(BSWord, "galleries", unreachable)
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "--type", "A1", "--word", ",".join("1" * 13), "table", *extra)
        assert (code, out) == (2, "")
        assert err.startswith("error: CapExceeded: ") and err.count("\n") == 1
        assert "12 letters" in err


MALFORMED_CLASSES = [
    '{"word": [1, 2, 1], "coords": []}',
    '{"word": [1, 2, 1], "coords": {"011": true}}',
    '{"word": [1, 2, 1], "coords": {"011": 1.0}}',
    '{"word": [1, 2, 1], "coords": {"011": null}}',
    '{"word": [1, 2, 1], "coords": {"011": "1/0"}}',
    '{"word": [1, 2, 1], "coords": {"011": "a1^"}}',
    '{"word": [1, 2, 1], "coords": {"011": "1/"}}',
    '{"word": [1, 2, 1], "coords": {"011": "\\u0661"}}',
    '{"word": [1, 2, 1], "coords": {"011": "\\u0663/\\u0664*a2"}}',
    '{"word": [1, 2, 1], "coords": {"01": "1"}}',
    '{"word": "121", "coords": {}}',
    '{"word": [1, 2, true], "coords": {}}',
    '{"word": [1, 2, 1]}',
    '[1, 2, 1]',
    '{"word": [1, 2, 1], ',
]


@pytest.mark.parametrize("command", ["restrict", "integrate"])
@pytest.mark.parametrize("spec", MALFORMED_CLASSES)
def test_malformed_class_is_a_one_line_user_error(capsys, command, spec):
    code, out, err = run(
        capsys, "--type", "A2", "--word", "1,2,1", command, "011", "--class", spec
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


DEEP_JSON = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("as_json", [(), ("--json",)])
@pytest.mark.parametrize("source", ["class", "cartan"])
def test_deeply_nested_json_is_a_one_line_user_error(tmp_path, capsys, source, as_json):
    """A document nested past what the decoder can recurse into, inline in
    --class or in a --cartan file, is refused like any malformed input."""
    if source == "class":
        spec = '{"word": [1, 2, 1], "coords": {"011": "1"}, "x": ' + DEEP_JSON + "}"
        argv = ["--type", "A2", "--word", "1,2,1", "restrict", "011", "--class", spec]
    else:
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        argv = ["--cartan", str(path), "roots"]
    code, out, err = run(capsys, *argv, *as_json)
    assert code == 2
    assert out == ""
    assert err == "error: ValueError: JSON document nested too deeply\n"


def test_billey_verify_refuses_a_word_that_is_not_longest_before_listing_galleries(
    capsys, monkeypatch
):
    from bottsam import BSWord

    def unreachable(self):
        raise AssertionError("galleries() called for a refused word")

    monkeypatch.setattr(BSWord, "galleries", unreachable)
    for extra in ((), ("--json",)):
        code, out, err = run(
            capsys, "--type", "A2", "--word", ",".join("12" * 8), *extra,
            "billey", "--w", "1", "--v", "1,2,1", "--verify",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: NotLongestWord: ") and err.count("\n") == 1


BILLEY_A2 = ("--type", "A2", "--word", "1,2,1", "billey", "--w", "1", "--v", "1,2,1", "--verify")


def test_billey_verify_disagreement_prints_the_value_then_exits_3(capsys, monkeypatch):
    import bottsam.schubert

    real = bottsam.schubert.check_billey_identities

    def one_disagrees(word, w):
        agree = real(word, w)
        return [False, *agree[1:]]

    monkeypatch.setattr(bottsam.schubert, "check_billey_identities", one_disagrees)
    code, out, err = run(capsys, *BILLEY_A2)
    verify = "verify: 6 galleries agree, 1 disagree, 1 skipped"
    assert (code, out, err) == (3, f"a1 + a2\n{verify}\n", "")
    code, out, err = run(capsys, *BILLEY_A2, "--json")
    assert (code, err) == (3, "")
    doc = json.loads(out)
    assert doc["value"] == "a1 + a2"
    assert doc["verify"] == {"passed": 6, "failed": 1, "skipped": 1}


def test_product_check_disagreement_is_an_internal_error(capsys, monkeypatch):
    import bottsam.cli
    from bottsam import CohClass

    def disagrees(x, y):
        return CohClass.zero(x.word)

    monkeypatch.setattr(bottsam.cli, "multiply_by_localization", disagrees)
    for extra in ((), ("--json",)):
        code, out, err = run(
            capsys, "--type", "A2", "--word", "1,2,1", "product", "001", "001", "--check", *extra
        )
        assert (code, out) == (3, "")
        assert err.startswith("internal error: NotInSpan: ") and err.count("\n") == 1


def test_selftest_failure_prints_its_lines_then_exits_3(capsys, monkeypatch):
    import bottsam.selftest
    from bottsam.selftest import CheckResult

    results = [
        CheckResult("first", True, "3 pairs", 0.0),
        CheckResult("second", False, "1 case; broken", 0.3),
    ]
    monkeypatch.setattr(bottsam.selftest, "run_all", lambda seed=0: results)
    expected = (
        "[1] first: PASS (0.0s, 3 pairs)\n"
        "[2] second: FAIL (0.3s, 1 case; broken)\n"
        "result: 1/2 passed\n"
    )
    assert run(capsys, "selftest") == (3, expected, "")
    # selftest has no document: --json prints the same text
    assert run(capsys, "selftest", "--json") == (3, expected, "")


TABLE_WORDS = [
    ("A1", (1,)),
    ("A1", (1, 1, 1)),
    ("A2", (1, 2, 1)),
    ("A2", (2, 1, 1, 2)),
    ("B2", (1, 2, 1, 2)),
    ("B2", (2, 2, 1)),
    ("G2", (1, 2, 1, 2, 1, 2)),
    ("G2", (2, 1, 2)),
    ("B3", (3, 2, 1, 3, 2)),
    ("B3", (1, 2, 3, 2, 1, 3)),
]


@pytest.mark.parametrize("label, letters", TABLE_WORDS)
def test_table_text_and_json_read_the_same_cells(capsys, label, letters):
    from bottsam import BSWord, Polynomial, RootSystem, format_polynomial

    argv = ("--type", label, "--word", ",".join(map(str, letters)), "table")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    header, *rows = out.splitlines()
    doc = run_json(capsys, *argv, "--json")
    assert doc["word"] == list(letters)
    assert header == "# columns: " + ", ".join(doc["columns"])
    text_rows = {}
    for line in rows:
        e, cells = line.split(": ", 1)
        text_rows[e] = cells.split(", ")
    assert list(text_rows) == list(doc["rows"]) == doc["columns"]
    assert text_rows == doc["rows"]
    # the reference: each cell is the product of the reference weights of the
    # column's gallery at the on positions of the row's, or 0 off the order
    rs = RootSystem.from_label(label)
    gals = BSWord(rs, letters).galleries()
    assert doc["columns"] == [str(g) for g in gals]
    for e in gals:
        cells = []
        for ep in gals:
            alphas = weights(rs, letters, ep.bits)
            value = Polynomial.zero(rs.rank)
            if e.leq(ep):
                value = prod((Polynomial.linear(alphas[i - 1]) for i in e.support),
                             start=Polynomial.one(rs.rank))
            cells.append(format_polynomial(value))
        assert doc["rows"][str(e)] == cells
