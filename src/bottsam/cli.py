"""Command-line interface.

Each command takes the parsed arguments and returns one document (a
``dict``), its text lines and an exit code.  :func:`main` prints the
document as JSON under ``--json`` and the lines otherwise; ``selftest`` has
no document and prints its lines either way.

Exit codes: 0 on success, 2 for input problems (usage errors, bad Cartan
data, malformed words or galleries, length mismatches), each reported in one
line of stderr, 3 when an internal invariant is violated (a localization
division leaves a remainder, a ``--check`` disagrees, or a selftest check
fails).
"""

from __future__ import annotations

import argparse
import itertools
import sys

from .bott_samelson import (
    BSWord,
    CohClass,
    DEFAULT_GALLERY_CAP,
    Gallery,
    integrate,
    integrate_by_localization,
    multiply,
    multiply_by_localization,
    restriction_table,
    table_lines,
)
from .errors import BottsamError, CapExceeded, NotDivisible, NotInSpan, WordMismatch, _quoted
from .polyring import Polynomial, format_polynomial
from .rootsystem import RootSystem, ascii_int, format_word, parse_word

EXIT_OK = 0
EXIT_USER = 2
EXIT_INTERNAL = 3

TABLE_MAX_LETTERS = 12
USAGE_LINE_MAX = 300
FILE_NAME_MAX = 120  # characters of a file name's repr in a refusal

INTERNAL_ERRORS = (NotInSpan, NotDivisible)

# The common options are suppressed when absent, so that a subcommand's
# parser does not overwrite what was given before the subcommand; these are
# their values when given nowhere.
COMMON_DEFAULTS = {
    "type_label": None,
    "cartan": None,
    "word": None,
    "as_json": False,
    "cap": DEFAULT_GALLERY_CAP,
    "seed": 0,
}


class _Pairs(dict):
    """Pairs, read once, that ``json.JSONEncoder.iterencode`` writes as a
    nonempty object as it reads them: it asks a dict only for its truth and
    its ``items()``."""

    def __init__(self, pairs):
        self.pairs = pairs

    def __bool__(self) -> bool:
        return True

    def items(self):
        return self.pairs


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line of at most ``USAGE_LINE_MAX``
    characters, without the usage block; its sub-parsers are of its class."""

    def error(self, message):
        line = " ".join(f"{self.prog}: error: {message}".splitlines())
        if len(line) > USAGE_LINE_MAX:
            line = line[: USAGE_LINE_MAX - 3] + "..."
        self.exit(EXIT_USER, line + "\n")


def _os_error(exc: OSError) -> str:
    """An ``OSError`` as Python writes it, with the ``repr`` of a long file
    name cut in the middle: its head and its tail, which names the file at
    the end of a path, are kept."""
    if exc.filename is None:
        return str(exc)
    name = repr(exc.filename)
    if len(name) > FILE_NAME_MAX:
        half = FILE_NAME_MAX // 2
        name = f"{name[:half]}...{name[-half:]}"
    return f"[Errno {exc.errno}] {exc.strerror}: {name}"


def _int_option(text: str) -> int:
    """``--cap`` and ``--seed``, read as :func:`parse_word` reads a letter."""
    try:
        if (value := ascii_int(text)) is not None:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    g = common.add_argument_group("common options")
    g.add_argument(
        "--type",
        dest="type_label",
        metavar="LABEL",
        help="built-in Cartan type (A1, A2, A3, A4, B2, B3, C3, D4, G2)",
    )
    g.add_argument(
        "--cartan",
        metavar="FILE",
        help='JSON file {"label": ..., "matrix": [[...]]}',
    )
    g.add_argument(
        "--word",
        metavar="LETTERS",
        help="word of 1-based simple-root indices, comma- or space-separated",
    )
    g.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="emit JSON instead of text",
    )
    g.add_argument(
        "--cap",
        type=_int_option,
        metavar="N",
        help=f"refuse words longer than N (default {DEFAULT_GALLERY_CAP})",
    )
    g.add_argument(
        "--seed",
        type=_int_option,
        metavar="K",
        help="seed for the randomized selftest checks (default 0)",
    )

    parser = _Parser(
        prog="bottsam",
        description="Exact equivariant cohomology of Bott-Samelson varieties.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    p = {
        name: sub.add_parser(name, parents=[common], help=help)
        for name, (_, help) in COMMANDS.items()
    }

    p["restrict"].add_argument("point", help="gallery bit string of the fixed point")
    p["product"].add_argument("left", help="gallery bit string")
    p["product"].add_argument("right", help="gallery bit string")
    p["integrate"].add_argument("domain", help="gallery bit string to integrate over")
    for name in ("restrict", "integrate"):
        p[name].add_argument(
            "--class",
            dest="class_spec",
            required=True,
            metavar="CLASS",
            help="bit string (basis class), inline JSON, or a JSON file path",
        )
    for name, result in (("product", "product"), ("integrate", "integral")):
        p[name].add_argument(
            "--check",
            action="store_true",
            help=f"cross-check the {result} against the localization route",
        )
    p["billey"].add_argument("--w", required=True, metavar="LETTERS", help="word for the class (may be empty)")
    p["billey"].add_argument("--v", required=True, metavar="LETTERS", help="reduced word for the point")
    p["billey"].add_argument(
        "--verify",
        action="store_true",
        help="also check the fiber-sum identity over every gallery of --word",
    )
    p["ordinary"].add_argument(
        "--product",
        nargs=2,
        metavar=("LEFT", "RIGHT"),
        help="print the normal-form product of two basis monomials",
    )
    return parser


def _word(args: argparse.Namespace) -> BSWord:
    if not args.letters:
        raise ValueError("this command needs a non-empty --word")
    return BSWord(args.rs, args.letters, cap=args.cap)


def _read_json(text: str):
    """A JSON document; one nested too deeply to decode is an input error."""
    import json  # only a JSON input needs it; keeps start-up short

    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None


def _galleries(word: BSWord, *texts: str) -> list[Gallery]:
    """Galleries given as bit strings, all read before any is checked
    against the word."""
    galleries = [Gallery.from_string(text) for text in texts]
    for e in galleries:
        word.check_gallery(e)
    return galleries


def _load_class(args: argparse.Namespace, word: BSWord) -> CohClass:
    """The ``--class`` argument: a bare bit string meaning a basis class,
    inline JSON, or the path of a JSON file in the documented schema."""
    text = args.class_spec.strip()
    if text and all(ch in "01" for ch in text):
        return CohClass.basis(word, *_galleries(word, text))
    if not text.startswith("{"):
        with open(text, encoding="utf-8") as fh:
            text = fh.read()
    cls = CohClass.from_json_dict(args.rs, _read_json(text), cap=args.cap)
    if cls.word != word:
        raise WordMismatch(
            f"class is over word {_quoted(list(cls.word.letters))}, not {_quoted(list(word.letters))}"
        )
    return cls


# ---- commands: each returns (document, text lines, exit code) -------------

def cmd_roots(args: argparse.Namespace):
    rs = args.rs
    doc = {
        "label": rs.label,
        "matrix": [list(row) for row in rs.cartan],
        "positive_roots": [format_polynomial(Polynomial.linear(b)) for b in rs.positive_roots],
        "longest_length": len(rs.positive_roots),
        "longest_word": list(rs.longest_word()),
    }
    lines = [
        f"type: {rs.label or 'custom'}",
        "cartan matrix:",
        *("  " + " ".join(f"{v:3d}" for v in row) for row in rs.cartan),
        "positive roots: " + ", ".join(doc["positive_roots"]),
        f"longest length: {doc['longest_length']}",
        f"longest word: {format_word(doc['longest_word'])}",
    ]
    return doc, lines, EXIT_OK


def cmd_table(args: argparse.Namespace):
    word = _word(args)
    if word.n > TABLE_MAX_LETTERS:
        raise CapExceeded(
            f"a table of a {word.n}-letter word has 4^{word.n} entries;"
            f" table is limited to {TABLE_MAX_LETTERS} letters"
        )
    table = restriction_table(word)
    return table, table_lines(table), EXIT_OK


def cmd_restrict(args: argparse.Namespace):
    word = _word(args)
    (point,) = _galleries(word, args.point)
    value = format_polynomial(_load_class(args, word).restriction(point))
    return {"word": list(word.letters), "point": str(point), "value": value}, [value], EXIT_OK


def cmd_product(args: argparse.Namespace):
    word = _word(args)
    left, right = _galleries(word, args.left, args.right)
    left_class, right_class = CohClass.basis(word, left), CohClass.basis(word, right)
    product = multiply(left_class, right_class)
    doc, lines = product.to_json_dict(), [str(product)]
    if args.check:
        if multiply_by_localization(left_class, right_class) != product:
            raise NotInSpan(
                "closed one-generator rule disagrees with the expanded product"
            )
        doc["check"] = "closed one-generator rule agrees"
        lines.append(f"check: {doc['check']}")
    return doc, lines, EXIT_OK


def cmd_integrate(args: argparse.Namespace):
    word = _word(args)
    (domain,) = _galleries(word, args.domain)
    cls = _load_class(args, word)
    value = integrate(word, domain, cls)
    doc = {
        "word": list(word.letters),
        "domain": str(domain),
        "value": format_polynomial(value),
    }
    lines = [doc["value"]]
    if args.check:
        if integrate_by_localization(word, domain, cls) != value:
            raise NotInSpan(
                "integral by duality disagrees with the localization integral"
            )
        doc["check"] = "localization integral agrees"
        lines.append(f"check: {doc['check']}")
    return doc, lines, EXIT_OK


def cmd_billey(args: argparse.Namespace):
    # only this command needs it; keeps start-up short
    from .schubert import BilleyQuery, billey, check_billey_identities

    rs = args.rs
    w_word = parse_word(args.w)
    v_word = parse_word(args.v)
    w = rs.weyl_from_word(w_word)
    value = format_polynomial(billey(BilleyQuery(rs, w, v_word)))
    doc = {"w": list(w_word), "v": list(v_word), "value": value}
    lines = [value]
    failed = 0
    if args.verify:
        word = _word(args)
        agree = check_billey_identities(word, w)
        passed = sum(agree)
        failed = len(agree) - passed
        skipped = 2**word.n - len(agree)
        doc["verify"] = {"passed": passed, "failed": failed, "skipped": skipped}
        lines.append(
            f"verify: {passed} galleries agree, {failed} disagree, {skipped} skipped"
        )
    return doc, lines, EXIT_INTERNAL if failed else EXIT_OK


def cmd_ordinary(args: argparse.Namespace):
    # only this command needs it; keeps start-up short
    from .ordinary import OrdinaryClass, ordinary_multiply, relations

    word = _word(args)
    if args.product:
        left, right = _galleries(word, *args.product)
        product = ordinary_multiply(
            OrdinaryClass.basis(word, left), OrdinaryClass.basis(word, right)
        )
        return product.to_json_dict(), [str(product)], EXIT_OK
    rels = [str(r) for r in relations(word)]
    return {"word": list(word.letters), "relations": rels}, rels, EXIT_OK


def cmd_selftest(args: argparse.Namespace):
    from . import selftest  # only this command needs it; keeps start-up short

    results = selftest.run_all(seed=args.seed)
    passed = sum(r.passed for r in results)
    lines = [result.line(k) for k, result in enumerate(results, start=1)]
    lines.append(f"result: {passed}/{len(results)} passed")
    return None, lines, EXIT_OK if passed == len(results) else EXIT_INTERNAL


# The commands in --help order: each one's handler and its one-line help.
COMMANDS = {
    "roots": (cmd_roots, "print the Cartan matrix, positive roots, and longest word"),
    "table": (cmd_table, "print the full restriction table of the word"),
    "restrict": (cmd_restrict, "value of a class at one fixed point"),
    "product": (cmd_product, "product of two basis classes in the gallery basis"),
    "integrate": (cmd_integrate, "integral of a class over a gallery subvariety"),
    "billey": (cmd_billey, "restriction of a Schubert class by the subword sum"),
    "ordinary": (cmd_ordinary, "ordinary-cohomology relations, or a square-free product"),
    "selftest": (cmd_selftest, "run the acceptance checks and report one line per criterion"),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        print("bottsam: error: a COMMAND is required", file=sys.stderr)
        return EXIT_USER
    for name, default in COMMON_DEFAULTS.items():
        vars(args).setdefault(name, default)
    try:
        if args.type_label and args.cartan:
            raise ValueError("give exactly one Cartan source: --type or --cartan")
        args.rs = None
        if args.type_label:
            args.rs = RootSystem.from_label(args.type_label)
        elif args.cartan:
            with open(args.cartan, encoding="utf-8") as fh:
                args.rs = RootSystem.from_json_dict(_read_json(fh.read()))
        elif args.command != "selftest":
            raise ValueError("choose a Cartan source with --type or --cartan")
        args.letters = parse_word(args.word) if args.word is not None else None
        doc, lines, code = COMMANDS[args.command][0](args)
        if args.as_json and doc is not None:
            import json

            # written in batches, never as one string; lazy rows print as an object
            chunks = json.JSONEncoder(indent=2, default=_Pairs).iterencode({"schema": 1, **doc})
            for batch in iter(lambda: "".join(itertools.islice(chunks, 4096)), ""):
                sys.stdout.write(batch)
            print()
        else:
            for line in lines:
                print(line)
        return code
    except INTERNAL_ERRORS as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (BottsamError, ValueError, OSError) as exc:
        message = _os_error(exc) if isinstance(exc, OSError) else exc
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_USER


if __name__ == "__main__":
    sys.exit(main())
