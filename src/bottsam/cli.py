"""Command-line interface.

Exit codes: 0 on success, 2 for input problems (bad Cartan data, malformed
words or galleries, length mismatches), 3 when an internal invariant is
violated (a localization division leaves a remainder, a ``--check``
disagrees, or a selftest check fails).
"""

from __future__ import annotations

import argparse
import json
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
    table_lines,
)
from .errors import (
    BottsamError,
    CapExceeded,
    NotDivisible,
    NotInSpan,
    NotLongestWord,
    WordMismatch,
)
from .polyring import format_polynomial
from .rootsystem import CartanSpec, RootSystem, SimpleWord, format_word, parse_word

EXIT_OK = 0
EXIT_USER = 2
EXIT_INTERNAL = 3

TABLE_MAX_LETTERS = 12

INTERNAL_ERRORS = (NotInSpan, NotDivisible)


class CliConfig:
    __slots__ = ("rs", "word", "as_json", "cap", "seed")

    def __init__(
        self,
        rs: RootSystem | None,
        word: SimpleWord | None,
        as_json: bool,
        cap: int,
        seed: int,
    ):
        self.rs = rs
        self.word = word
        self.as_json = as_json
        self.cap = cap
        self.seed = seed

    def __eq__(self, other) -> bool:
        if other.__class__ is not CliConfig:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"CliConfig(rs={self.rs!r}, word={self.word!r}, as_json={self.as_json!r},"
            f" cap={self.cap!r}, seed={self.seed!r})"
        )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("common options")
    g.add_argument(
        "--type",
        dest="type_label",
        metavar="LABEL",
        default=argparse.SUPPRESS,
        help="built-in Cartan type (A1, A2, A3, A4, B2, B3, C3, D4, G2)",
    )
    g.add_argument(
        "--cartan",
        metavar="FILE",
        default=argparse.SUPPRESS,
        help='JSON file {"label": ..., "matrix": [[...]]}',
    )
    g.add_argument(
        "--word",
        metavar="LETTERS",
        default=argparse.SUPPRESS,
        help="word of 1-based simple-root indices, comma- or space-separated",
    )
    g.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit JSON instead of text",
    )
    g.add_argument(
        "--cap",
        type=int,
        metavar="N",
        default=argparse.SUPPRESS,
        help=f"refuse words longer than N (default {DEFAULT_GALLERY_CAP})",
    )
    g.add_argument(
        "--seed",
        type=int,
        metavar="K",
        default=argparse.SUPPRESS,
        help="seed for the randomized selftest checks (default 0)",
    )

    parser = argparse.ArgumentParser(
        prog="bottsam",
        description="Exact equivariant cohomology of Bott-Samelson varieties.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    sub.add_parser(
        "roots",
        parents=[common],
        help="print the Cartan matrix, positive roots, and longest word",
    )
    sub.add_parser(
        "table",
        parents=[common],
        help="print the full restriction table of the word",
    )

    p = sub.add_parser(
        "restrict",
        parents=[common],
        help="value of a class at one fixed point",
    )
    p.add_argument("point", help="gallery bit string of the fixed point")
    p.add_argument(
        "--class",
        dest="class_spec",
        required=True,
        metavar="CLASS",
        help="bit string (basis class), inline JSON, or a JSON file path",
    )

    p = sub.add_parser(
        "product",
        parents=[common],
        help="product of two basis classes in the gallery basis",
    )
    p.add_argument("left", help="gallery bit string")
    p.add_argument("right", help="gallery bit string")
    p.add_argument(
        "--check",
        action="store_true",
        help="cross-check one-generator products against the localization route",
    )

    p = sub.add_parser(
        "integrate",
        parents=[common],
        help="integral of a class over a gallery subvariety",
    )
    p.add_argument("domain", help="gallery bit string to integrate over")
    p.add_argument(
        "--class",
        dest="class_spec",
        required=True,
        metavar="CLASS",
        help="bit string (basis class), inline JSON, or a JSON file path",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="cross-check the integral against the localization route",
    )

    p = sub.add_parser(
        "billey",
        parents=[common],
        help="restriction of a Schubert class by the subword sum",
    )
    p.add_argument("--w", required=True, metavar="LETTERS", help="word for the class (may be empty)")
    p.add_argument("--v", required=True, metavar="LETTERS", help="reduced word for the point")
    p.add_argument(
        "--verify",
        action="store_true",
        help="also check the fiber-sum identity over every gallery of --word",
    )

    p = sub.add_parser(
        "ordinary",
        parents=[common],
        help="ordinary-cohomology relations, or a square-free product",
    )
    p.add_argument(
        "--product",
        nargs=2,
        metavar=("LEFT", "RIGHT"),
        help="print the normal-form product of two basis monomials",
    )

    sub.add_parser(
        "selftest",
        parents=[common],
        help="run the acceptance checks and report one line per criterion",
    )
    return parser


def _resolve_config(args: argparse.Namespace, need_rs: bool = True) -> CliConfig:
    type_label = getattr(args, "type_label", None)
    cartan_path = getattr(args, "cartan", None)
    if type_label and cartan_path:
        raise ValueError("give exactly one Cartan source: --type or --cartan")
    rs = None
    if type_label:
        rs = RootSystem.from_label(type_label)
    elif cartan_path:
        with open(cartan_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        rs = RootSystem(CartanSpec.from_json_dict(doc))
    elif need_rs:
        raise ValueError("choose a Cartan source with --type or --cartan")
    word_text = getattr(args, "word", None)
    word = parse_word(word_text) if word_text is not None else None
    return CliConfig(
        rs=rs,
        word=word,
        as_json=getattr(args, "as_json", False),
        cap=getattr(args, "cap", DEFAULT_GALLERY_CAP),
        seed=getattr(args, "seed", 0),
    )


def _require_word(config: CliConfig) -> BSWord:
    if config.word is None or not config.word:
        raise ValueError("this command needs a non-empty --word")
    return BSWord(config.rs, config.word, cap=config.cap)


def _emit_json(doc: dict) -> None:
    print(json.dumps({"schema": 1, **doc}, indent=2))


def _load_class(config: CliConfig, word: BSWord, spec_text: str) -> CohClass:
    """A class argument: a bare bit string meaning a basis class, inline
    JSON, or the path of a JSON file in the documented schema."""
    text = spec_text.strip()
    if text and all(ch in "01" for ch in text):
        e = Gallery.from_string(text)
        word.check_gallery(e)
        return CohClass.basis(word, e)
    if not text.startswith("{"):
        with open(text, encoding="utf-8") as fh:
            text = fh.read()
    doc = json.loads(text)
    cls = CohClass.from_json_dict(config.rs, doc, cap=config.cap)
    if cls.word != word:
        raise WordMismatch(
            f"class is over word {list(cls.word.letters)}, not {list(word.letters)}"
        )
    return cls


# ---- commands -------------------------------------------------------------

def cmd_roots(config: CliConfig) -> int:
    rs = config.rs
    if config.as_json:
        _emit_json(
            {
                "label": rs.label,
                "matrix": [list(row) for row in rs.cartan],
                "positive_roots": [str(b) for b in rs.positive_roots],
                "longest_length": len(rs.positive_roots),
                "longest_word": list(rs.longest_word()),
            }
        )
        return EXIT_OK
    print(f"type: {rs.label or 'custom'}")
    print("cartan matrix:")
    for row in rs.cartan:
        print("  " + " ".join(f"{v:3d}" for v in row))
    print("positive roots: " + ", ".join(str(b) for b in rs.positive_roots))
    print(f"longest length: {len(rs.positive_roots)}")
    print(f"longest word: {format_word(rs.longest_word())}")
    return EXIT_OK


def cmd_table(config: CliConfig) -> int:
    word = _require_word(config)
    if word.n > TABLE_MAX_LETTERS:
        raise CapExceeded(
            f"a table of a {word.n}-letter word has 4^{word.n} entries;"
            f" table is limited to {TABLE_MAX_LETTERS} letters"
        )
    gals = word.galleries()
    if config.as_json:
        _emit_json(
            {
                "word": list(word.letters),
                "columns": [str(g) for g in gals],
                "rows": {
                    str(e): [format_polynomial(word.sigma(e, ep)) for ep in gals]
                    for e in gals
                },
            }
        )
        return EXIT_OK
    for line in table_lines(word):
        print(line)
    return EXIT_OK


def cmd_restrict(config: CliConfig, point_text: str, class_spec: str) -> int:
    word = _require_word(config)
    point = Gallery.from_string(point_text)
    word.check_gallery(point)
    cls = _load_class(config, word, class_spec)
    value = cls.restriction(point)
    if config.as_json:
        _emit_json(
            {
                "word": list(word.letters),
                "point": str(point),
                "value": format_polynomial(value),
            }
        )
    else:
        print(format_polynomial(value))
    return EXIT_OK


def cmd_product(config: CliConfig, left_text: str, right_text: str, check: bool) -> int:
    word = _require_word(config)
    left = Gallery.from_string(left_text)
    right = Gallery.from_string(right_text)
    word.check_gallery(left)
    word.check_gallery(right)
    left_class, right_class = CohClass.basis(word, left), CohClass.basis(word, right)
    product = multiply(left_class, right_class)
    check_note = None
    if check:
        if left.ones == 1 or right.ones == 1:
            if multiply_by_localization(left_class, right_class) != product:
                raise NotInSpan(
                    "closed one-generator rule disagrees with the expanded product"
                )
            check_note = "check: closed one-generator rule agrees"
        else:
            check_note = "check: skipped (neither factor is a single generator)"
    if config.as_json:
        doc = product.to_json_dict()
        if check_note:
            doc["check"] = check_note.split(": ", 1)[1]
        _emit_json(doc)
    else:
        print(product)
        if check_note:
            print(check_note)
    return EXIT_OK


def cmd_integrate(
    config: CliConfig, domain_text: str, class_spec: str, check: bool
) -> int:
    word = _require_word(config)
    domain = Gallery.from_string(domain_text)
    word.check_gallery(domain)
    cls = _load_class(config, word, class_spec)
    value = integrate(word, domain, cls)
    doc = {
        "word": list(word.letters),
        "domain": str(domain),
        "value": format_polynomial(value),
    }
    if check:
        if integrate_by_localization(word, domain, cls) != value:
            raise NotInSpan(
                "integral by duality disagrees with the localization integral"
            )
        doc["check"] = "localization integral agrees"
    if config.as_json:
        _emit_json(doc)
    else:
        print(doc["value"])
        if check:
            print(f"check: {doc['check']}")
    return EXIT_OK


def cmd_billey(config: CliConfig, w_text: str, v_text: str, verify: bool) -> int:
    # only this command needs it; keeps start-up short
    from .schubert import BilleyQuery, billey, check_billey_identities

    rs = config.rs
    w_word = parse_word(w_text)
    v_word = parse_word(v_text)
    w = rs.weyl_from_word(w_word)
    value = billey(BilleyQuery(rs, w, v_word))
    lines = [format_polynomial(value)]
    doc = {
        "w": list(w_word),
        "v": list(v_word),
        "value": format_polynomial(value),
    }
    failed = 0
    if verify:
        word = _require_word(config)
        agree = check_billey_identities(word, w)
        passed = sum(agree)
        failed = len(agree) - passed
        skipped = len(word.galleries()) - len(agree)
        lines.append(
            f"verify: {passed} galleries agree, {failed} disagree, {skipped} skipped"
        )
        doc["verify"] = {"passed": passed, "failed": failed, "skipped": skipped}
    if config.as_json:
        _emit_json(doc)
    else:
        for line in lines:
            print(line)
    return EXIT_INTERNAL if failed else EXIT_OK


def cmd_ordinary(config: CliConfig, product_specs) -> int:
    # only this command needs it; keeps start-up short
    from .ordinary import OrdinaryClass, ordinary_multiply, relations

    word = _require_word(config)
    if product_specs:
        left = Gallery.from_string(product_specs[0])
        right = Gallery.from_string(product_specs[1])
        word.check_gallery(left)
        word.check_gallery(right)
        product = ordinary_multiply(
            OrdinaryClass.basis(word, left), OrdinaryClass.basis(word, right)
        )
        if config.as_json:
            _emit_json(product.to_json_dict())
        else:
            print(product)
        return EXIT_OK
    rels = relations(word)
    if config.as_json:
        _emit_json(
            {
                "word": list(word.letters),
                "relations": [str(r) for r in rels],
            }
        )
    else:
        for r in rels:
            print(r)
    return EXIT_OK


def cmd_selftest(config: CliConfig) -> int:
    from . import selftest  # only this command needs it; keeps start-up short

    results = selftest.run_all(seed=config.seed)
    for k, result in enumerate(results, start=1):
        print(result.line(k))
    passed = sum(1 for r in results if r.passed)
    print(f"result: {passed}/{len(results)} passed")
    return EXIT_OK if passed == len(results) else EXIT_INTERNAL


def _dispatch(args: argparse.Namespace) -> int:
    command = args.command
    if command == "selftest":
        config = _resolve_config(args, need_rs=False)
        return cmd_selftest(config)
    config = _resolve_config(args)
    if command == "roots":
        return cmd_roots(config)
    if command == "table":
        return cmd_table(config)
    if command == "restrict":
        return cmd_restrict(config, args.point, args.class_spec)
    if command == "product":
        return cmd_product(config, args.left, args.right, args.check)
    if command == "integrate":
        return cmd_integrate(config, args.domain, args.class_spec, args.check)
    if command == "billey":
        return cmd_billey(config, args.w, args.v, args.verify)
    if command == "ordinary":
        return cmd_ordinary(config, args.product)
    raise AssertionError(f"unhandled command {command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: a COMMAND is required", file=sys.stderr)
        return EXIT_USER
    try:
        return _dispatch(args)
    except INTERNAL_ERRORS as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (BottsamError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USER


if __name__ == "__main__":
    sys.exit(main())
