"""The polynomial text grammar, pinned by a differential fuzz against a
reference parser, and the class-taking commands fuzzed with the same texts.

``reference_parse`` is the earlier token-walk parser (a tokenizer, then a
recursive walk over the token list).  ``parse_polynomial`` must accept
exactly the texts it accepts, with the same terms and coefficient types, and
refuse every other text with a one-line ``ValueError``.
"""

import json
import random
import re
from fractions import Fraction

from bottsam import Polynomial, parse_polynomial
from bottsam.cli import main
from bottsam.polyring import exact

# ---- the reference parser ---------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<var>[a-zA-Z]+[0-9]+)|(?P<num>[0-9]+)|(?P<op>[-+*/^]))")


def _tokenize(text, var_prefix):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"bad character in polynomial at {text[pos:]!r}")
        if m.lastgroup == "var":
            name = m.group("var")
            if not name.startswith(var_prefix):
                raise ValueError(f"unknown variable {name!r}")
            tokens.append(("var", name[len(var_prefix):]))
        elif m.lastgroup == "num":
            tokens.append(("num", m.group("num")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


def reference_parse(text, rank, var_prefix="a"):
    tokens = _tokenize(text, var_prefix)
    if not tokens:
        raise ValueError("empty polynomial text")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"polynomial text {text!r} ends too early")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_number():
        kind, val = take()
        if kind != "num":
            raise ValueError(f"expected a number, got {val!r}")
        value = int(val)
        nxt = peek()
        if nxt == ("op", "/"):
            take()
            kind2, val2 = take()
            if kind2 != "num" or int(val2) == 0:
                raise ValueError("expected a nonzero denominator after '/'")
            value = Fraction(value, int(val2))
        return value

    terms = {}

    def parse_term(sign):
        coef = sign
        exps = [0] * rank
        while True:
            tok = peek()
            if tok is None:
                raise ValueError("term ended unexpectedly")
            kind, val = tok
            if kind == "num":
                coef *= parse_number()
            elif kind == "var":
                take()
                idx = int(val)
                if not 1 <= idx <= rank:
                    raise ValueError(f"variable index {idx} out of range 1..{rank}")
                e = 1
                if peek() == ("op", "^"):
                    take()
                    kind2, val2 = take()
                    if kind2 != "num":
                        raise ValueError("expected an exponent after '^'")
                    e = int(val2)
                exps[idx - 1] += e
            else:
                raise ValueError(f"unexpected {val!r} in term")
            if peek() == ("op", "*"):
                take()
                continue
            break
        exp = tuple(exps)
        terms[exp] = terms.get(exp, 0) + coef

    sign = 1
    tok = peek()
    if tok == ("op", "-"):
        take()
        sign = -1
    elif tok == ("op", "+"):
        take()
    while True:
        parse_term(sign)
        tok = peek()
        if tok is None:
            break
        if tok == ("op", "+"):
            take()
            sign = 1
        elif tok == ("op", "-"):
            take()
            sign = -1
        else:
            raise ValueError(f"unexpected {tok[1]!r} between terms")
    return Polynomial(rank, {e: exact(c) for e, c in terms.items()})


# ---- random texts -----------------------------------------------------------

# Every token class of the grammar and its near misses: indices 0 and 10,
# other and longer variable names, a bare letter, zero and unreduced
# fractions, a zero denominator, dangling operators, an unknown character,
# whitespace inside a factor and digits that are not ASCII.
ALPHABET = (
    "a1", "a2", "a3", "a0", "a10", "b1", "ab1", "3", "0", "1/2", "4/2", "2/0",
    "/", "+", "-", "*", "^", "^2", " ", "\t", "?", "a", "1 / 3", "a2 ^ 3", "\u0661", "a\uff12",
)
FACTORS = ("a1", "a2", "a3", "3", "0", "1/2", "4/2", "1 / 3", "a2 ^ 3", "a1^2", "12")
JOINS = ("*", " * ", "*\t")
SIGNS = (" + ", " - ", "+", "-", "\t-\t")


def random_text(rng: random.Random) -> str:
    """Half the texts are loose strings of alphabet tokens; the other half
    are well-formed sums of products, some with an alphabet token inserted,
    deleted or substituted at a random character position."""
    if rng.random() < 0.5:
        return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 7)))
    text = rng.choice(("", "", "-", "+", " - "))
    for t in range(rng.randint(1, 3)):
        if t:
            text += rng.choice(SIGNS)
        text += rng.choice(JOINS).join(rng.choice(FACTORS) for _ in range(rng.randint(1, 3)))
    for _ in range(rng.choice((0, 0, 1, 2))):
        at = rng.randint(0, len(text))
        action = rng.randrange(3)
        if action == 0:
            text = text[:at] + rng.choice(ALPHABET) + text[at:]
        elif action == 1:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + rng.choice(ALPHABET) + text[at + 1:]
    return text


def outcome(parse, text, rank):
    """``(terms, coefficient types)`` of an accepted text, or the error."""
    try:
        p = parse(text, rank)
    except ValueError as exc:
        return exc
    return p.terms, {e: type(c) for e, c in p.terms.items()}


def test_parser_agrees_with_the_reference_on_random_texts():
    rng = random.Random(20020)
    accepted = rejected = fractional = 0
    for _ in range(50_000):
        text = random_text(rng)
        rank = rng.randint(1, 3)
        want = outcome(reference_parse, text, rank)
        got = outcome(parse_polynomial, text, rank)
        if isinstance(got, ValueError):
            message = str(got)
            assert message and "\n" not in message, (text, message)
            assert isinstance(want, ValueError), (text, rank, want, message)
            rejected += 1
        else:
            assert got == want, (text, rank)
            accepted += 1
            fractional += Fraction in got[1].values()
    # the fuzz is not vacuous: both outcomes, and rational results, are common
    assert accepted > 10_000 and rejected > 25_000 and fractional > 2_000


def test_grammar_examples():
    # the forms the README documents, and a repeated variable and monomial
    text = " - 1 / 3 * a2 ^ 2\t+ 3/2*a1 + a1*a1 - a1^2 "
    assert str(parse_polynomial(text, 2)) == "-1/3*a2^2 + 3/2*a1"
    assert parse_polynomial("+a1^0*2*a2*a2", 2) == parse_polynomial("2*a2^2", 2)


# ---- commands that take a class ---------------------------------------------

def random_class_spec(rng: random.Random) -> str:
    coords = {}
    for _ in range(rng.randint(1, 3)):
        bits = "".join(rng.choice("01") for _ in range(3))
        coords[bits] = random_text(rng) if rng.random() < 0.9 else rng.randint(-3, 3)
    return json.dumps({"word": [1, 2, 1], "coords": coords})


def test_class_commands_exit_0_or_2_with_one_line(capsys):
    rng = random.Random(5)
    exits = {0: 0, 2: 0}
    for command in ("restrict", "integrate"):
        for _ in range(200):
            point = "".join(rng.choice("01") for _ in range(3))
            spec = random_class_spec(rng)
            code = main(["--type", "A2", "--word", "1,2,1", command, point, "--class", spec])
            out, err = capsys.readouterr()
            assert code in exits, (command, spec, code, err)
            exits[code] += 1
            if code == 2:
                assert out == "" and err.startswith("error: "), (command, spec, err)
                assert err.count("\n") == 1 and "Traceback" not in err, (command, spec, err)
            else:
                assert err == "" and out.count("\n") == 1, (command, spec, out, err)
    assert min(exits.values()) > 50
