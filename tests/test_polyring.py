import random
import time
from fractions import Fraction

import pytest

from bottsam.polyring import MAX_DIGITS
from bottsam import (
    NotDivisible,
    Polynomial,
    RankMismatch,
    ZeroForm,
    divide_exact,
    format_polynomial,
    parse_polynomial,
)
from reference import REFUSALS


def poly(text, rank=2):
    return parse_polynomial(text, rank)


def test_constructors_and_zero_pruning():
    p = Polynomial(2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert p.terms == {(1, 0): Fraction(1)}
    assert Polynomial.zero(2).is_zero
    assert Polynomial.constant(2, 0).is_zero
    assert Polynomial.one(3) == 1
    assert Polynomial.linear((0, 1)) == poly("a2")
    assert Polynomial.linear((Fraction(-2, 2), 0, 3)) == poly("-a1 + 3*a3", 3)
    assert str(Polynomial.linear((1, 1))) == "a1 + a2"
    assert str(Polynomial.linear((-1, 2))) == "-a1 + 2*a2"
    assert str(Polynomial.linear((0, Fraction(-1, 2), 3))) == "-1/2*a2 + 3*a3"
    assert str(Polynomial.linear((0, 0))) == "0"


def test_constructor_stores_integral_fractions_as_int():
    p = Polynomial(2, {(1, 0): Fraction(2), (0, 1): Fraction(-6, 3), (1, 1): Fraction(1, 2)})
    assert p.terms == {(1, 0): 2, (0, 1): -2, (1, 1): Fraction(1, 2)}
    assert [type(c) for c in p.terms.values()] == [int, int, Fraction]
    same = Polynomial(2, {(1, 0): 2, (0, 1): -2, (1, 1): Fraction(1, 2)})
    assert str(p) == str(same) == "1/2*a1*a2 + 2*a1 - 2*a2"
    assert repr(p) == repr(same)


def test_arithmetic():
    a1, a2 = poly("a1"), poly("a2")
    assert (a1 + a2) * (a1 - a2) == a1 * a1 - a2 * a2
    assert a1 - a1 == 0
    assert 2 * a1 == a1 + a1
    assert (a1 * Fraction(1, 2)) + (a1 * Fraction(1, 2)) == a1
    assert (a1 * 0).is_zero
    with pytest.raises(RankMismatch):
        a1 + poly("a1", 3)


def test_constant_term():
    assert poly("a1^2*a2 - 3 + a1").constant_term() == -3
    assert poly("3").constant_term() == 3
    assert poly("a1").constant_term() == 0


def test_format_canonical_order():
    assert format_polynomial(poly("a1*a2 + 3 - 2*a1^2*a2")) == "-2*a1^2*a2 + a1*a2 + 3"
    assert format_polynomial(Polynomial.zero(2)) == "0"
    assert format_polynomial(poly("-a1")) == "-a1"
    assert format_polynomial(Polynomial.constant(2, Fraction(-3, 2))) == "-3/2"
    assert format_polynomial(poly("a2 + a1")) == "a1 + a2"
    assert format_polynomial(poly("a1^2*a2 + a1*a2^2")) == "a1^2*a2 + a1*a2^2"


def test_format_refuses_coefficients_of_more_than_max_digits():
    """A coefficient of more digits than the parser reads, in its numerator
    or its denominator, is refused in print with the package's one-line
    message, the same on every Python; one of MAX_DIGITS digits prints."""
    top = 10**MAX_DIGITS - 1
    assert format_polynomial(Polynomial.constant(2, top)) == "9" * MAX_DIGITS
    assert format_polynomial(Polynomial.linear((Fraction(-1, top), 0))) == f"-1/{top}*a1"
    square = poly(f"{top}*{top}*a1 + a2")  # each factor is read
    for p in (square, top + 1 + poly("a1"), Polynomial.constant(2, Fraction(1, top + 1))):
        with pytest.raises(ValueError) as info:
            format_polynomial(p)
        assert str(info.value) == f"coefficient of more than {MAX_DIGITS} digits"


def test_format_refuses_exponents_of_more_than_max_digits():
    """An exponent of more than MAX_DIGITS digits is refused in print with
    the package's one-line message, as a coefficient is; one of MAX_DIGITS
    digits prints."""
    top = 10**MAX_DIGITS - 1
    assert str(Polynomial(1, {(top,): 1})) == "a1^" + "9" * MAX_DIGITS
    for big in (top + 1, 10**5000):
        with pytest.raises(ValueError) as info:
            str(Polynomial(1, {(big,): 1}))
        assert str(info.value) == f"exponent of more than {MAX_DIGITS} digits"


def test_parse_inverts_format():
    rng = random.Random(11)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            exp = (rng.randint(0, 3), rng.randint(0, 3))
            terms[exp] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        p = Polynomial(2, terms)
        assert parse_polynomial(format_polynomial(p), 2) == p


def test_parse_errors():
    for bad in ("", " ", "a3", "a1 +", "1 ? 2", "a1 a2", "2 3", "a1^-1", "2*-a1", "--a1",
                "*a1", "1/2/3", "a1^2^2", "1/0", "a 1", "A1", "b1", "ab1", "a1 *", "^2",
                "2^2", "a1 ^ a2"):
        with pytest.raises(ValueError):
            parse_polynomial(bad, 2)
    # numbers are ASCII digits, not Arabic-Indic or fullwidth ones
    for bad in ("a\u0661", "\u0663/\u0664*a2", "\uff12*a1", "a1^\u0662", "1/\u0662"):
        with pytest.raises(ValueError, match="cannot read polynomial text"):
            parse_polynomial(bad, 2)


@pytest.mark.parametrize("text, message", REFUSALS)
def test_parse_refusals_and_their_messages(text, message):
    with pytest.raises(ValueError) as info:
        parse_polynomial(text, 2)
    assert type(info.value) is ValueError and str(info.value) == message


def test_parse_takes_linear_time_on_long_runs():
    # a backtracking scan takes time quadratic in the length of a run when
    # it splits the run between two optional parts of its pattern, or when
    # each match scans to the end of the run and then takes one character
    # of it: blanks, and letters with no index after them
    letters = "b" * 20_000
    cases = [
        ("a1" + " " * 20_000, "a1"),
        (" " * 20_000 + "?", "cannot read polynomial text at '?'"),
        ("a1 +" + " " * 20_000, "cannot read polynomial text at '+'"),
        (letters, f"cannot read polynomial text at {letters[:40]!r}..."),
        ("a1 + " + letters, f"cannot read polynomial text at {('+ ' + letters)[:40]!r}..."),
    ]
    for text, outcome in cases:
        start = time.perf_counter()
        try:
            got = str(parse_polynomial(text, 2))
        except ValueError as exc:
            got = str(exc)
        assert (got, time.perf_counter() - start < 1.0) == (outcome, True)


def test_refusals_quote_at_most_forty_characters():
    # each refusal that quotes the text, on a text of 90 000 characters:
    # the text is quoted as far as its 40th character, then "..."
    run, stray, sums = "a1 " * 30_000, "1 ? " + "a1 " * 30_000, "a1 + " * 18_000
    for text, message in [
        (run, f"expected an operator at {run[3:43]!r}..."),
        (stray, f"cannot read polynomial text at {stray[2:42]!r}..."),
        ("*" + run, f"polynomial text {('*' + run)[:40]!r}... starts with '*'"),
        (sums + "1/0", f"zero denominator in polynomial text {sums[:40]!r}..."),
        ("b" * 90_000 + "1", f"unknown variable {'b' * 40!r}..."),
    ]:
        with pytest.raises(ValueError) as info:
            parse_polynomial(text, 2)
        assert str(info.value) == message
    # a text of exactly 40 characters is quoted whole
    text = "a1 + " * 7 + "a2 a2"
    assert len(text) == 40
    with pytest.raises(ValueError, match=r"^expected an operator at 'a2'$"):
        parse_polynomial(text, 2)
    with pytest.raises(ValueError) as info:
        parse_polynomial("*" + text[1:], 2)
    assert str(info.value) == f"polynomial text {'*' + text[1:]!r} starts with '*'"


def test_constructor_refuses_malformed_exponent_keys():
    # stored, such keys print wrongly ("a1^1.5 + 3*a1 + 2" for the first
    # dict) or never meet their equal (adding a1 to it gives "3*a1 + a1")
    with pytest.raises(ValueError, match=r"^exponent key \(0, -1\) is not a tuple of non-negative ints$"):
        Polynomial(2, {(1,): 3, (0, -1): 2, (1.5, 0): 1})
    for key in [(0, -1), (1.5, 0), (True, 0), (0, False), "a1", 1, (1, "0"), (Fraction(1), 0)]:
        with pytest.raises(ValueError) as info:
            Polynomial(2, {key: 1})
        assert type(info.value) is ValueError
        assert str(info.value) == f"exponent key {key!r} is not a tuple of non-negative ints"
    for key in [(1,), (1, 0, 0), ()]:
        with pytest.raises(RankMismatch) as info:
            Polynomial(2, {(1, 0): 1, key: 2})
        assert str(info.value) == f"exponent key {key!r} has {len(key)} entries, not the rank 2"
    # a key of the right shape goes in, also when its coefficient is dropped
    assert str(Polynomial(2, {(1, 0): 3, (0, 0): 2}) + Polynomial(2, {(1, 0): 1})) == "4*a1 + 2"
    assert Polynomial(2, {(0, 7): 0}).is_zero
    assert Polynomial(0, {(): 5}) == 5


def test_divide_exact():
    a1 = (1, 0)
    both = (1, 1)
    p = poly("a1^2*a2 + a1*a2^2")
    q = divide_exact(p, both)
    assert q == poly("a1*a2")
    assert divide_exact(q, a1) == poly("a2")
    assert divide_exact(Polynomial.zero(2), a1).is_zero
    with pytest.raises(NotDivisible, match=r"^a1 \+ 1 is not divisible by a1$"):
        divide_exact(poly("a1 + 1"), a1)
    with pytest.raises(NotDivisible, match=r"^a1\^2 \+ a2 is not divisible by 3\*a1 - 2\*a2$"):
        divide_exact(poly("a1^2 + a2"), (3, -2))
    with pytest.raises(NotDivisible):
        divide_exact(poly("a1^2 + a2^2"), both)
    # a form that is no nonzero tuple of exact coordinates of the right
    # length ends in a one-line error of its documented kind
    bad_forms = [
        ((0, 0), ZeroForm, "zero form"),
        ((0.5, 1), ValueError, "0.5 is a float"),
        (("1", 0), ValueError, "'1' is a str"),
        ((1, 0, 0), RankMismatch, "rank 3"),
        ((1,), RankMismatch, "rank 1"),
    ]
    for form, kind, message in bad_forms:
        for target in (p, Polynomial.zero(2)):
            with pytest.raises(kind, match=message) as info:
                divide_exact(target, form)
            assert "\n" not in str(info.value)
    assert divide_exact(poly("a1^2 - 4*a2^2"), (Fraction(1, 2), -1)) == poly("2*a1 + 4*a2")


def test_divide_exact_random_products():
    rng = random.Random(5)
    forms = [(1, 0), (0, 1), (1, 1), (1, 2)]
    for _ in range(40):
        chosen = [rng.choice(forms) for _ in range(rng.randint(1, 4))]
        p = Polynomial.one(2)
        for f in chosen:
            p = p * Polynomial.linear(f)
        for f in chosen:
            p = divide_exact(p, f)
        assert p == 1
