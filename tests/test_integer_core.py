"""Coefficients are ``int`` on every integral route, and ``Fraction`` only
where the input carries a rational.

Every root is an integer vector, so restriction values, products of basis
classes, subword sums and quotient products have integer coefficients; the
ring keeps them as ``int``.  A ``p/q`` in polynomial text, or a quotient
that is not integral, gives an exact ``Fraction``; nothing gives a float.
"""

import random
from fractions import Fraction

import pytest

from bottsam import (
    BUILTIN_CARTAN,
    BSWord,
    BilleyQuery,
    CohClass,
    Gallery,
    OrdinaryClass,
    Polynomial,
    RootSystem,
    billey,
    divide_exact,
    evaluate_at_origin,
    format_polynomial,
    multiply,
    multiply_generator,
    ordinary_multiply,
    parse_polynomial,
)
from reference import weights

SYSTEMS = [RootSystem.from_label(label) for label in sorted(BUILTIN_CARTAN)] + [
    RootSystem(((2, 0), (0, 2)), "A1xA1")
]
IDS = [rs.label for rs in SYSTEMS]


def coefficients(p: Polynomial) -> list:
    return list(p.terms.values())


def assert_int(values) -> None:
    values = list(values)
    bad = [(type(c).__name__, c) for c in values if type(c) is not int]
    assert not bad, bad


def class_coefficients(c: CohClass) -> list:
    return [x for p in c.coords.values() for x in coefficients(p)]


@pytest.mark.parametrize("rs", SYSTEMS, ids=IDS)
def test_root_system_data_is_int(rs):
    assert_int(x for b in rs.positive_roots for x in b)
    for w in rs.weyl_elements()[:: max(1, len(rs.weyl_elements()) // 40)]:
        assert_int(x for row in w.rows for x in row)
    assert_int(Polynomial.linear(tuple(Fraction(k, 1) for k in range(rs.rank))).terms.values())


@pytest.mark.parametrize("rs", SYSTEMS, ids=IDS)
def test_products_restrictions_and_subword_sums_are_int(rs):
    rng = random.Random(f"integer-core:{rs.label}")
    for _ in range(3):
        n = rng.randint(3, 7)
        word = BSWord(rs, [rng.randint(1, rs.rank) for _ in range(n)])
        gals = word.galleries()
        for e in rng.sample(gals, min(6, len(gals))):
            assert_int(x for a in weights(rs, word.letters, e.bits) for x in a)
            for ep in rng.sample(gals, min(6, len(gals))):
                assert_int(coefficients(CohClass.basis(word, e).restriction(ep)))
            for i in range(1, n + 1):
                assert_int(class_coefficients(multiply_generator(word, i, e)))
        for _ in range(8):
            a, b = rng.choice(gals), rng.choice(gals)
            product = multiply(CohClass.basis(word, a), CohClass.basis(word, b))
            assert_int(class_coefficients(product))
            assert_int(coefficients(product.restriction(rng.choice(gals))))
            quotient = ordinary_multiply(
                OrdinaryClass.basis(word, a), OrdinaryClass.basis(word, b)
            )
            assert_int(quotient.coords.values())
            assert_int(evaluate_at_origin(product).coords.values())
            assert quotient == evaluate_at_origin(product)
    lw = rs.longest_word()
    for w in rs.weyl_elements()[:: max(1, len(rs.weyl_elements()) // 40)]:
        assert_int(coefficients(billey(BilleyQuery(rs, w, lw))))


def test_rational_text_keeps_fractions():
    p = parse_polynomial("1/2*a1 - 3/4", 2)
    assert p.terms == {(1, 0): Fraction(1, 2), (0, 0): Fraction(-3, 4)}
    assert all(type(c) is Fraction for c in coefficients(p))
    assert format_polynomial(p) == "1/2*a1 - 3/4"

    q = parse_polynomial("4/2*a1", 2)
    assert q == parse_polynomial("2*a1", 2) == 2 * Polynomial.linear((1, 0))
    assert_int(coefficients(q))
    assert format_polynomial(q) == "2*a1"
    # an integral term before the last one is an int too
    q = parse_polynomial("6/3*a2 - 1/2*a1", 2)
    assert q.terms == {(0, 1): 2, (1, 0): Fraction(-1, 2)} and type(q.terms[0, 1]) is int

    # halves that add up to an integer come back as an int
    r = parse_polynomial("1/2*a1 + 1/2*a1 - 6/3", 2)
    assert r.terms == {(1, 0): 1, (0, 0): -2}
    assert_int(coefficients(r))
    assert format_polynomial(r) == "a1 - 2"


def test_inexact_quotient_is_a_fraction_and_exact_one_an_int():
    a1 = parse_polynomial("a1", 2)
    quot = divide_exact(a1 * a1 + a1, (2, 0))
    assert quot == parse_polynomial("1/2*a1 + 1/2", 2)
    assert all(type(c) is Fraction for c in coefficients(quot))
    assert format_polynomial(quot) == "1/2*a1 + 1/2"

    even = divide_exact(parse_polynomial("4*a1^2 - 6*a1*a2", 2), (2, -3))
    assert even == 2 * a1
    assert_int(coefficients(even))
    assert format_polynomial(even) == "2*a1"

    negative = divide_exact(parse_polynomial("-3*a1^2 + 3*a2^2", 2), (-1, 1))
    assert_int(coefficients(negative))
    assert format_polynomial(negative) == "3*a1 + 3*a2"


def test_no_float_anywhere():
    cases = [
        parse_polynomial("1/2*a1 - 3/4", 2),
        parse_polynomial("4/2*a1", 2),
        divide_exact(parse_polynomial("a1^2 + a1", 2), (2, 0)),
        divide_exact(parse_polynomial("7*a1*a2 + 5*a2", 2), (0, 3)),
        Polynomial.constant(2, Fraction(6, 3)) * parse_polynomial("1/3*a2", 2),
    ]
    for p in cases:
        assert not any(isinstance(c, float) for c in coefficients(p)), p
    assert_int([Polynomial.constant(2, Fraction(6, 3)).constant_term()])
    assert_int([Polynomial.zero(2).constant_term(), Polynomial.one(2).constant_term()])
    word = BSWord(RootSystem.from_label("A2"), (1, 2, 1))
    x, y = Gallery.from_string("001"), Gallery.from_string("100")
    half = OrdinaryClass(word, {x: Fraction(2, 4), y: Fraction(4, 2)})
    assert half.coords == {x: Fraction(1, 2), y: 2}
    assert [type(c) for c in half.coords.values()] == [Fraction, int]
    assert str(half) == "2*x_{100} + 1/2*x_{001}"


# a text is read by the polynomial grammar (the JSON readers), never by Fraction
TEXTS = ["1e3", "1.5", "1_000", " 3 ", "2/4", "0"]


@pytest.mark.parametrize("value", [0.1, 0.5, 2.0, 0.0, float("inf"), float("nan"), *TEXTS])
def test_constructors_refuse_a_float_coefficient_alike(value):
    word = BSWord(RootSystem.from_label("A2"), (1, 2, 1))
    e = Gallery.from_string("001")
    constructors = [
        lambda: Polynomial(2, {(1, 0): value}),
        lambda: Polynomial.constant(2, value),
        lambda: OrdinaryClass(word, {e: value}),
        lambda: CohClass(word, {e: value}),
    ]
    for build in constructors:
        with pytest.raises(ValueError, match="is a (float|str); give an int or a Fraction") as info:
            build()
        assert "\n" not in str(info.value)
    # exact values of every kind still go in
    half = Fraction(1, 2)
    assert CohClass(word, {e: half}).coords == {e: Polynomial.constant(2, half)}
    assert OrdinaryClass(word, {e: 3}).coords == {e: 3}
    assert Polynomial(2, {(1, 0): Fraction(4, 2), (0, 1): 0}).terms == {(1, 0): 2}
