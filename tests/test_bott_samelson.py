import json
import random
import re
from fractions import Fraction

import pytest

from bottsam import (
    BSWord,
    CapExceeded,
    CohClass,
    Gallery,
    IndexOutOfRange,
    LengthMismatch,
    NotInSpan,
    OrdinaryClass,
    Polynomial,
    RootSystem,
    WordMismatch,
    expand,
    integrate,
    multiply,
    multiply_by_localization,
    multiply_generator,
    parse_polynomial,
)
from bottsam.bott_samelson import restriction_table, table_lines
from reference import weights

A2 = RootSystem.from_label("A2")
B2 = RootSystem.from_label("B2")


def test_public_gallery_constructor_still_validates():
    with pytest.raises(ValueError):
        Gallery((0, 2))
    with pytest.raises(ValueError):
        Gallery((1, -1, 0))
    with pytest.raises(ValueError):
        Gallery.from_string("012")
    with pytest.raises(ValueError):
        Gallery((2,))
    with pytest.raises(ValueError):
        Gallery((1, "2"))
    # bits that are not 0/1 ints take the converting route
    mixed = Gallery((True, 0, "1"))
    assert mixed.bits == (1, 0, 1) and [type(b) for b in mixed.bits] == [int] * 3
    with pytest.raises(ValueError, match="gallery bits must be 0 or 1"):
        Gallery((1.5, 0))  # a float bit is refused, never truncated
    assert [type(b) for b in Gallery((True, False)).bits] == [int, int]
    assert Gallery(iter([0, 1])).bits == (0, 1) and Gallery(()).bits == ()
    assert Gallery([1, 0]) == Gallery((1, 0)) and Gallery([1, 0]).bits == (1, 0)
    # galleries built inside a product compare and hash like public ones
    product = multiply(CohClass.basis(word121(), g("001")), CohClass.basis(word121(), g("001")))
    assert set(product.coords) == {Gallery((0, 0, 1)), Gallery((1, 0, 1)), Gallery((0, 1, 1))}


def word121():
    return BSWord(A2, (1, 2, 1))


def g(text):
    return Gallery.from_string(text)


def p(text, rank=2):
    return parse_polynomial(text, rank)


def test_gallery_basics():
    e = g("101")
    assert len(e) == 3
    assert e.ones == 2
    assert e.support == (1, 3)
    assert str(e) == "101"
    assert Gallery.zero(3) == g("000")
    assert Gallery.unit(3, 2) == g("010")
    with pytest.raises(IndexOutOfRange):
        Gallery.unit(3, 4)
    with pytest.raises(ValueError):
        Gallery.from_string("102")


def test_gallery_order_and_leq():
    word = word121()
    order = [str(e) for e in word.galleries()]
    assert order == ["000", "100", "010", "001", "110", "101", "011", "111"]
    assert g("101").leq(g("111"))
    assert not g("101").leq(g("011"))
    assert g("000").leq(g("000"))
    with pytest.raises(LengthMismatch):
        g("10").leq(g("101"))


def test_word_validation():
    with pytest.raises(IndexOutOfRange):
        BSWord(A2, (1, 3))
    with pytest.raises(ValueError):
        BSWord(A2, ())
    with pytest.raises(CapExceeded):
        BSWord(A2, (1, 2) * 11)
    # words longer than the default cap are fine when asked for explicitly
    assert BSWord(A2, (1, 2) * 11, cap=30).n == 22


def test_localization_weights():
    word = word121()

    def alphas(e):
        return weights(word.rs, word.letters, e.bits)

    assert alphas(g("000")) == ((1, 0), (0, 1), (1, 0))
    # after switching on position 1, later weights pass through r1
    assert alphas(g("100")) == ((1, 0), (1, 1), (-1, 0))
    assert alphas(g("110"))[2] == (0, 1)


A2_TABLE = {
    "000": ["1", "1", "1", "1", "1", "1", "1", "1"],
    "100": ["0", "a1", "0", "0", "a1", "a1", "0", "a1"],
    "010": ["0", "0", "a2", "0", "a1 + a2", "0", "a2", "a1 + a2"],
    "001": ["0", "0", "0", "a1", "0", "-a1", "a1 + a2", "a2"],
    "110": ["0", "0", "0", "0", "a1^2 + a1*a2", "0", "0", "a1^2 + a1*a2"],
    "101": ["0", "0", "0", "0", "0", "-a1^2", "0", "a1*a2"],
    "011": ["0", "0", "0", "0", "0", "0", "a1*a2 + a2^2", "a1*a2 + a2^2"],
    "111": ["0", "0", "0", "0", "0", "0", "0", "a1^2*a2 + a1*a2^2"],
}


def test_sigma_against_worked_table():
    word = word121()
    gals = word.galleries()
    for e in gals:
        expected_row = A2_TABLE[str(e)]
        for k, ep in enumerate(gals):
            assert CohClass.basis(word, e).restriction(ep) == p(expected_row[k]), (str(e), str(ep))


def test_table_lines():
    word = BSWord(RootSystem.from_label("A1"), (1,))
    assert list(table_lines(restriction_table(word))) == [
        "# columns: 0, 1",
        "0: 1, 1",
        "1: 0, a1",
    ]


def test_restriction_of_a_class():
    word = word121()
    c = CohClass(word, {g("100"): p("a2"), g("001"): p("1")})
    # value at 101 picks up both coordinates: a2*sigma_100 + sigma_001
    assert c.restriction(g("101")) == p("a1*a2") + p("-a1")
    assert c.restriction(g("000")).is_zero
    assert CohClass.unit(word).restriction(g("111")) == 1


def test_class_normalization_and_equality():
    word = word121()
    assert CohClass(word, {g("100"): Polynomial.zero(2)}) == CohClass.zero(word)
    c = CohClass(word, {g("100"): 2})
    assert c.coords[g("100")] == Polynomial.constant(2, 2)
    assert (c + c.scaled(-1)).is_zero
    with pytest.raises(WordMismatch):
        c + CohClass.unit(BSWord(A2, (1, 2)))


@pytest.mark.parametrize("kind", [CohClass, OrdinaryClass], ids=lambda kind: kind.__name__)
def test_both_kinds_of_class_share_equality_and_sums(kind):
    """What CohClass and OrdinaryClass share: equality asks for the same
    word as well as the same coordinates (A2 and B2 give the same basis
    coordinates on the word 1,2,1), a class of one kind never equals one of
    the other, a zero sum keeps no coordinate, and a sum owns the
    coefficients it took from its right operand."""
    a2, b2 = BSWord(A2, (1, 2, 1)), BSWord(B2, (1, 2, 1))
    other = OrdinaryClass if kind is CohClass else CohClass
    for e in a2.galleries():
        assert kind.basis(a2, e).coords == kind.basis(b2, e).coords
        assert kind.basis(a2, e) != kind.basis(b2, e)
        assert kind.basis(a2, e) != other.basis(a2, e)
    assert kind.zero(a2) != kind.zero(b2)
    assert kind.zero(a2) != other.zero(a2)
    half = p("1/2*a1 + a2") if kind is CohClass else Fraction(1, 2)
    x, y = kind(a2, {g("100"): half}), kind(a2, {g("100"): half, g("011"): half})
    assert x + x.scaled(-1) == kind.zero(a2)
    total = x + y
    assert total == kind(a2, {g("100"): half * 2, g("011"): half})
    assert all(total.coords[e] is not c for e, c in y.coords.items())


@pytest.mark.parametrize("kind", [CohClass, OrdinaryClass], ids=lambda kind: kind.__name__)
def test_coords_is_a_new_view_keyed_by_gallery(kind):
    """A class keeps its coefficients by gallery mask; ``coords`` builds a
    new dict keyed by ``Gallery`` on each read, so writing into it leaves
    the class as it was."""
    word = word121()
    one = p("1") if kind is CohClass else 1
    c = kind(word, {g("100"): one, g("011"): one})
    view = c.coords
    assert view == {g("100"): one, g("011"): one}
    assert all(type(e) is Gallery and e.n == 3 for e in view)
    assert c.coords is not view
    view[g("111")] = one
    del view[g("100")]
    assert c == kind(word, {g("100"): one, g("011"): one})
    assert str(c) == str(kind(word, {g("011"): one, g("100"): one}))
    assert sorted(map(str, c.coords)) == ["011", "100"]


def test_expand_recovers_basis_square():
    word = word121()
    base = CohClass.basis(word, g("001"))
    values = {e: base.restriction(e) * base.restriction(e) for e in word.galleries()}
    assert expand(word, values) == CohClass(
        word, {g("001"): p("a1"), g("101"): p("-2"), g("011"): p("1")}
    )


def test_expand_rejects_values_outside_the_span():
    word = BSWord(RootSystem.from_label("A1"), (1,))
    # jumps by a constant across the edge: not a polynomial combination
    with pytest.raises(NotInSpan):
        expand(word, {g("0"): Polynomial.zero(1), g("1"): Polynomial.one(1)})
    # the message names the position, the gallery and the root, as text
    for label, letters, e, message in [
        ("A2", (1, 2), "11", "position 2 of gallery 11 is not a multiple of a1 + a2"),
        ("G2", (2, 1, 2), "111", "position 3 of gallery 111 is not a multiple of 3*a1 + 2*a2"),
    ]:
        with pytest.raises(NotInSpan, match=f"^the divided difference at {re.escape(message)}$"):
            expand(BSWord(RootSystem.from_label(label), letters), {g(e): 1})
    with pytest.raises(LengthMismatch):
        expand(word, {g("01"): 1})


def test_multiply_disjoint_supports():
    word = word121()
    prod = multiply(CohClass.basis(word, g("100")), CohClass.basis(word, g("001")))
    assert prod == CohClass.basis(word, g("101"))


def test_multiply_agrees_with_generator_rule():
    word = word121()
    out = multiply_generator(word, 3, g("101"))
    assert out == CohClass(word, {g("101"): p("-a1"), g("111"): p("1")})
    # off-bit case: just sets the bit
    assert multiply_generator(word, 2, g("100")) == CohClass.basis(word, g("110"))
    for i in (1, 2, 3):
        gen = CohClass.basis(word, Gallery.unit(3, i))
        for e in word.galleries():
            expected = multiply_by_localization(gen, CohClass.basis(word, e))
            assert multiply_generator(word, i, e) == expected


def test_multiply_generator_on_b2():
    word = BSWord(B2, (1, 2, 1, 2))
    for i in range(1, 5):
        gen = CohClass.basis(word, Gallery.unit(4, i))
        for e in word.galleries():
            expected = multiply_by_localization(gen, CohClass.basis(word, e))
            assert multiply_generator(word, i, e) == expected


def test_multiply_is_commutative_and_unital():
    word = BSWord(B2, (2, 1, 2))
    gals = word.galleries()
    unit = CohClass.unit(word)
    for e1 in gals:
        c1 = CohClass.basis(word, e1)
        assert multiply(unit, c1) == c1
        for e2 in gals:
            c2 = CohClass.basis(word, e2)
            assert multiply(c1, c2) == multiply(c2, c1)


def test_integrate_deltas_on_small_word():
    word = BSWord(A2, (1, 2))
    gals = word.galleries()
    for e in gals:
        base = CohClass.basis(word, e)
        for ep in gals:
            assert integrate(word, ep, base) == (1 if e == ep else 0)


def test_integrate_known_values():
    word = word121()
    # unit class over a one-bit subvariety: 1/a1 - 1/a1
    assert integrate(word, g("100"), CohClass.unit(word)) == 0
    assert integrate(word, g("111"), CohClass.basis(word, g("111"))) == 1
    # the integral is linear over polynomial coefficients
    c = CohClass(word, {g("110"): p("a1")})
    assert integrate(word, g("110"), c) == p("a1")
    assert integrate(word, g("111"), c) == 0
    with pytest.raises(WordMismatch):
        integrate(word, g("111"), CohClass.unit(BSWord(A2, (2, 1, 2))))


def test_integrate_linearity():
    word = BSWord(B2, (1, 2, 1))
    rng = random.Random(3)
    gals = word.galleries()
    for _ in range(5):
        e = rng.choice(gals)
        c1 = CohClass.basis(word, rng.choice(gals))
        c2 = CohClass.basis(word, rng.choice(gals))
        lhs = integrate(word, e, c1 + c2.scaled(3))
        rhs = integrate(word, e, c1) + 3 * integrate(word, e, c2)
        assert lhs == rhs


def test_cohclass_json_roundtrip():
    word = word121()
    c = CohClass(word, {g("001"): p("a1"), g("101"): p("-2"), g("011"): Polynomial.constant(2, Fraction(1, 3))})
    doc = c.to_json_dict()
    assert doc["word"] == [1, 2, 1]
    assert doc["coords"]["101"] == "-2"
    back = CohClass.from_json_dict(A2, json.loads(json.dumps(doc)))
    assert back == c
    with pytest.raises(ValueError):
        CohClass.from_json_dict(A2, {"coords": {}})


@pytest.mark.parametrize(
    "doc",
    [
        {"word": [1, 2, 1], "coords": []},
        {"word": [1, 2, 1], "coords": {"011": True}},
        {"word": [1, 2, 1], "coords": {"011": 1.0}},
        {"word": [1, "2", 1], "coords": {}},
        {"word": (1, 2, 1), "coords": {}},
    ],
)
def test_cohclass_json_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        CohClass.from_json_dict(A2, doc)


@pytest.mark.parametrize("coords", [{"01": "a1"}, {"0110": "1/2"}, {"011": 1, "01": "0"}])
def test_cohclass_json_gallery_of_the_wrong_length(coords):
    # zero coefficients are dropped, but only after the length check
    with pytest.raises(LengthMismatch):
        CohClass.from_json_dict(A2, {"word": [1, 2, 1], "coords": coords})
