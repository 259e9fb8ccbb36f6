import json
import random
from fractions import Fraction

import pytest

from bottsam import (
    BSWord,
    CohClass,
    Gallery,
    LengthMismatch,
    OrdinaryClass,
    RootSystem,
    WordMismatch,
    evaluate_at_origin,
    multiply,
    multiply_by_localization,
    ordinary_multiply,
    parse_polynomial,
    relations,
)
from reference import zero_test_keeps

A2 = RootSystem.from_label("A2")


def word121():
    return BSWord(A2, (1, 2, 1))


def g(text):
    return Gallery.from_string(text)


def x(word, text):
    return OrdinaryClass.basis(word, g(text))


def test_relations_text():
    rels = relations(word121())
    assert [str(r) for r in rels] == [
        "x1^2 = 0",
        "x2^2 - x1*x2 = 0",
        "x3^2 + 2*x1*x3 - x2*x3 = 0",
    ]
    a1_word = BSWord(RootSystem.from_label("A1"), (1,))
    assert [str(r) for r in relations(a1_word)] == ["x1^2 = 0"]


def test_relation_records():
    rels = relations(word121())
    assert rels[0].terms == ()
    assert rels[1].terms == ((1, -1),)
    assert rels[2].terms == ((1, 2), (2, -1))


def test_square_of_first_generator_vanishes():
    word = word121()
    assert ordinary_multiply(x(word, "100"), x(word, "100")).is_zero


def test_square_of_last_generator():
    word = word121()
    out = ordinary_multiply(x(word, "001"), x(word, "001"))
    assert out == OrdinaryClass(word, {g("101"): Fraction(-2), g("011"): Fraction(1)})
    assert str(out) == "-2*x_{101} + x_{011}"


def test_two_step_rewriting():
    # x2*x3 times x3 needs two rewrites before it is square-free
    word = word121()
    out = ordinary_multiply(x(word, "011"), x(word, "001"))
    assert out == OrdinaryClass(word, {g("111"): Fraction(-1)})


def test_a_product_whose_terms_cancel_is_zero_and_integral_sums_are_ints():
    # on the A1 word 1 1, x2^2 = -2*x1*x2: x2 times x2 + 2*x1 cancels
    word = BSWord(RootSystem.from_label("A1"), (1, 1))
    out = ordinary_multiply(x(word, "01"), OrdinaryClass(word, {g("01"): 1, g("10"): 2}))
    assert out == OrdinaryClass.zero(word) and out.is_zero
    out = ordinary_multiply(OrdinaryClass(word, {g("01"): Fraction(1, 2)}), x(word, "10").scaled(2))
    assert out == x(word, "11")
    assert [type(c) for c in out.coords.values()] == [int]


def test_disjoint_monomials_multiply_directly():
    word = word121()
    assert ordinary_multiply(x(word, "100"), x(word, "001")) == x(word, "101")
    assert ordinary_multiply(x(word, "000"), x(word, "010")) == x(word, "010")


def test_word_mismatch():
    with pytest.raises(WordMismatch):
        ordinary_multiply(x(word121(), "100"), x(BSWord(A2, (1, 2)), "10"))


def test_evaluate_at_origin_drops_positive_degree():
    word = word121()
    c = CohClass(
        word,
        {
            g("100"): parse_polynomial("a1", 2),
            g("110"): parse_polynomial("2", 2),
        },
    )
    assert evaluate_at_origin(c) == OrdinaryClass(word, {g("110"): Fraction(2)})
    assert evaluate_at_origin(CohClass.zero(word)).is_zero
    assert evaluate_at_origin(CohClass.basis(word, g("101"))) == x(word, "101")


def test_origin_evaluation_is_a_ring_map():
    word = word121()
    gals = word.galleries()
    for e1 in gals:
        for e2 in gals:
            lhs = evaluate_at_origin(
                multiply(CohClass.basis(word, e1), CohClass.basis(word, e2))
            )
            rhs = ordinary_multiply(
                OrdinaryClass.basis(word, e1), OrdinaryClass.basis(word, e2)
            )
            assert lhs == rhs, (str(e1), str(e2))


def test_str_constant_and_signs():
    word = word121()
    c = OrdinaryClass(word, {g("000"): Fraction(-1, 2), g("100"): Fraction(1)})
    assert str(c) == "-1/2 + x_{100}"
    assert str(OrdinaryClass.zero(word)) == "0"


def test_json_roundtrip():
    word = word121()
    c = OrdinaryClass(word, {g("101"): Fraction(-2), g("011"): Fraction(1, 3)})
    doc = c.to_json_dict()
    assert doc == {"word": [1, 2, 1], "coords": {"101": -2, "011": "1/3"}}
    back = OrdinaryClass.from_json_dict(A2, json.loads(json.dumps(doc)))
    assert back == c


@pytest.mark.parametrize(
    "value", [1.5, 2.0, True, None, "1/0", "a1", "a1 + 1", "1.5", "1e3", "1_000"]
)
def test_json_rejects_inexact_or_non_numeric_coefficients(value):
    doc = {"word": [1, 2, 1], "coords": {"011": value}}
    with pytest.raises(ValueError):
        OrdinaryClass.from_json_dict(A2, doc)


@pytest.mark.parametrize("coords", [{"01": 1}, {"0110": "1/2"}, {"011": 1, "01": 0}])
def test_json_gallery_of_the_wrong_length(coords):
    with pytest.raises(LengthMismatch):
        OrdinaryClass.from_json_dict(A2, {"word": [1, 2, 1], "coords": coords})


def test_basis_and_products_still_check_their_galleries():
    word = BSWord(A2, (1, 2, 1))
    for bits in [(0, 1), (0, 1, 1, 0)]:
        with pytest.raises(LengthMismatch):
            OrdinaryClass.basis(word, Gallery(bits))
    other = OrdinaryClass.basis(BSWord(A2, (1, 2)), Gallery((0, 1)))
    with pytest.raises(WordMismatch):
        ordinary_multiply(OrdinaryClass.basis(word, Gallery((0, 1, 1))), other)
    assert OrdinaryClass.basis(word, Gallery((0, 1, 1))).coords == {Gallery((0, 1, 1)): 1}


def read_constant(cls, text):
    """The coefficient a class document with one text coefficient holds,
    or None when the document is refused."""
    doc = {"word": [1, 2, 1], "coords": {"011": text}}
    try:
        c = cls.from_json_dict(A2, doc)
    except ValueError:
        return None
    value = c.coords.get(g("011"), 0)
    if cls is CohClass:
        assert not value or set(value.terms) == {(0, 0)}
        value = value.constant_term() if value else 0
    return (value, type(value))


def test_ordinary_and_equivariant_documents_read_the_same_constants():
    tokens = ["0", "1", "3", "12", "007", "/", ".", "e", "E", "_", "+", "-", "*",
              " ", "\t", "^", "2", "x", "(", ")", "1e3", "1.5", "inf"]
    rng = random.Random("coefficients")
    texts = ["1.5", "1e3", "1_000", " 3 ", "-3/6", "+ 4", "2*3/4", "1/2 - 1/2", ""]
    texts += ["".join(rng.choice(tokens) for _ in range(rng.randint(1, 6))) for _ in range(3000)]
    accepted = 0
    for text in texts:
        got = read_constant(OrdinaryClass, text)
        assert got == read_constant(CohClass, text), text
        accepted += got is not None
    assert 200 < accepted < len(texts) - 200
    for text in ("1.5", "1e3", "1_000"):
        assert read_constant(OrdinaryClass, text) is None


# basis pairs per word: every pair of the A2 and B2 longest words, a seeded
# sample of 400 on the others (of 4 096 on a 6-letter word)
ZERO_TEST_PAIRS = 400


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_the_zero_test_skips_only_pairs_whose_product_is_zero(label):
    """On the longest word (at most 6 letters here) and on one seeded
    non-reduced word: every basis pair the zero test rejects is zero under
    the independent route, evaluation at the origin of the localization
    product, and ``ordinary_multiply`` equals that route on every pair."""
    rs = RootSystem.from_label(label)
    rng = random.Random(f"zero test {label}")
    while True:
        letters = [rng.randint(1, rs.rank) for _ in range(rng.randint(4, 6))]
        if not rs.is_reduced(letters):
            break
    skipped = kept = 0
    for letters in (rs.longest_word(), letters):
        word = BSWord(rs, letters)
        gals = word.galleries()
        pairs = [(a, b) for a in gals for b in gals]
        if len(pairs) > ZERO_TEST_PAIRS:
            pairs = rng.sample(pairs, ZERO_TEST_PAIRS)
        for a, b in pairs:
            want = evaluate_at_origin(
                multiply_by_localization(CohClass.basis(word, a), CohClass.basis(word, b)))
            assert ordinary_multiply(OrdinaryClass.basis(word, a), OrdinaryClass.basis(word, b)) == want
            if zero_test_keeps(a, b):
                kept += a.mask & b.mask != 0
            else:
                assert want.is_zero, (letters, a, b)
                skipped += 1
    assert skipped >= 200 and kept >= 100
