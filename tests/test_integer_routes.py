"""The integer routes of the Schubert layer against independent ones.

``billey`` (a forward pass over the weak interval) is compared with the
plain subword sum; ``ordinary_multiply`` (the generator corrections at the
overlap) with the localization product evaluated at the origin, which
shares no table with it, and with ``multiply`` evaluated there; and the
integer descent walks of the root system with the inversion count and with
products of reflection matrices built from the Cartan matrix
(``reference``).
"""

import itertools
import random
from fractions import Fraction

import pytest

from bottsam import (
    BUILTIN_CARTAN,
    BSWord,
    BilleyQuery,
    CohClass,
    Gallery,
    IndexOutOfRange,
    NotReducedWord,
    OrdinaryClass,
    RankMismatch,
    Polynomial,
    RootSystem,
    WeylElement,
    billey,
    check_billey_identity,
    evaluate_at_origin,
    fiber,
    multiply,
    multiply_by_localization,
    ordinary_multiply,
)
from bottsam.schubert import _reduced_walk, check_billey_identities
from reference import act, betas, element

CUSTOM = {
    "A1xA1": ((2, 0), (0, 2)),
    "A1xB2": ((2, 0, 0), (0, 2, -1), (0, -2, 2)),
}
SYSTEMS = [RootSystem.from_label(label) for label in sorted(BUILTIN_CARTAN)] + [
    RootSystem(matrix, label) for label, matrix in CUSTOM.items()
]
IDS = [rs.label for rs in SYSTEMS]


def inversions(rs, w):
    """The positive roots that ``w`` sends to negative roots, by applying
    its matrix to each of them."""
    return sum(any(c < 0 for c in act(w.rows, beta)) for beta in rs.positive_roots)


def subword_sum(rs, v_word, w):
    """Billey's formula as written: every set of positions of ``v_word`` of
    size ``l(w)`` whose reflections multiply to ``w``, times the product of
    the betas at those positions."""
    roots = betas(rs, v_word)
    total = Polynomial.zero(rs.rank)
    for on in itertools.combinations(range(len(v_word)), rs.length(w)):
        if element(rs, [v_word[j] for j in on]) == w:
            term = Polynomial.one(rs.rank)
            for j in on:
                term = term * Polynomial.linear(roots[j])
            total = total + term
    return total


@pytest.mark.parametrize("rs", SYSTEMS, ids=IDS)
def test_billey_matches_the_subword_sum_on_longest_word_prefixes(rs):
    rng = random.Random(f"billey:{rs.label}")
    lw = rs.longest_word()
    w0 = element(rs, lw)
    identity = WeylElement.identity(rs.rank)
    zeros = 0
    for n in range(len(lw) + 1):
        v = lw[:n]
        elements = [identity, w0]
        elements += [element(rs, (i,)) for i in range(1, rs.rank + 1)]
        for _ in range(2):
            word = [rng.randint(1, rs.rank) for _ in range(rng.randint(1, max(1, n)))]
            elements.append(rs.weyl_from_word(word))
            # a subword of v: below v, so its value is nonzero
            on = sorted(rng.sample(range(n), rng.randint(n // 2, n)))
            elements.append(rs.weyl_from_word([v[j] for j in on]))
        for w in elements:
            value = billey(BilleyQuery(rs, w, v))
            assert value == subword_sum(rs, v, w), (v, w)
            zeros += value.is_zero
        assert billey(BilleyQuery(rs, identity, v)) == 1
    # w0 at w0 is the product of all betas, and nonzero
    full = billey(BilleyQuery(rs, w0, lw))
    product = Polynomial.one(rs.rank)
    for beta in betas(rs, lw):
        product = product * Polynomial.linear(beta)
    assert full == product and not full.is_zero
    assert zeros > 0  # w0 below the full word, at least


def test_billey_keeps_its_tables_per_root_system():
    # B3 and C3 share the rank and the longest word, so the same words of v
    # and w reach both; their betas and intervals differ
    b3, c3 = RootSystem.from_label("B3"), RootSystem.from_label("C3")
    lw = b3.longest_word()
    assert lw == c3.longest_word() == (1, 2, 1, 3, 2, 1, 3, 2, 3)
    rng = random.Random("B3/C3")
    queries = [(tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 6))), lw[: rng.randint(5, 9)])
               for _ in range(12)]
    expected = {(rs.label, w, v): subword_sum(rs, v, element(rs, w))
                for rs in (b3, c3) for w, v in queries}
    assert any(expected["B3", w, v] != expected["C3", w, v] for w, v in queries)
    for _ in range(2):  # the second round reads both systems' tables
        for w, v in queries:
            for rs in (b3, c3):
                got = billey(BilleyQuery(rs, rs.weyl_from_word(w), v))
                assert got == expected[rs.label, w, v], (rs.label, w, v)


@pytest.mark.parametrize("rs", SYSTEMS, ids=IDS)
def test_reduced_galleries_and_fibers_match_the_filter_over_all_galleries(rs):
    word = BSWord(rs, rs.longest_word())
    letters = word.letters
    gals = word.galleries()
    reduced = [e for e in gals if rs.is_reduced([letters[k - 1] for k in e.support])]
    walk = [Gallery._of_mask(m, word.n) for m, _ in _reduced_walk(word)]
    walk.sort(key=Gallery.sort_key)
    assert walk == reduced
    for e in reduced[:: max(1, len(reduced) // 6)]:
        w = element(rs, [letters[k - 1] for k in e.support])
        by_definition = {g for g in gals if g.ones == e.ones
                         and rs.weyl_from_word([letters[k - 1] for k in g.support]) == w}
        assert fiber(word, w) == by_definition and e in by_definition


@pytest.mark.parametrize("rs", SYSTEMS, ids=IDS)
def test_ordinary_multiply_matches_the_product_at_the_origin(rs):
    rng = random.Random(f"ordinary:{rs.label}")
    for _ in range(4):
        n = rng.randint(1, 10)
        word = BSWord(rs, [rng.randint(1, rs.rank) for _ in range(n)])
        for _ in range(6):
            a = Gallery(tuple(rng.randint(0, 1) for _ in range(n)))
            b = Gallery(tuple(rng.randint(0, 1) for _ in range(n)))
            ca, cb = CohClass.basis(word, a), CohClass.basis(word, b)
            expected = evaluate_at_origin(multiply_by_localization(ca, cb))
            got = ordinary_multiply(
                OrdinaryClass.basis(word, a), OrdinaryClass.basis(word, b)
            )
            assert got == expected, (word, a, b)
            assert evaluate_at_origin(multiply(ca, cb)) == expected, (word, a, b)
        # combinations with non-integer rational coefficients
        classes = []
        for _ in range(2):
            coords = {
                Gallery(tuple(rng.randint(0, 1) for _ in range(n))): Fraction(
                    rng.choice([-5, -3, -1, 1, 2, 7]), rng.choice([2, 3, 4])
                )
                for _ in range(3)
            }
            constants = {e: Polynomial.constant(rs.rank, c) for e, c in coords.items()}
            classes.append((OrdinaryClass(word, coords), CohClass(word, constants)))
        (x, cx), (y, cy) = classes
        assert ordinary_multiply(x, y) == evaluate_at_origin(multiply_by_localization(cx, cy))
        assert ordinary_multiply(x, y) == evaluate_at_origin(multiply(cx, cy))
        assert ordinary_multiply(x, y) == ordinary_multiply(y, x)


@pytest.mark.parametrize("rs", SYSTEMS, ids=IDS)
def test_descent_walks_match_inversion_counts_and_matrix_products(rs):
    rng = random.Random(f"walks:{rs.label}")
    top = len(rs.positive_roots) + 2
    reduced = 0
    for _ in range(300):
        word = tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(0, top)))
        w = rs.weyl_from_word(word)
        assert w == element(rs, word)
        assert rs.length(w) == inversions(rs, w)
        assert rs.is_reduced(word) == (rs.length(w) == len(word))
        reduced += rs.is_reduced(word)
    assert reduced > 0
    lw = rs.longest_word()
    assert rs.is_reduced(lw)
    assert rs.length(element(rs, lw)) == len(rs.positive_roots)
    # the betas of a reduced word of w0 are its inversions: every positive root once
    assert sorted(betas(rs, lw)) == sorted(rs.positive_roots)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_fiber_and_identities_over_every_gallery(label):
    rs = RootSystem.from_label(label)
    word = BSWord(rs, rs.longest_word())
    gals = word.galleries()
    reduced = [e for e in gals if rs.is_reduced([word.letters[k - 1] for k in e.support])]
    for w in rs.weyl_elements():
        by_definition = {e for e in gals if e.ones == rs.length(w)
                         and rs.weyl_from_word([word.letters[k - 1] for k in e.support]) == w}
        assert fiber(word, w) == by_definition
        agree = check_billey_identities(word, w, reduced)
        assert agree == [True] * len(reduced)
    w = rs.weyl_from_word((1,))
    assert check_billey_identities(word, w, reduced[:3]) == [
        check_billey_identity(word, w, e) for e in reduced[:3]
    ]


def test_non_reduced_and_out_of_range_words_still_raise():
    a2 = RootSystem.from_label("A2")
    w = a2.weyl_from_word((1,))
    for v in [(1, 1), (2, 1, 2, 1), (1, 2, 1, 1)]:
        with pytest.raises(NotReducedWord):
            BilleyQuery(a2, w, v)
    # a bad letter is reported even after a non-reduced prefix
    for v in [(3,), (0, 1), (1, 1, 5)]:
        with pytest.raises(IndexOutOfRange):
            BilleyQuery(a2, w, v)
        with pytest.raises(IndexOutOfRange):
            a2.is_reduced(v)
        with pytest.raises(IndexOutOfRange):
            a2.weyl_from_word(v)
    # a letter that is not an integer is refused, never truncated or parsed
    calls = [a2.is_reduced, a2.weyl_from_word,
             lambda v: BilleyQuery(a2, w, v), lambda v: BSWord(a2, v)]
    for v in [(1.5, 2), (1.0, 2), (Fraction(3, 2),), ("1", 2), "12"]:
        for call in calls:
            with pytest.raises(IndexOutOfRange, match="not an integer") as info:
                call(v)
            assert "\n" not in str(info.value)
    # an element of another rank is refused, not read as a wrong matrix
    a3 = RootSystem.from_label("A3").weyl_from_word((1, 3))
    with pytest.raises(RankMismatch):
        BilleyQuery(a2, a3, (1, 2))
    with pytest.raises(RankMismatch):
        a2.length(a3)
    # an element of the same rank outside the group is no subword product
    b2 = RootSystem.from_label("B2").weyl_from_word((1, 2, 1, 2))
    assert billey(BilleyQuery(a2, b2, (1, 2, 1))).is_zero
