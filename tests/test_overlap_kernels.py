"""The Schubert-layer kernels against the routes they replaced.

``ordinary_multiply`` starts each product at the union of its galleries and
rewrites only at their overlap; its reference is the one-generator-at-a-time
loop, run here on the relations that ``ordinary.relations`` prints.
``billey`` reads its weak interval from a table kept per root system and
packs its monomials into bytes; a sweep over tuple monomials and the plain
subword enumeration check it, with one-byte and two-byte packing.
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
    OrdinaryClass,
    Polynomial,
    RootSystem,
    WeylElement,
    billey,
    multiply,
    ordinary_multiply,
    parse_polynomial,
    relations,
)
from bottsam.schubert import _weak_interval
from reference import betas

CUSTOM = {
    "A1xA1": ((2, 0), (0, 2)),
    "A1xB2": ((2, 0, 0), (0, 2, -1), (0, -2, 2)),
}
SYSTEMS = [RootSystem.from_label(label) for label in sorted(BUILTIN_CARTAN)] + [
    RootSystem(matrix, label) for label, matrix in CUSTOM.items()
]
IDS = [rs.label for rs in SYSTEMS]


def fresh(rs):
    """A root system of the same Cartan matrix with empty tables."""
    return RootSystem(rs.cartan, rs.label)


# ---- ordinary_multiply -------------------------------------------------------


def reference_multiply(c1, c2):
    """The product one generator at a time: ``x_a`` times each ``x_i`` over
    ``supp(b)`` in position order, ``x_i x_e`` being ``x_{e+i}`` with ``i``
    off in ``e`` and ``-sum_{j<i} a_{j,i} x_j x_e`` by the relation of
    position ``i`` otherwise."""
    assert c1.word == c2.word
    terms = [r.terms for r in relations(c1.word)]
    memo = {}

    def times(i, e):
        if not e[i - 1]:
            return {e[: i - 1] + (1,) + e[i:]: 1}
        out = memo.get((i, e))
        if out is None:
            out = {}
            for j, a in terms[i - 1]:
                for f, c in times(j, e).items():
                    out[f] = out.get(f, 0) - a * c
            memo[i, e] = out
        return out

    acc = {}
    for e2, q2 in c2.coords.items():
        for e1, q1 in c1.coords.items():
            cur = {e1.bits: 1}
            for i in e2.support:
                nxt = {}
                for e, c in cur.items():
                    for f, d in times(i, e).items():
                        nxt[f] = nxt.get(f, 0) + c * d
                cur = nxt
            for f, c in cur.items():
                acc[f] = acc.get(f, 0) + q1 * q2 * c
    return OrdinaryClass(c1.word, {Gallery(f): c for f, c in acc.items()})


def exact_types(c):
    """Every coefficient is an ``int``, or a ``Fraction`` that is not one."""
    return all(type(v) is int or v.denominator != 1 for v in c.coords.values())


def random_class(rng, word, size, fractions):
    coords = {}
    for _ in range(size):
        e = Gallery(tuple(rng.randint(0, 1) for _ in range(word.n)))
        q = rng.choice([-3, -1, 1, 2, 5])
        coords[e] = Fraction(q, rng.choice([1, 2, 3, 4])) if fractions else q
    return OrdinaryClass(word, coords)


@pytest.mark.parametrize("rs", SYSTEMS, ids=IDS)
def test_overlap_kernel_matches_the_one_generator_loop(rs):
    rng = random.Random(f"overlap:{rs.label}")
    for n in (1, 4, 8, 12):
        word = BSWord(rs, [rng.randint(1, rs.rank) for _ in range(n)])
        full = Gallery((1,) * n)
        pairs = [(full, full), (full, Gallery.zero(n))]
        pairs += [
            (Gallery(tuple(rng.randint(0, 1) for _ in range(n))),
             Gallery(tuple(rng.randint(0, 1) for _ in range(n))))
            for _ in range(12)
        ]
        for a, b in pairs:
            c1, c2 = OrdinaryClass.basis(word, a), OrdinaryClass.basis(word, b)
            got = ordinary_multiply(c1, c2)
            assert got == reference_multiply(c1, c2), (word.letters, a, b)
            assert got == ordinary_multiply(c2, c1)
            assert all(type(v) is int for v in got.coords.values())
        zero = OrdinaryClass.zero(word)
        for fractions in (False, True):
            for _ in range(4):
                c1 = random_class(rng, word, rng.randint(2, 5), fractions)
                c2 = random_class(rng, word, rng.randint(2, 5), fractions)
                got = ordinary_multiply(c1, c2)
                assert got == reference_multiply(c1, c2), (word.letters, c1, c2)
                assert exact_types(got)
                assert ordinary_multiply(c1, zero) == zero == ordinary_multiply(zero, c2)


def test_fractions_that_cancel_to_integers_are_stored_as_int():
    word = BSWord(RootSystem.from_label("B2"), (1, 2, 1))
    half = OrdinaryClass(word, {Gallery((1, 0, 0)): Fraction(1, 2), Gallery((0, 1, 0)): Fraction(3, 2)})
    two = OrdinaryClass(word, {Gallery((0, 1, 1)): 2})
    got = ordinary_multiply(half, two)
    assert got == reference_multiply(half, two) and not got.is_zero
    assert all(type(v) is int for v in got.coords.values())
    # terms that cancel leave no zero coordinate behind
    minus = OrdinaryClass(word, {Gallery((1, 0, 0)): Fraction(-1, 2), Gallery((0, 1, 0)): Fraction(-3, 2)})
    assert ordinary_multiply(half + minus, two).is_zero
    assert (ordinary_multiply(half, two) + ordinary_multiply(minus, two)).is_zero


# ---- billey -------------------------------------------------------------------


def plain_subword_sum(rs, v_word, w):
    """Every increasing subword of ``v_word`` of length ``l(w)`` that
    multiplies to ``w``, times the product of the betas at its positions."""
    roots = [Polynomial.linear(b) for b in betas(rs, v_word)]
    total = Polynomial.zero(rs.rank)
    for on in itertools.combinations(range(len(v_word)), rs.length(w)):
        if rs.weyl_from_word([v_word[j] for j in on]) == w:
            term = Polynomial.one(rs.rank)
            for j in on:
                term = term * roots[j]
            total = total + term
    return total


def tuple_sweep(rs, v_word, w):
    """:func:`billey`'s pass over the weak interval below ``w``, carrying
    polynomials with exponent-tuple monomials: each reached element looks
    up its own up-edge at each letter."""
    edges, identity, count = _weak_interval(rs, w)
    if identity is None:
        return Polynomial.zero(rs.rank)
    up = [{} for _ in range(count)]
    for i, pairs in enumerate(edges, 1):
        for x, u in pairs:
            up[x][i] = u
    states = {identity: {(0,) * rs.rank: 1}}
    for i, beta in zip(v_word, betas(rs, v_word)):
        for x, poly in list(states.items()):
            u = up[x].get(i)
            if u is None:
                continue
            acc = states.setdefault(u, {})
            for mono, c in poly.items():
                for k, b in enumerate(beta):
                    if b:
                        m = mono[:k] + (mono[k] + 1,) + mono[k + 1 :]
                        acc[m] = acc.get(m, 0) + c * b
    return Polynomial(rs.rank, states.get(0, {}))


@pytest.mark.parametrize("rs", SYSTEMS, ids=IDS)
def test_billey_on_a_warm_table_matches_a_fresh_system_and_the_enumeration(rs):
    rng = random.Random(f"warm:{rs.label}")
    lw = rs.longest_word()
    elements = [WeylElement.identity(rs.rank), rs.weyl_from_word(rs.longest_word())]
    elements += [rs.weyl_from_word([rng.randint(1, rs.rank) for _ in range(rng.randint(1, len(lw)))])
                 for _ in range(8)]
    for round_ in range(2):  # the second round reads every interval from the table
        for w in elements:
            v = lw[: rng.randint(max(0, len(lw) - 4), len(lw))]
            warm = billey(BilleyQuery(rs, w, v))
            assert warm == billey(BilleyQuery(fresh(rs), w, v))
            assert warm == plain_subword_sum(rs, v, w), (round_, v, w)
            assert all(type(c) is int for c in warm.terms.values())
    assert {w.rows for w in elements} <= rs._intervals.keys()


def test_two_byte_packing_on_a_270_letter_word():
    rank = 23
    cartan = [[2 if j == k else -1 if abs(j - k) == 1 else 0 for k in range(rank)] for j in range(rank)]
    rs = RootSystem(cartan, "A23")
    assert len(rs.positive_roots) == 276
    v = rs.longest_word()[:270]
    rng = random.Random("A23")
    # subwords of v, so every value is nonzero; exponents stay small, but
    # len(v) takes two bytes, so every monomial is packed two bytes wide
    for on in (sorted(rng.sample(range(270), 4)), [3, 90, 180], [0, 269], [7], []):
        w = rs.weyl_from_word([v[j] for j in on])
        got = billey(BilleyQuery(rs, w, v))
        assert got == tuple_sweep(rs, v, w) and not got.is_zero, on
        assert all(type(c) is int for c in got.terms.values())
    # multiply on a word of v's letters packs two bytes per exponent too,
    # here with exponents above one byte: no position lies below the first,
    # so sigma_1 times a class at the first gallery is its value there times it
    word, e = BSWord(rs, v, cap=270), Gallery.unit(270, 1)
    p = parse_polynomial("a1^260*a2 - 3*a23^300", rank)
    got = multiply(CohClass(word, {e: p}), CohClass.basis(word, e))
    assert got == CohClass(word, {e: p * CohClass.basis(word, e).restriction(e)})
