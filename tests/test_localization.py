"""The localization routes: ``expand``, ``integrate_by_localization`` and
``multiply_by_localization`` all push fixed-point values down the word's
tower of P^1-bundles by exact division (``tests/test_closed_rules.py``
compares the last two with the closed rules).

The butterfly is checked against the classes whose values it is fed, against
the flat Atiyah-Bott sum evaluated at rational points, and on values that are
not those of a class, and the weights behind them against the reference
matrices.  Runs on the nine built-in types and on the reducible A1×A1 and
A1×B2 Cartan matrices.
"""

import random
from fractions import Fraction

import pytest

from bottsam import (
    BUILTIN_CARTAN,
    BSWord,
    CohClass,
    Gallery,
    NotInSpan,
    Polynomial,
    RootSystem,
    divide_exact,
    expand,
    integrate,
    integrate_by_localization,
    multiply,
    multiply_by_localization,
)
from bottsam.bott_samelson import restriction_table
from bottsam.schubert import check_billey_identities
from reference import weights

SYSTEMS = {label: RootSystem.from_label(label) for label in BUILTIN_CARTAN}
SYSTEMS["A1xA1"] = RootSystem([[2, 0], [0, 2]])
SYSTEMS["A1xB2"] = RootSystem([[2, 0, 0], [0, 2, -1], [0, -2, 2]])


def random_word(rng, rs, max_letters=5):
    n = rng.randint(1, max_letters)
    return BSWord(rs, [rng.randint(1, rs.rank) for _ in range(n)])


def random_polynomial(rng, rank, degree=2):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = [0] * rank
        for _ in range(rng.randint(0, degree)):
            exp[rng.randrange(rank)] += 1
        terms[tuple(exp)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Polynomial(rank, terms)


def random_class(rng, word):
    gals = word.galleries()
    coords = {e: random_polynomial(rng, word.rs.rank) for e in rng.sample(gals, min(4, len(gals)))}
    return CohClass(word, coords)


def nonzero_values(c):
    """The class's values, leaving out the galleries where it vanishes."""
    values = {e: c.restriction(e) for e in c.word.galleries()}
    return {e: v for e, v in values.items() if not v.is_zero}


def cases(label, count):
    rs = SYSTEMS[label]
    rng = random.Random(f"localization {label}")
    for _ in range(count):
        word = random_word(rng, rs)
        yield rng, word, random_class(rng, word)


@pytest.mark.parametrize("label", sorted(SYSTEMS))
def test_expand_returns_the_class_of_its_values(label):
    for _, word, c in cases(label, 8):
        assert expand(word, nonzero_values(c)) == c, (word, str(c))


@pytest.mark.parametrize("label", sorted(SYSTEMS))
def test_missing_galleries_read_as_zero(label):
    # alpha_1 is the same root at every fixed point, so alpha_1 * sigma_0 - sigma_{10..0}
    # vanishes at every gallery with bit 1 on, while both coordinates are nonzero
    rng = random.Random(f"zeros {label}")
    for _ in range(4):
        word = random_word(rng, SYSTEMS[label])
        first = Polynomial.linear(weights(word.rs, word.letters, Gallery.zero(word.n).bits)[0])
        c = CohClass(word, {Gallery.zero(word.n): first, Gallery.unit(word.n, 1): -1})
        values = nonzero_values(c)
        assert all(e.bits[0] == 0 for e in values)
        assert expand(word, values) == c


@pytest.mark.parametrize("label", sorted(SYSTEMS))
def test_perturbing_one_value_leaves_the_span(label):
    for rng, word, c in cases(label, 6):
        values = {e: c.restriction(e) for e in word.galleries()}
        e = rng.choice(word.galleries())
        # a jump with a nonzero constant term is divisible by no root
        jump = random_polynomial(rng, word.rs.rank)
        values[e] = values[e] + jump + (1 - jump.constant_term())
        with pytest.raises(NotInSpan):
            expand(word, values)


def at(p, point):
    out = Fraction(0)
    for exp, coef in p.terms.items():
        term = Fraction(coef)
        for x, k in zip(point, exp):
            term *= x**k
        out += term
    return out


def flat_integral(word, e, c, point):
    """Sum over e' <= e of (-1)^(|e| - |e'|) c(e') / prod_{i in e} alpha_i(e'),
    evaluated at ``point``, where every root is nonzero."""
    total = Fraction(0)
    for ep in word.galleries():
        if not ep.leq(e):
            continue
        den = Fraction(1)
        alphas = weights(word.rs, word.letters, ep.bits)
        for i in e.support:
            den *= sum(a * x for a, x in zip(alphas[i - 1], point))
        total += (-1) ** (e.ones - ep.ones) * at(c.restriction(ep), point) / den
    return total


@pytest.mark.parametrize("label", sorted(SYSTEMS))
def test_integral_equals_the_flat_atiyah_bott_sum(label):
    for rng, word, c in cases(label, 6):
        point = [rng.randint(1, 9) for _ in range(word.rs.rank)]
        for e in rng.sample(word.galleries(), min(5, 2**word.n)):
            value = integrate_by_localization(word, e, c)
            assert at(value, point) == flat_integral(word, e, c, point), (word, str(e))



@pytest.mark.parametrize("label", sorted(SYSTEMS))
def test_one_bit_classes_restrict_to_the_reference_weights(label):
    rs = SYSTEMS[label]
    rng = random.Random(f"weights {label}")
    for n in range(1, 7):
        word = BSWord(rs, [rng.randint(1, rs.rank) for _ in range(n)])
        for ep in word.galleries():
            alphas = weights(word.rs, word.letters, ep.bits)
            for i in ep.support:
                one_bit = CohClass.basis(word, Gallery.unit(word.n, i))
                assert one_bit.restriction(ep) == Polynomial.linear(alphas[i - 1])


@pytest.mark.parametrize("label", sorted(SYSTEMS))
def test_basis_values_satisfy_the_gallery_gkm_condition(label):
    """For galleries b and b' that differ only in bit k, sigma_e(b) -
    sigma_e(b') is a multiple of alpha_k(b), for every basis class e: the
    values from CohClass.restriction, the labels alpha_k(b) from the
    reference matrices."""
    rs = SYSTEMS[label]
    rng = random.Random(f"gallery gkm {label}")
    nonzero = 0
    for letters in (rs.longest_word()[:5], [rng.randint(1, rs.rank) for _ in range(5)]):
        word = BSWord(rs, letters)
        n, gals = word.n, word.galleries()
        labels = {b.bits: weights(rs, word.letters, b.bits) for b in gals}
        for e in gals:
            c = CohClass.basis(word, e)
            values = {b.bits: c.restriction(b) for b in gals}
            for bits, value in values.items():
                for k in range(n):
                    if bits[k]:
                        diff = value - values[bits[:k] + (0,) + bits[k + 1:]]
                        divide_exact(diff, labels[bits][k])  # NotDivisible otherwise
                        nonzero += not diff.is_zero
    assert nonzero > 0


@pytest.mark.parametrize("label", sorted(SYSTEMS))
def test_the_routes_agree_at_the_bounds_of_their_cubes(label):
    rng = random.Random(f"bounds {label}")
    for _ in range(4):
        word = random_word(rng, SYSTEMS[label])
        zero, c = CohClass.zero(word), random_class(rng, word)
        assert expand(word, {}) == zero
        for a, b in ((c, zero), (zero, c), (zero, zero)):
            assert multiply_by_localization(a, b) == multiply(a, b) == zero
        full = Gallery((1,) * word.n)
        for e in word.galleries():
            if e != full:  # then the complement of e is not under e
                off = CohClass(word, {Gallery(tuple(1 - b for b in e.bits)): 1})
                assert integrate_by_localization(word, e, off) == integrate(word, e, off) == 0
        if word.n >= 2:
            # two coordinates with an empty meet
            first, rest = Gallery.unit(word.n, 1), Gallery((0,) + (1,) * (word.n - 1))
            d = CohClass(word, {first: random_polynomial(rng, word.rs.rank), rest: 1})
            assert integrate_by_localization(word, full, d) == integrate(word, full, d)
            assert multiply_by_localization(d, c) == multiply(d, c)
            assert multiply_by_localization(d, d) == multiply(d, d)


def test_the_word_keeps_no_weights_per_gallery():
    rs = SYSTEMS["A3"]
    word = BSWord(rs, rs.longest_word())
    gals = word.galleries()
    for _ in restriction_table(word)["rows"]:
        pass
    rng = random.Random("state")
    for _ in range(4):
        c1, c2 = random_class(rng, word), random_class(rng, word)
        multiply_by_localization(c1, c2)
        integrate_by_localization(word, rng.choice(gals), c1)
        expand(word, {e: c1.restriction(e) for e in gals})
    check_billey_identities(word, rs.weyl_from_word((1, 2)))
    masks = {e.mask for e in gals} | set(gals)
    for name, value in vars(word).items():
        if isinstance(value, dict):
            assert not masks & value.keys(), name
        # nor the galleries themselves: galleries() makes a new list each call
        if isinstance(value, (list, tuple, set, dict)):
            assert len(value) < len(gals), name
            assert not any(isinstance(x, Gallery) for x in value), name
    assert word.galleries() is not word.galleries()
    assert 0 < len(word._form_poly) <= 2 * len(rs.positive_roots)


def on_edges(points, n):
    """The on edges of the walk down to ``points``: a prefix of one of them
    before position k, for each k on in it."""
    return {(b & (1 << 8 * k) - 1, k) for b in points for k in range(n) if b >> 8 * k & 1}


def test_walks_reflect_only_on_the_edges_of_their_class(monkeypatch):
    """restriction walks one path, and integrate_by_localization, a table
    row and multiply_by_localization only the points above the coordinates
    of their classes: times_reflection runs at most once per on edge of
    the prefixes of those points (a walk over the whole cube makes 2^N - 1
    of them).  The classes of several coordinates have a small meet, and
    only a few points above their coordinates."""
    rs = SYSTEMS["B3"]
    word = BSWord(rs, (1, 2, 3, 1, 2, 3, 1, 2))
    full, gals = Gallery((1,) * word.n), word.galleries()
    calls = []
    reflect = RootSystem.times_reflection
    monkeypatch.setattr(RootSystem, "times_reflection",
                        lambda self, rows, i: calls.append(i) or reflect(self, rows, i))

    def count(run):
        calls.clear()
        run()
        return len(calls)

    def edges(coords, top):
        points = {b.mask for b in gals if b.leq(top) and any(e.leq(b) for e in coords)}
        return len(on_edges(points, word.n))

    def one_off(e, k):
        """``k`` galleries under ``e`` with one of its on bits off."""
        return [Gallery._of_mask(e.mask ^ 1 << 8 * (i - 1), e.n)
                for i in rng.sample(e.support, k)]

    rng = random.Random("edges")
    for ep in rng.sample(gals, 40):
        e = rng.choice(gals)
        c = CohClass(word, {e: 1, full: 2})
        assert count(lambda: c.restriction(ep)) <= ep.ones * e.leq(ep)
    for e in rng.sample([g for g in gals if g.ones >= 6], 10):
        coords = one_off(e, 3)
        c = CohClass(word, dict.fromkeys(coords, 1))
        assert count(lambda: integrate_by_localization(word, e, c)) <= edges(coords, e)
    rows = restriction_table(word)["rows"]
    for e in gals:
        assert count(lambda: next(rows)) <= edges([e], full)
    assert count(lambda: next(rows, None)) == 0
    for e1 in rng.sample(gals, 10):
        coords = one_off(full, 3)
        c1, c2 = CohClass.basis(word, e1), CohClass(word, dict.fromkeys(coords, 1))
        joins = [Gallery._of_mask(e1.mask | e.mask, word.n) for e in coords]
        assert count(lambda: multiply_by_localization(c1, c2)) <= edges(joins, full)
