"""The integer kernel behind ``multiply`` and ``multiply_generator`` against
the one-generator rule applied term by term on polynomials.

The reference route below is the rule as it was computed before the kernel:
every generator re-walks the earlier positions of every gallery it meets,
and every coefficient is a :class:`Polynomial`.  The kernel keeps the same
rule in a table per word, on packed integers; both must agree with each
other and with ``multiply_by_localization`` on every input, whatever the
state or bound of the table.
"""

import random
from fractions import Fraction

import pytest

from bottsam import (
    BUILTIN_CARTAN,
    BSWord,
    CohClass,
    Gallery,
    IndexOutOfRange,
    LengthMismatch,
    Polynomial,
    RootSystem,
    WordMismatch,
    multiply,
    multiply_by_localization,
    multiply_generator,
    parse_polynomial,
    rootsystem,
)

CUSTOM = {
    "A1xA1": ((2, 0), (0, 2)),
    "A1xB2": ((2, 0, 0), (0, 2, -1), (0, -2, 2)),
}
SYSTEMS = [RootSystem.from_label(label) for label in sorted(BUILTIN_CARTAN)] + [
    RootSystem(matrix, label) for label, matrix in CUSTOM.items()
]
IDS = [rs.label for rs in SYSTEMS]


# ---- the reference route -----------------------------------------------------

def _flip_on(bits, k):
    return bits[:k] + (1,) + bits[k + 1 :]


def reference_terms(word, i, bits):
    """``x_i * sigma_bits`` as (bits, coefficient) pairs.  Bit i off: the
    class with it on.  Bit i on: one correction ``-<alpha_j, letter_j^vee>``
    per off position j < i, ``alpha_j = v_{j+1..i-1}(mu_i)``, and
    ``alpha_i(bits)`` on the diagonal."""
    k = i - 1
    if not bits[k]:
        return [(_flip_on(bits, k), 1)]
    rs, letters = word.rs, word.letters
    alpha = list(rs.identity_rows[letters[k] - 1])
    terms = []
    for j in range(k - 1, -1, -1):
        row = rs.cartan[letters[j] - 1]
        c = sum(x * a for x, a in zip(alpha, row))
        if bits[j]:
            alpha[letters[j] - 1] -= c
        elif c:
            terms.append((_flip_on(bits, j), -c))
    terms.append((bits, Polynomial.linear(tuple(alpha))))
    return terms


def _add_term(out, bits, p):
    s = out.get(bits, Polynomial.zero(p.rank)) + p
    if s.is_zero:
        out.pop(bits, None)
    else:
        out[bits] = s


def reference_multiply(c1, c2):
    """The product one generator and one gallery at a time."""
    word = c1.word
    out = {}
    for e, q in c2.coords.items():
        cur = {f.bits: p for f, p in c1.coords.items()}
        for i in e.support:
            nxt = {}
            for bits, p in cur.items():
                for b, c in reference_terms(word, i, bits):
                    _add_term(nxt, b, p * c)
            cur = nxt
        for bits, p in cur.items():
            _add_term(out, bits, p * q)
    return CohClass(word, {Gallery(b): p for b, p in out.items()})


# ---- inputs --------------------------------------------------------------------

def random_word(rng, rs, longest=6):
    return BSWord(rs, [rng.randint(1, rs.rank) for _ in range(rng.randint(1, longest))])


def random_polynomial(rng, rank, degree=2, rational=False):
    p = Polynomial.zero(rank)
    for _ in range(rng.randint(1, 3)):
        exp = tuple(rng.randint(0, degree) for _ in range(rank))
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rational else rng.randint(-4, 4)
        p = p + Polynomial(rank, {exp: c})
    return p


def random_class(rng, word, **kw):
    gals, rank = word.galleries(), word.rs.rank
    count = rng.randint(0, 5)
    coords = {rng.choice(gals): random_polynomial(rng, rank, **kw) for _ in range(count)}
    return CohClass(word, coords)


def colliding_pair(rng, word):
    """Two classes of two terms each, ``p sigma_a + p' sigma_a'`` and ``q
    sigma_b + q' sigma_b'``, with ``a or b = a' or b'``: two ways of
    splitting one join, each with its own overlap."""
    rank = word.rs.rank
    join = [rng.randint(0, 1) for _ in range(word.n)]

    def split():
        a = tuple(j & rng.randint(0, 1) for j in join)
        return a, tuple(j & (rng.randint(0, 1) | 1 - x) for j, x in zip(join, a))

    (a, b), (a2, b2) = split(), split()
    assert [x | y for x, y in zip(a, b)] == [x | y for x, y in zip(a2, b2)] == join
    first = CohClass(word, {Gallery(a): random_polynomial(rng, rank)})
    second = CohClass(word, {Gallery(b): random_polynomial(rng, rank)})
    first = first + CohClass(word, {Gallery(a2): random_polynomial(rng, rank)})
    return first, second + CohClass(word, {Gallery(b2): random_polynomial(rng, rank)})


def kernel_inputs(rng, rs):
    """Pairs of classes on random words: sparse classes, integral or not;
    two-term classes whose pairs of terms have colliding joins; a factor of
    8 to 12 terms with rational coefficients against a sparse one; and the
    zero and unit classes on either side of each of those two."""
    for case in range(16):
        word = random_word(rng, rs)
        yield random_class(rng, word, rational=case % 4 == 1), random_class(rng, word, rational=case % 4 == 3)
    for _ in range(4):
        yield colliding_pair(rng, random_word(rng, rs))
    word = BSWord(rs, [rng.randint(1, rs.rank) for _ in range(rng.randint(4, 6))])
    gals, rank = word.galleries(), rs.rank
    count = min(len(gals), rng.randint(8, 12))
    dense = CohClass(word, {e: random_polynomial(rng, rank, rational=True) for e in rng.sample(gals, count)})
    sparse = random_class(rng, word)
    yield dense, sparse
    for c in (dense, sparse):
        for other in (CohClass.zero(word), CohClass.unit(word)):
            yield c, other
            yield other, c


def basis(word, text):
    return CohClass.basis(word, Gallery.from_string(text))


def all_int(c):
    return all(type(x) is int for p in c.coords.values() for x in p.terms.values())


# ---- the kernel against both routes -------------------------------------------------

@pytest.mark.parametrize("rs", SYSTEMS, ids=IDS)
def test_kernel_matches_reference_and_localization(rs):
    rng = random.Random(f"kernel:{rs.label}")
    for a, b in kernel_inputs(rng, rs):
        got = multiply(a, b)
        assert got == reference_multiply(a, b) == reference_multiply(b, a), (a.word, str(a), str(b))
        assert got == multiply_by_localization(a, b), (a.word, str(a), str(b))
        if all_int(a) and all_int(b):
            assert all_int(got), str(got)
        if b.is_zero or a.is_zero:
            assert got.is_zero
        elif b == CohClass.unit(b.word) or a == CohClass.unit(a.word):
            assert got == (a if b == CohClass.unit(b.word) else b)


def unit_mixed_class(rng, word, count, unit_at, galleries=None):
    """``count`` coordinates on distinct galleries, in that order: the one
    at ``unit_at`` has coefficient 1, the others alternate a ``Fraction``
    and a linear form."""
    rank = word.rs.rank
    coords = {}
    for k, e in enumerate(rng.sample(galleries or word.galleries(), count)):
        if k == unit_at:
            coords[e] = Polynomial.one(rank)
        elif k % 2:
            q = Fraction(rng.choice([-3, -1, 1, 5]), rng.choice([2, 3]))
            coords[e] = Polynomial.constant(rank, q)
        else:
            form = (rng.randint(1, 2), *(rng.randint(-2, 2) for _ in range(rank - 1)))
            coords[e] = Polynomial.linear(form)
    return CohClass(word, coords)


def snapshot(c):
    return str(c), {e: dict(p.terms) for e, p in c.coords.items()}


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_unit_coefficient_takes_the_product_without_aliasing_its_inputs(where):
    """A unit coefficient in the second factor hands the rewritten first
    term over as the result, which later pairs add into; the first
    factor's term must be copied when a later pair still reads it."""
    rng = random.Random(f"unit:{where}")
    for rs in (RootSystem.from_label(label) for label in ("A2", "B2", "G2", "A3")):
        for _ in range(6):
            word = random_word(rng, rs, longest=5)
            gals = word.galleries()
            pairs = []
            for _ in range(2):
                sizes = [min(len(gals), rng.randint(3 if where == "middle" else 2, 4)) for _ in "ab"]
                units = [{"first": 0, "middle": n // 2, "last": n - 1}[where] for n in sizes]
                pairs.append(tuple(unit_mixed_class(rng, word, n, k) for n, k in zip(sizes, units)))
            # galleries on either side of a cut: no pair of terms overlaps
            cut = rng.randint(1, word.n - 1) if word.n > 1 else 0
            sides = ([e for e in gals if not e.mask >> 8 * cut],
                     [e for e in gals if not e.mask & (1 << 8 * cut) - 1])
            sizes = [min(n, len(side)) for n, side in zip(sizes, sides)]
            pairs.append(tuple(unit_mixed_class(rng, word, n, min(k, n - 1), side)
                               for n, k, side in zip(sizes, units, sides)))
            for a, b in pairs:
                for x, y in ((a, b), (b, a)):
                    before = snapshot(x), snapshot(y)
                    got = multiply(x, y)
                    assert (snapshot(x), snapshot(y)) == before
                    want = reference_multiply(x, y)
                    assert got == want == multiply_by_localization(x, y), (word, str(x), str(y))


@pytest.mark.parametrize("changed", ["basis", "product"])
def test_a_caller_that_changes_one_class_changes_no_other(changed):
    """Basis classes and products share only tuples: the exponents of a
    constant and of each unpacked monomial.  Changing the terms of one
    coordinate, of a basis class or of a product, leaves every later basis
    class, ``Polynomial.one`` and every later product on the word as they
    were."""
    for label, letters in (("B2", (1, 2, 1, 2)), ("A3", (1, 2, 3, 1, 2))):
        rs = RootSystem.from_label(label)
        word = BSWord(rs, letters)
        zero, x = (0,) * rs.rank, (1,) + (0,) * (rs.rank - 1)
        gals = word.galleries()
        pairs = [(a, b) for a in gals[1::3] for b in gals[2::5]]
        before = [str(multiply(CohClass.basis(word, a), CohClass.basis(word, b))) for a, b in pairs]
        for (a, b), text in zip(pairs, before):
            if changed == "basis":
                c = CohClass.basis(word, a)
                terms = c.coords[a].terms
            else:
                c = multiply(CohClass.basis(word, a), CohClass.basis(word, b))
                terms = next(iter(c.coords.values())).terms
            terms[zero] = 7
            terms[x] = -3
            assert str(CohClass.basis(word, a)) == f"{a}: 1"
            assert str(CohClass.basis(word, b)) == f"{b}: 1"
            assert Polynomial.one(rs.rank).terms == {zero: 1}
            assert CohClass.unit(word).coords[gals[0]].terms == {zero: 1}
            assert [str(multiply(CohClass.basis(word, a), CohClass.basis(word, b)))
                    for a, b in pairs] == before
            terms.clear()
            assert str(multiply(CohClass.basis(word, a), CohClass.basis(word, b))) == text


def test_disjoint_basis_classes_multiply_to_their_join_without_the_rule_table():
    rng = random.Random("disjoint")
    for rs in SYSTEMS:
        word = random_word(rng, rs, longest=10)
        for _ in range(8):
            a = [rng.randint(0, 1) for _ in range(word.n)]
            b = [(1 - x) & rng.randint(0, 1) for x in a]
            join = Gallery([x | y for x, y in zip(a, b)])
            assert multiply(CohClass.basis(word, Gallery(a)), CohClass.basis(word, Gallery(b))) == (
                CohClass.basis(word, join)
            )
        assert word._generators == {}


@pytest.mark.parametrize("rs", SYSTEMS, ids=IDS)
def test_generator_rule_matches_reference_on_every_gallery(rs):
    rng = random.Random(f"generator:{rs.label}")
    word = random_word(rng, rs, longest=5)
    for e in word.galleries():
        for i in range(1, word.n + 1):
            got = multiply_generator(word, i, e)
            expected = CohClass(word, {Gallery(b): c for b, c in reference_terms(word, i, e.bits)})
            assert got == expected, (word, i, str(e))
            assert all_int(got)


def test_degrees_above_the_word_length_are_packed_wide_enough():
    a1, b2, g2 = (RootSystem.from_label(label) for label in ("A1", "B2", "G2"))
    # a1^25 on a 3-letter word: one byte per exponent
    word = BSWord(b2, (1, 2, 1))
    c = CohClass(word, {Gallery.from_string("101"): parse_polynomial("a1^25 - 3*a2^20", 2)})
    for b in (basis(word, "111"), basis(word, "101"), c):
        assert multiply(c, b) == reference_multiply(c, b) == multiply_by_localization(c, b)
    # exponents at and across the one-byte limit of 255
    word = BSWord(a1, (1, 1, 1))
    for d in (251, 252, 253, 300):
        c = CohClass(word, {Gallery.from_string("111"): parse_polynomial(f"a1^{d}", 1)})
        got = multiply(c, basis(word, "111"))
        assert got == reference_multiply(c, basis(word, "111"))
        assert max(max(e) for p in got.coords.values() for e in p.terms) == d + 3
    word = BSWord(g2, (1, 2, 1, 2))
    c = CohClass(word, {Gallery.from_string("1101"): parse_polynomial("a1^200*a2^60 + a2", 2)})
    d = CohClass(word, {Gallery.from_string("0111"): parse_polynomial("a2^70 - 1/2*a1", 2)})
    assert multiply(c, d) == reference_multiply(c, d)


def test_zero_class_and_colliding_galleries():
    b3 = RootSystem.from_label("B3")
    word = BSWord(b3, (1, 2, 3, 2, 1))
    zero = CohClass.zero(word)
    assert multiply(zero, basis(word, "11011")).is_zero
    assert multiply(basis(word, "11011"), zero).is_zero
    # galleries that differ in one bit: a generator at that bit moves the
    # one with the bit off onto the other, so their terms must add up
    root = Polynomial.linear((1, 2, 0))
    a = basis(word, "10010") + basis(word, "11010").scaled(root)
    for b in ("01000", "01010", "11111"):
        assert multiply(a, basis(word, b)) == reference_multiply(a, basis(word, b)), b
    assert multiply(a, a) == reference_multiply(a, a) == multiply_by_localization(a, a)


def test_bad_arguments_raise_as_before():
    a2 = RootSystem.from_label("A2")
    word = BSWord(a2, (1, 2, 1))
    with pytest.raises(WordMismatch):
        multiply(basis(word, "110"), CohClass.unit(BSWord(a2, (1, 2))))
    with pytest.raises(LengthMismatch):
        CohClass.basis(word, Gallery.from_string("11"))
    with pytest.raises(LengthMismatch):
        multiply_generator(word, 1, Gallery.from_string("1101"))
    for i in (0, 4):
        with pytest.raises(IndexOutOfRange, match=f"position {i} out of range 1..3"):
            multiply_generator(word, i, Gallery.from_string("110"))


# ---- the table: warm, cold, bounded, and never shared ----------------------------------

def products(word, rng, count):
    gals = word.galleries()
    pairs = [(rng.choice(gals), rng.choice(gals)) for _ in range(count)]
    return [(CohClass.basis(word, a), CohClass.basis(word, b)) for a, b in pairs]


@pytest.mark.parametrize("bound", [None, 5, 0])
def test_warm_cold_and_bounded_tables_give_the_same_products(monkeypatch, bound):
    d4 = RootSystem.from_label("D4")
    letters = (1, 2, 1, 3, 2, 1, 4, 2, 1, 3)
    pairs = products(BSWord(d4, letters), random.Random("tables"), 40)
    expected = [reference_multiply(a, b) for a, b in pairs]
    if bound is not None:
        monkeypatch.setattr(rootsystem, "MEMO_MAX_ENTRIES", bound)
    warm = BSWord(d4, letters)
    for _ in range(2):  # the second round reads the full table
        for (a, b), want in zip(pairs, expected):
            a, b = CohClass(warm, a.coords), CohClass(warm, b.coords)
            assert multiply(a, b) == want
            cold = BSWord(d4, letters)
            assert multiply(CohClass(cold, a.coords), CohClass(cold, b.coords)) == want
    if bound is None:
        assert len(warm._generators) > 5
    else:
        assert len(warm._generators) == bound


def test_words_over_different_cartan_matrices_keep_separate_tables():
    letters = (1, 2, 1, 2, 1, 2)
    words = [BSWord(RootSystem.from_label(label), letters) for label in ("A2", "B2", "G2")]
    texts = [("110101", "011011"), ("111111", "101010"), ("010111", "111101")]
    for a, b in texts:  # interleaved, so any sharing would feed one word's rule to another
        for word in words:
            got = multiply(basis(word, a), basis(word, b))
            assert got == reference_multiply(basis(word, a), basis(word, b)), (word, a, b)
    tables = [word._generators for word in words]
    common = tables[0].keys() & tables[1].keys() & tables[2].keys()
    assert common
    assert any(len({str(t[k]) for t in tables}) > 1 for k in common)


# ---- integral coefficients are stored as int ------------------------------------------------

def test_integral_fractions_are_stored_as_int():
    half = parse_polynomial("1/2*a1", 2)
    for p in (half * 2, 2 * half, half + half, half * parse_polynomial("2*a2", 2)):
        assert all(type(c) is int for c in p.terms.values()), p.terms
    assert str(half * 2) == str(half + half) == "a1"
    word = BSWord(RootSystem.from_label("A2"), (1, 2, 1))
    e = Gallery.from_string("110")
    c = multiply(CohClass(word, {e: Fraction(1, 2)}), CohClass(word, {e: 2}))
    assert c == multiply(basis(word, "110"), basis(word, "110"))
    assert all_int(c)
    assert str(c) == str(multiply(basis(word, "110"), basis(word, "110")))
