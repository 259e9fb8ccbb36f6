import itertools
import math
import random

import pytest

from bottsam import (
    BUILTIN_CARTAN,
    BSWord,
    BilleyQuery,
    CohClass,
    Gallery,
    NotLongestWord,
    NotReducedGallery,
    NotReducedWord,
    OrdinaryClass,
    Polynomial,
    RootSystem,
    WeylElement,
    billey,
    check_billey_identity,
    divide_exact,
    fiber,
    multiply,
    ordinary_multiply,
    parse_polynomial,
)
from bottsam import rootsystem, schubert
from bottsam.bott_samelson import _walk
from bottsam.schubert import _reduced_word_of_gallery, check_billey_identities
from reference import act, betas, element, fundamental_weights, identity, matmul, reduced_words

A2 = RootSystem.from_label("A2")
B2 = RootSystem.from_label("B2")


def g(text):
    return Gallery.from_string(text)


def p(text, rank=2):
    return parse_polynomial(text, rank)


def test_billey_identity_element():
    q = BilleyQuery(A2, A2.weyl_from_word(()), (1, 2, 1))
    assert billey(q) == 1


def test_billey_simple_reflection():
    q = BilleyQuery(A2, A2.weyl_from_word((1,)), (1, 2, 1))
    assert billey(q) == p("a1 + a2")


def test_billey_length_two_elements():
    r1r2 = A2.weyl_from_word((1, 2))
    assert billey(BilleyQuery(A2, r1r2, (1, 2, 1))) == p("a1^2 + a1*a2")
    r2r1 = A2.weyl_from_word((2, 1))
    assert billey(BilleyQuery(A2, r2r1, (1, 2, 1))) == p("a1*a2 + a2^2")


def test_billey_longest_element_is_the_full_product():
    w0 = A2.weyl_from_word(A2.longest_word())
    assert billey(BilleyQuery(A2, w0, (1, 2, 1))) == p("a1^2*a2 + a1*a2^2")
    # in general the diagonal value is the product of all betas
    for rs, word in ((A2, (1, 2, 1)), (B2, (1, 2, 1, 2)), (B2, (2, 1))):
        value = billey(BilleyQuery(rs, rs.weyl_from_word(word), word))
        expected = p("1", rs.rank)
        for beta in betas(rs, word):
            expected = expected * Polynomial.linear(beta)
        assert value == expected


def test_billey_absent_subword_gives_zero():
    # no subword of (1) multiplies to r2
    q = BilleyQuery(A2, A2.weyl_from_word((2,)), (1,))
    assert billey(q).is_zero


def test_billey_homogeneous_of_length_degree():
    for rs, v_word in ((A2, (1, 2, 1)), (B2, (1, 2, 1, 2))):
        for w in rs.weyl_elements():
            value = billey(BilleyQuery(rs, w, v_word))
            if not value.is_zero:
                assert {sum(e) for e in value.terms} == {rs.length(w)}


def test_billey_rejects_non_reduced_v():
    with pytest.raises(NotReducedWord):
        BilleyQuery(A2, A2.weyl_from_word((1,)), (2, 2))


def test_reduced_word_of_gallery():
    word = BSWord(A2, (1, 2, 1))
    assert _reduced_word_of_gallery(word, g("110")) == (1, 2)
    assert _reduced_word_of_gallery(word, g("000")) == ()
    with pytest.raises(NotReducedGallery):
        _reduced_word_of_gallery(word, g("101"))


def test_fiber_examples():
    word = BSWord(A2, (1, 2, 1))
    assert fiber(word, A2.weyl_from_word(())) == {g("000")}
    assert fiber(word, A2.weyl_from_word((1,))) == {g("100"), g("001")}
    assert fiber(word, A2.weyl_from_word(A2.longest_word())) == {g("111")}
    # fibers of all elements partition the reduced galleries
    total = set()
    for w in A2.weyl_elements():
        part = fiber(word, w)
        assert not (part & total)
        total |= part
    assert g("101") not in total  # its subword is not reduced
    assert len(total) == 7


def test_check_billey_identity_examples():
    word = BSWord(A2, (1, 2, 1))
    assert check_billey_identity(word, A2.weyl_from_word(()), g("111"))
    assert check_billey_identity(word, A2.weyl_from_word((1,)), g("111"))
    assert check_billey_identity(word, A2.weyl_from_word(A2.longest_word()), g("111"))


def test_check_billey_identity_exhaustive_a2():
    word = BSWord(A2, (1, 2, 1))
    reduced = [e for e in word.galleries() if str(e) != "101"]
    for w in A2.weyl_elements():
        for e in reduced:
            assert check_billey_identity(word, w, e)


def test_check_billey_identity_input_errors():
    with pytest.raises(NotLongestWord):
        check_billey_identity(BSWord(A2, (1, 2)), A2.weyl_from_word((1,)), g("10"))
    with pytest.raises(NotLongestWord):
        check_billey_identity(BSWord(A2, (1, 1, 2)), A2.weyl_from_word((1,)), g("110"))
    word = BSWord(A2, (1, 2, 1))
    with pytest.raises(NotReducedGallery):
        check_billey_identity(word, A2.weyl_from_word((1,)), g("101"))


def test_reduced_word_independence_spot():
    # r1r2r1 = r2r1r2 in A2; both words give the same values for every w
    for w in A2.weyl_elements():
        ref = billey(BilleyQuery(A2, w, (1, 2, 1)))
        assert billey(BilleyQuery(A2, w, (2, 1, 2))) == ref


def test_all_reduced_words_of_b2_longest_agree():
    w0 = B2.weyl_from_word((1, 2, 1, 2))
    reduced_words = [
        w
        for w in itertools.product((1, 2), repeat=4)
        if B2.is_reduced(w) and B2.weyl_from_word(w) == w0
    ]
    assert len(reduced_words) == 2
    for w in B2.weyl_elements():
        vals = [billey(BilleyQuery(B2, w, vw)) for vw in reduced_words]
        assert all(v == vals[0] for v in vals)


def test_verify_keeps_the_beta_table_within_the_bound(monkeypatch):
    def verify(rs):
        return check_billey_identities(BSWord(rs, rs.longest_word()), rs.weyl_from_word((1, 2, 3, 4)))

    d4 = RootSystem.from_label("D4")
    agree = verify(d4)
    assert len(agree) == 1096 and all(agree)
    assert 0 < len(d4._betas) <= rootsystem.MEMO_MAX_ENTRIES
    monkeypatch.setattr(rootsystem, "MEMO_MAX_ENTRIES", 0)
    bare = RootSystem.from_label("D4")
    assert verify(bare) == agree
    assert not bare._betas


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_verify_checks_the_betas_billey_reads(monkeypatch, label):
    real = schubert._packed_betas

    def reversed_betas(rs, v_word):
        *packing, forms = real(rs, v_word)
        return (*packing, forms[::-1])

    monkeypatch.setattr(schubert, "_packed_betas", reversed_betas)
    rs = RootSystem.from_label(label)
    word = BSWord(rs, rs.longest_word())
    assert not all(check_billey_identities(word, rs.weyl_from_word((1,))))


# ---- GKM conditions: an oracle that shares nothing with the subword sum ----

GKM_SYSTEMS = {label: RootSystem.from_label(label)
               for label in ("A1", "A2", "B2", "G2", "A3", "B3", "C3")}
GKM_SYSTEMS["A1xA1"] = RootSystem([[2, 0], [0, 2]])
GKM_SYSTEMS["A1xB2"] = RootSystem([[2, 0, 0], [0, 2, -1], [0, -2, 2]])
# B3 and C3 have 48 elements: for them a seeded sample of the classes w,
# with the identity and the longest element, keeps these checks near a
# second; every smaller group is checked whole
WHOLE_GROUP_MAX, W_SAMPLE = 24, 12


def sample_of_w(label, words):
    """The reduced words of the classes w to check: every element up to
    ``WHOLE_GROUP_MAX`` elements, else the identity, the longest element and
    a seeded sample, ``W_SAMPLE`` in all."""
    ws = list(words.values())
    if len(ws) <= WHOLE_GROUP_MAX:
        return ws
    return [ws[0], ws[-1], *random.Random(f"gkm {label}").sample(ws[1:-1], W_SAMPLE - 2)]


def column(rows, i):
    return tuple(r[i - 1] for r in rows)


@pytest.mark.parametrize("label", sorted(GKM_SYSTEMS))
def test_billey_values_satisfy_the_gkm_conditions(label):
    """For w in W (a sample on B3 and C3), every v in W and each positive
    root beta, xi^w(v) - xi^w(s_beta v) is a multiple of beta, and xi^w(w)
    is the product of the betas of a reduced word of w, each found here from
    plain matrix products."""
    rs = GKM_SYSTEMS[label]
    words = reduced_words(rs)
    # s_beta = u r_i u^-1 for beta = u(alpha_i), column i of u
    reflections = {}
    for rows, word in words.items():
        for i in range(1, rs.rank + 1):
            beta = column(rows, i)
            if min(beta) >= 0:
                reflections.setdefault(beta, word + (i,) + word[::-1])
    assert len(reflections) == len(rs.positive_roots)
    for w_word in sample_of_w(label, words):
        w = rs.weyl_from_word(w_word)
        xi = {v_word: billey(BilleyQuery(rs, w, v_word)) for v_word in words.values()}
        for v_word, value in xi.items():
            for beta, s in reflections.items():
                moved = words[rs.weyl_from_word(s + v_word).rows]
                divide_exact(value - xi[moved], beta)  # NotDivisible otherwise
        product = Polynomial.one(rs.rank)
        for j, i in enumerate(w_word):
            beta = column(rs.weyl_from_word(w_word[:j]).rows, i)
            product = product * Polynomial.linear(beta)
        assert xi[w_word] == product, (w_word, str(xi[w_word]))


@pytest.mark.parametrize("label", sorted(GKM_SYSTEMS))
def test_billey_values_vanish_exactly_off_the_bruhat_order(label):
    """xi^w(v) is nonzero exactly when w <= v in the Bruhat order, which is
    built here from reference matrices alone: u < u t for each reflection t
    with l(u t) > l(u), lengths counted as inversions, closed under
    transitivity.  Every v, and w as in the GKM test."""
    rs = GKM_SYSTEMS[label]
    words = reduced_words(rs)
    roots = {column(rows, i) for rows in words for i in range(1, rs.rank + 1)}
    roots = {beta for beta in roots if min(beta) >= 0}
    length = {rows: sum(min(act(rows, beta)) < 0 for beta in roots) for rows in words}
    # s_beta = u r_i u^-1 for beta = u(alpha_i), column i of u
    reflections = {}
    for rows, word in words.items():
        for i in range(1, rs.rank + 1):
            if column(rows, i) in roots:
                reflections.setdefault(column(rows, i), element(rs, word + (i,) + word[::-1]).rows)
    assert len(reflections) == len(roots) == max(length.values())
    below = {}
    for v in sorted(words, key=length.get):
        below[v] = {v}
        for t in reflections.values():
            u = matmul(v, t)
            if length[u] < length[v]:
                below[v] |= below[u]
    assert all(identity(rs.rank) in b for b in below.values())
    checked, zeros = set(sample_of_w(label, words)), 0
    for w, w_word in words.items():
        if w_word not in checked:
            continue
        for v, v_word in words.items():
            value = billey(BilleyQuery(rs, element(rs, w_word), v_word))
            assert value.is_zero == (w not in below[v]), (w_word, v_word)
            zeros += value.is_zero
    assert 0 < zeros < len(checked) * len(words)


# ---- Chevalley's formula: a second oracle that shares nothing with billey ----

CHEVALLEY_SYSTEMS = {label: RootSystem.from_label(label)
                     for label in sorted(BUILTIN_CARTAN) if len(BUILTIN_CARTAN[label]) >= 2}
CHEVALLEY_SYSTEMS["A1xA1"] = GKM_SYSTEMS["A1xA1"]
CHEVALLEY_SYSTEMS["A1xB2"] = GKM_SYSTEMS["A1xB2"]


@pytest.mark.parametrize("label", sorted(CHEVALLEY_SYSTEMS))
def test_billey_of_a_simple_reflection_is_the_chevalley_formula(label):
    """The equivariant Chevalley formula for one letter (Kostant-Kumar):
    the class of s_i at v is omega_i - v(omega_i), with the fundamental
    weight omega_i from the inverse Cartan matrix and v a reference matrix
    product, for every v in W and every i."""
    rs = CHEVALLEY_SYSTEMS[label]
    omegas = fundamental_weights(rs.cartan)
    for rows, v_word in reduced_words(rs).items():
        for i, omega in enumerate(omegas, 1):
            want = Polynomial.linear(tuple(a - b for a, b in zip(omega, act(rows, omega))))
            got = billey(BilleyQuery(rs, element(rs, (i,)), v_word))
            assert got == want, (v_word, i, str(got), str(want))


# A4 has 120 elements and D4 192: for them the identity and a seeded sample
# of the other classes w, against every v
CHEVALLEY_W_SAMPLE = {"A4": 5, "D4": 3}


def coroot_pairing(omega, beta, s_beta):
    """<omega, beta^vee>, read off the reflection: s_beta(omega) = omega -
    <omega, beta^vee> beta."""
    moved = [a - b for a, b in zip(omega, act(s_beta, omega))]
    k = next(k for k, b in enumerate(beta) if b)
    c, rest = divmod(moved[k], beta[k])
    assert not rest and moved == [c * b for b in beta]
    return c


def chevalley_data(rs, label, sample):
    """What both sides of Chevalley's formula are made of, from reference
    matrix products alone: a shortest word per element, keyed by its rows;
    the factor that scales the fundamental weights omega_i to integer
    coordinates; per element the images of the scaled omega_i; and per w to
    check (every w, or the identity and a seeded sample of ``sample[label]
    - 1`` others) its covers ``w s_beta``, ``l(w s_beta) = l(w) + 1``, each
    with its pairings ``<omega_i, beta^vee>``."""
    words = reduced_words(rs)  # breadth first, so each word is shortest
    # the identity is linear in omega_i, so a multiple with integer
    # coordinates keeps the arithmetic on int
    omegas = fundamental_weights(rs.cartan)
    scale = math.lcm(*(c.denominator for omega in omegas for c in omega))
    omegas = [tuple(int(c * scale) for c in omega) for omega in omegas]
    # s_beta = u r_j u^-1 for beta = u(alpha_j), column j of u
    reflections = {}
    for rows, word in words.items():
        for j in range(1, rs.rank + 1):
            beta = column(rows, j)
            if min(beta) >= 0 and beta not in reflections:
                reflections[beta] = element(rs, word + (j,) + word[::-1]).rows
    assert len(reflections) == len(rs.positive_roots)
    pairings = {beta: [coroot_pairing(omega, beta, s) for omega in omegas]
                for beta, s in reflections.items()}
    images = {rows: [act(rows, omega) for omega in omegas] for rows in words}
    ws = list(words)
    if label in sample:
        rng = random.Random(f"chevalley {label}")
        ws = [ws[0], *rng.sample(ws[1:], sample[label] - 1)]
    covers = {w: [(matmul(w, s), pairings[beta]) for beta, s in reflections.items()
                  if len(words[matmul(w, s)]) == len(words[w]) + 1] for w in ws}
    return words, scale, images, covers


@pytest.mark.parametrize("label", sorted(CHEVALLEY_SYSTEMS))
def test_billey_satisfies_the_pointwise_chevalley_identity(label):
    """The equivariant Chevalley formula (Kostant-Kumar), evaluated at each
    point v: (w omega_i - v omega_i) xi^w(v) = sum of <omega_i, beta^vee>
    xi^{w s_beta}(v) over the positive roots beta with l(w s_beta) = l(w) +
    1.  It has no division and no subword: omega_i, s_beta, the pairings
    and the lengths all come from reference matrix products.  Every w (a
    seeded sample on A4 and D4), every v and every i."""
    rs = CHEVALLEY_SYSTEMS[label]
    words, _, images, covers = chevalley_data(rs, label, CHEVALLEY_W_SAMPLE)
    xi = {}

    def value(x, v_word):
        if (x, v_word) not in xi:
            xi[x, v_word] = billey(BilleyQuery(rs, WeylElement(x), v_word))
        return xi[x, v_word]

    checks = nonzero = 0
    for w in covers:
        for v, v_word in words.items():
            here = value(w, v_word)
            for i in range(rs.rank):
                want = Polynomial.zero(rs.rank)
                for x, pairing in covers[w]:
                    if pairing[i]:
                        want = want + value(x, v_word) * pairing[i]
                shift = Polynomial.linear(tuple(a - b for a, b in zip(images[w][i], images[v][i])))
                assert shift * here == want, (words[w], v_word, i + 1, str(want))
                checks += 1
                nonzero += not want.is_zero
    assert 0 < nonzero < checks


# the seeded sample of w on A4 (120 elements) and D4 (192)
CHEVALLEY_CLASS_SAMPLE = {"A4": 30, "D4": 20}


@pytest.mark.parametrize("label", sorted(CHEVALLEY_SYSTEMS))
def test_multiply_satisfies_chevalley_as_a_class_identity(label):
    """Chevalley's formula as an identity of classes on the longest word,
    with F_w the sum of the basis classes over the fiber of w (the pullback
    of the Schubert class of w): multiply(F_{s_i}, F_w) = (omega_i - w
    omega_i) F_w + sum of <omega_i, beta^vee> F_{w s_beta} over the
    positive roots beta with l(w s_beta) = l(w) + 1.  Both sides are
    classes of many coordinates with polynomial coefficients; the right
    side needs no product, so it shares nothing with the generator rule.
    Every w (a seeded sample on A4 and D4) and every i; omega_i enters
    scaled to integer coordinates, so the left side is scaled alike."""
    rs = CHEVALLEY_SYSTEMS[label]
    words, scale, images, covers = chevalley_data(rs, label, CHEVALLEY_CLASS_SAMPLE)
    word = BSWord(rs, rs.longest_word())
    classes = {}

    def schubert_class(x):
        if x not in classes:
            classes[x] = CohClass(word, dict.fromkeys(fiber(word, WeylElement(x)), 1))
        return classes[x]

    generators = [schubert_class(element(rs, (i,)).rows) for i in range(1, rs.rank + 1)]
    omegas = images[identity(rs.rank)]
    for w in covers:
        f_w = schubert_class(w)
        for i, f_i in enumerate(generators):
            shift = tuple(a - b for a, b in zip(omegas[i], images[w][i]))
            want = f_w.scaled(Polynomial.linear(shift))
            for x, pairing in covers[w]:
                if pairing[i]:
                    want = want + schubert_class(x).scaled(pairing[i])
            assert not want.is_zero  # the identity is not carried by zeros
            assert multiply(f_i, f_w).scaled(scale) == want, (words[w], i + 1)


# every pair (u, v) up to A3, and a seeded sample of pairs on B3 and C3
STRUCTURE_PAIR_SAMPLE = {"B3": 200, "C3": 200}


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_multiply_gives_graham_positive_structure_constants(label):
    """Structure constants read off multiply on the longest word, with F_w
    the sum of the basis classes over the fiber of w: F_u F_v is the sum of
    c_{uv}^w F_w, so the product has no coordinate off the fibers and is
    constant on each fiber, and c_{uv}^w is homogeneous of degree l(u) +
    l(v) - l(w) with non-negative integer coefficients in the simple roots
    (Graham, Duke Math. J. 109, 2001).  The ordinary product of the
    ordinary F_u and F_v is made of the constants with l(w) = l(u) + l(v)
    on their fibers, and nothing else."""
    rs = RootSystem.from_label(label)
    word = BSWord(rs, rs.longest_word())
    fibers = [sorted(fiber(word, w), key=Gallery.sort_key) for w in rs.weyl_elements()]
    lengths = [f[0].ones for f in fibers]
    of = {e: w for w, f in enumerate(fibers) for e in f}
    classes = [sum((CohClass.basis(word, e) for e in f), CohClass.zero(word)) for f in fibers]
    ordinary = [sum((OrdinaryClass.basis(word, e) for e in f), OrdinaryClass.zero(word)) for f in fibers]
    pairs = list(itertools.product(range(len(fibers)), repeat=2))
    if label in STRUCTURE_PAIR_SAMPLE:
        pairs = random.Random(f"structure {label}").sample(pairs, STRUCTURE_PAIR_SAMPLE[label])
    constants = set()  # degrees of the nonzero constants met
    for u, v in pairs:
        product, top = multiply(classes[u], classes[v]), {}
        assert product.coords.keys() <= of.keys(), "a coordinate off the fibers"
        for w in {of[e] for e in product.coords}:
            c = product.coords.get(fibers[w][0])
            assert all(product.coords.get(e) == c for e in fibers[w]), "not constant on a fiber"
            degree = lengths[u] + lengths[v] - lengths[w]
            for m, a in c.terms.items():
                assert type(a) is int and a > 0 and sum(m) == degree, (u, v, w, str(c))
            constants.add(degree)
            if degree == 0:
                top.update(dict.fromkeys(fibers[w], c.constant_term()))
        assert ordinary_multiply(ordinary[u], ordinary[v]) == OrdinaryClass(word, top), (u, v)
    assert 0 in constants and len(constants) > 1  # the checks are not carried by zeros


# the random words per type and kind, and their lengths
SCHUBERT_CLASS_WORDS = 2
SCHUBERT_CLASS_LENGTHS = (2, 7)


def random_word(rs, rng, reduced):
    """A seeded word of 2-7 letters (if reduced, at most as long as the
    longest word): letters drawn among the ascents of the reference product so
    far when ``reduced``, else drawn freely until the word is not reduced."""
    while True:
        rows, letters = identity(rs.rank), []
        top = len(rs.positive_roots) if reduced else SCHUBERT_CLASS_LENGTHS[1]
        low, high = SCHUBERT_CLASS_LENGTHS
        for _ in range(rng.randint(min(low, top), min(high, top))):
            ascents = [i for i in range(1, rs.rank + 1) if sum(column(rows, i)) > 0]
            i = rng.choice(ascents if reduced else range(1, rs.rank + 1))
            letters.append(i)
            rows = matmul(rows, element(rs, (i,)).rows)
        if reduced or not rs.is_reduced(letters):
            return tuple(letters)


def check_schubert_class_at_every_point(rs, letters, ws, words, xi):
    """The sum F_w of the basis classes over the galleries whose on letters
    form a reduced word of w is, at every fixed point e', the Schubert
    class of w at v(e'): billey of w at a reduced word of v(e').  The fiber
    and v(e') come from reference matrix products; each F_w's values come
    from one walk over the cube.  Returns the number of points checked."""
    word = BSWord(rs, letters)
    points = {e: element(rs, [letters[k - 1] for k in e.support]).rows for e in word.galleries()}
    zero, checks = Polynomial.zero(rs.rank), 0
    for w in ws:
        fib = {e for e, rows in points.items() if rows == w and e.ones == len(words[w])}
        assert fib == fiber(word, WeylElement(w))
        values = _walk(word, (CohClass(word, dict.fromkeys(fib, 1)),))[1]
        for e, rows in points.items():
            if (w, rows) not in xi:
                xi[w, rows] = billey(BilleyQuery(rs, WeylElement(w), words[rows]))
            assert values.get(e.mask, zero) == xi[w, rows], (letters, w, e)
            checks += 1
    return checks


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_the_schubert_class_pulls_back_to_the_fiber_sum_at_every_point(label):
    """The identity behind the paper's recovery of Billey's formula, at
    every fixed point rather than at the reduced galleries alone: on the
    longest word (every w), and on seeded reduced
    and non-reduced words with every element v(g) of the word as w."""
    rs = RootSystem.from_label(label)
    words = reduced_words(rs)
    rng = random.Random(f"schubert class {label}")
    xi = {}
    checks = check_schubert_class_at_every_point(rs, rs.longest_word(), words, words, xi)
    assert checks == len(words) * 2 ** len(rs.positive_roots)
    for reduced in (True, False) * SCHUBERT_CLASS_WORDS:
        letters = random_word(rs, rng, reduced)
        assert rs.is_reduced(letters) == reduced
        word = BSWord(rs, letters)
        ws = {element(rs, [letters[k - 1] for k in e.support]).rows for e in word.galleries()}
        checks += check_schubert_class_at_every_point(rs, letters, ws, words, xi)
    assert checks > len(words) * 2 ** len(rs.positive_roots)
    # the identity is not carried by zeros: each w is nonzero somewhere
    assert {w for (w, _), value in xi.items() if not value.is_zero} == set(words)
