import itertools

import pytest

from bottsam import (
    BSWord,
    BilleyQuery,
    Gallery,
    NotLongestWord,
    NotReducedGallery,
    NotReducedWord,
    Polynomial,
    RootSystem,
    Weight,
    beta_sequence,
    billey,
    check_billey_identity,
    divide_exact,
    fiber,
    parse_polynomial,
    reduced_word_of_gallery,
)
from bottsam.schubert import check_billey_identities

A2 = RootSystem.from_label("A2")
B2 = RootSystem.from_label("B2")


def g(text):
    return Gallery.from_string(text)


def p(text, rank=2):
    return parse_polynomial(text, rank)


def test_beta_sequence_a2():
    betas = beta_sequence(A2, (1, 2, 1))
    assert betas == [Weight.of((1, 0)), Weight.of((1, 1)), Weight.of((0, 1))]


def test_beta_sequence_b2_is_the_inversion_set():
    betas = beta_sequence(B2, (1, 2, 1, 2))
    assert betas == [
        Weight.of((1, 0)),
        Weight.of((1, 1)),
        Weight.of((1, 2)),
        Weight.of((0, 1)),
    ]
    assert set(betas) == set(B2.positive_roots)


def test_beta_sequence_single_letter():
    assert beta_sequence(A2, (2,)) == [Weight.of((0, 1))]
    assert beta_sequence(RootSystem.from_label("A1"), (1,)) == [Weight.of((1,))]


def test_beta_sequence_requires_reduced():
    with pytest.raises(NotReducedWord):
        beta_sequence(A2, (1, 1))


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
        for beta in beta_sequence(rs, word):
            expected = expected * parse_polynomial(str(beta), rs.rank)
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
    assert reduced_word_of_gallery(word, g("110")) == (1, 2)
    assert reduced_word_of_gallery(word, g("000")) == ()
    with pytest.raises(NotReducedGallery):
        reduced_word_of_gallery(word, g("101"))


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


def test_verify_keeps_nothing_in_the_beta_table():
    d4 = RootSystem.from_label("D4")
    word = BSWord(d4, d4.longest_word())
    before = dict(d4._betas)
    agree = check_billey_identities(word, d4.weyl_from_word((1, 2, 3, 4)))
    assert len(agree) == 1096 and all(agree)
    assert d4._betas == before


# ---- GKM conditions: an oracle that shares nothing with the subword sum ----

def reduced_words(rs):
    """A reduced word of each element of W, keyed by its rows: breadth
    first from the identity, so each element is first met by a shortest
    word."""
    words = {rs.identity_rows: ()}
    frontier = [()]
    while frontier:
        new = []
        for word in frontier:
            for i in range(1, rs.rank + 1):
                rows = rs.weyl_from_word(word + (i,)).rows
                if rows not in words:
                    words[rows] = word + (i,)
                    new.append(word + (i,))
        frontier = new
    return words


def column(rows, i):
    return tuple(r[i - 1] for r in rows)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_billey_values_satisfy_the_gkm_conditions(label):
    """For all w and v in W and each positive root beta, xi^w(v) -
    xi^w(s_beta v) is a multiple of beta, and xi^w(w) is the product of
    the betas of a reduced word of w, each found here from plain matrix
    products."""
    rs = RootSystem.from_label(label)
    words = reduced_words(rs)
    # s_beta = u r_i u^-1 for beta = u(alpha_i), column i of u
    reflections = {}
    for rows, word in words.items():
        for i in range(1, rs.rank + 1):
            beta = column(rows, i)
            if min(beta) >= 0:
                reflections.setdefault(beta, word + (i,) + word[::-1])
    assert len(reflections) == len(rs.positive_roots)
    for w_word in words.values():
        w = rs.weyl_from_word(w_word)
        xi = {v_word: billey(BilleyQuery(rs, w, v_word)) for v_word in words.values()}
        for v_word, value in xi.items():
            for beta, s in reflections.items():
                moved = words[rs.weyl_from_word(s + v_word).rows]
                divide_exact(value - xi[moved], Weight(beta))  # NotDivisible otherwise
        product = Polynomial.one(rs.rank)
        for j, i in enumerate(w_word):
            beta = column(rs.weyl_from_word(w_word[:j]).rows, i)
            product = product * Polynomial.from_weight(Weight(beta))
        assert xi[w_word] == product, (w_word, str(xi[w_word]))
