"""The rewrite tables that outlive a call: the generator rules a word keeps
for ``multiply`` and ``ordinary_multiply`` alike, and the beta columns per
reduced word and the weak intervals per element that a root system keeps
for ``billey``, and the exponent tuples per width it keeps for the packed
monomials that ``multiply`` and ``billey`` unpack.

A warm table must give what a cold one gives, tables of different Cartan
matrices must not mix, the bound ``MEMO_MAX_ENTRIES`` must stop a table
without changing a result, and a word that fails validation must fail
every time.
"""

import random

import pytest

from bottsam import (
    BUILTIN_CARTAN,
    BSWord,
    Gallery,
    BilleyQuery,
    CohClass,
    IndexOutOfRange,
    NotReducedWord,
    OrdinaryClass,
    RootSystem,
    billey,
    evaluate_at_origin,
    multiply,
    multiply_by_localization,
    ordinary_multiply,
    parse_polynomial,
    rootsystem,
)
from bottsam.schubert import _reduced_walk, check_billey_identities
from reference import zero_test_keeps as kept

CUSTOM = {
    "A1xA1": ((2, 0), (0, 2)),
    "A1xB2": ((2, 0, 0), (0, 2, -1), (0, -2, 2)),
}
SYSTEMS = [RootSystem.from_label(label) for label in sorted(BUILTIN_CARTAN)] + [
    RootSystem(matrix, label) for label, matrix in CUSTOM.items()
]
IDS = [rs.label for rs in SYSTEMS]


def fresh(rs):
    """A root system of the same Cartan matrix with an empty beta table."""
    return RootSystem(rs.cartan, rs.label)


def seeded_pairs(rng, n, count):
    def bits():
        return Gallery(tuple(rng.randint(0, 1) for _ in range(n)))

    return [(bits(), bits()) for _ in range(count)]


def kept_pairs(rng, n, count):
    """Seeded pairs that overlap and that the zero test keeps, so that
    each product reads the generator table."""
    pairs = []
    while len(pairs) < count:
        a, b = seeded_pairs(rng, n, 1)[0]
        if a.mask & b.mask and kept(a, b):
            pairs.append((a, b))
    return pairs


def product(word, a, b):
    return ordinary_multiply(OrdinaryClass.basis(word, a), OrdinaryClass.basis(word, b))


def all_int(c):
    return all(type(v) is int for v in c.coords.values())


@pytest.mark.parametrize("rs", SYSTEMS, ids=IDS)
def test_warm_and_cold_rewrite_tables_give_the_same_products(rs):
    rng = random.Random(f"tables:{rs.label}")
    for n in (5, 9, 12):
        letters = [rng.randint(1, rs.rank) for _ in range(n)]
        warm = BSWord(rs, letters)
        pairs = kept_pairs(rng, n, 12)
        first = [product(warm, a, b) for a, b in pairs]
        assert warm._generators  # the products met some overlaps
        for (a, b), got in zip(pairs, first):
            cold = product(BSWord(rs, letters), a, b)
            assert got == cold and product(warm, a, b) == cold, (letters, a, b)
            assert all_int(got) and all_int(cold)


def test_words_over_different_cartan_matrices_never_share_entries():
    letters = (1, 2, 1, 2, 1, 2)
    words = [BSWord(RootSystem.from_label(label), letters) for label in ("A2", "B2", "G2")]
    pairs = [(Gallery((a,) * 3 + (b,) * 3), Gallery((b, a) * 3)) for a in (0, 1) for b in (0, 1)]
    pairs += seeded_pairs(random.Random("shared"), len(letters), 10)
    # interleave the words, so that any sharing would feed one's entries to another
    results = {id(word): [] for word in words}
    for a, b in pairs:
        for word in words:
            results[id(word)].append(product(word, a, b))
    for word in words:
        cold = [product(BSWord(word.rs, letters), a, b) for a, b in pairs]
        assert results[id(word)] == cold
    tables = [word._generators for word in words]
    assert len({id(t) for t in tables}) == 3
    # same keys, different rewrites: the Cartan numbers differ
    assert tables[0].keys() & tables[1].keys()
    assert any(tables[0][k] != tables[1][k] for k in tables[0].keys() & tables[1].keys())


def test_bounded_tables_stop_growing_and_keep_their_results(monkeypatch):
    d4 = RootSystem.from_label("D4")
    letters = [d4.longest_word()[k % 12] for k in range(14)]
    pairs = kept_pairs(random.Random("bound"), len(letters), 20)
    unbounded = [product(BSWord(d4, letters), a, b) for a, b in pairs]
    lw = d4.longest_word()
    queries = [(d4.weyl_from_word(lw[: k // 2]), lw[:k]) for k in range(len(lw) + 1)]
    values = [billey(BilleyQuery(d4, w, v)) for w, v in queries]
    monkeypatch.setattr(rootsystem, "MEMO_MAX_ENTRIES", 5)
    word, rs = BSWord(d4, letters), fresh(d4)
    assert [product(word, a, b) for a, b in pairs] == unbounded
    assert [billey(BilleyQuery(rs, w, v)) for w, v in queries] == values
    assert len(word._generators) == 5 and len(rs._betas) == 5
    # a second round runs partly from the full tables, partly past them
    assert [product(word, a, b) for a, b in pairs] == unbounded
    assert [billey(BilleyQuery(rs, w, v)) for w, v in queries] == values
    assert len(word._generators) == 5 and len(rs._betas) == 5
    monkeypatch.setattr(rootsystem, "MEMO_MAX_ENTRIES", 0)
    word, rs = BSWord(d4, letters), fresh(d4)
    assert [product(word, a, b) for a, b in pairs] == unbounded
    assert [billey(BilleyQuery(rs, w, v)) for w, v in queries] == values
    assert not word._generators and not rs._betas


def test_the_exponent_tables_per_width_are_transparent_and_bounded(monkeypatch):
    """With the bound patched to 8, a root system gives the products and
    subword sums of one with the default bound, read cold and warm, at one
    and at two bytes per exponent, and no table of exponent tuples holds
    more than 8."""

    def answers(rs):
        rng = random.Random("exponent tables")
        word, lw = BSWord(rs, (1, 2, 3, 1, 2, 3, 1, 2)), rs.longest_word()
        wide = CohClass(word, {Gallery.unit(8, 3): parse_polynomial("a1^250*a2 - a3^3 + 2", 3)})
        out = []
        for a, b in seeded_pairs(rng, word.n, 30):
            basis = CohClass.basis(word, a)
            out += [multiply(basis, CohClass.basis(word, b)), multiply(wide, basis)]
        for _ in range(30):
            on = sorted(rng.sample(range(len(lw)), rng.randint(0, 5)))
            out.append(billey(BilleyQuery(rs, rs.weyl_from_word([lw[j] for j in on]), lw)))
        return out

    fresh_b3 = RootSystem.from_label("B3")
    want = answers(fresh_b3)
    monkeypatch.setattr(rootsystem, "MEMO_MAX_ENTRIES", 8)
    bounded = RootSystem.from_label("B3")
    for rs in (bounded, fresh_b3):
        for _ in range(2):  # cold, then warm
            assert answers(rs) == want
            assert all(len(keys) <= 8 for _, keys in bounded._packings.values())
    assert sorted(bounded._packings) == [1, 2]
    assert all(len(keys) == 8 for _, keys in bounded._packings.values())
    assert all(len(keys) > 8 for _, keys in fresh_b3._packings.values())


def test_ordinary_and_equivariant_products_share_one_table(monkeypatch):
    d4 = RootSystem.from_label("D4")
    word = BSWord(d4, d4.longest_word()[:10])
    assert not hasattr(word, "_rewrites")
    # one overlap bit: both products need the rule at that bit for the
    # bits of the other factor below it, and nothing else; its key is the
    # mask of the bits up to and including the overlap bit
    pairs = [(e, Gallery.unit(word.n, i)) for e in word.galleries()[::13] for i in e.support]
    pairs = [(a, b) for a, b in pairs if kept(a, b)]  # a skipped pair reads no rule
    ordinary = [product(word, a, b) for a, b in pairs]
    table = dict(word._generators)
    assert set(table) == {a.mask & (b.mask << 1) - 1 for a, b in pairs}
    equivariant = [multiply(CohClass.basis(word, a), CohClass.basis(word, b)) for a, b in pairs]
    assert word._generators.keys() == table.keys()
    assert all(word._generators[key] is entry for key, entry in table.items())
    assert [evaluate_at_origin(c) for c in equivariant] == ordinary
    # a bounded table gives the same products and never holds more than the bound
    for bound in (0, 1, 5):
        monkeypatch.setattr(rootsystem, "MEMO_MAX_ENTRIES", bound)
        bounded = BSWord(d4, word.letters)
        for (a, b), want, want_ordinary in zip(pairs, equivariant, ordinary):
            assert product(bounded, a, b) == want_ordinary
            assert len(bounded._generators) <= bound
            assert multiply(CohClass.basis(bounded, a), CohClass.basis(bounded, b)) == want
            assert len(bounded._generators) <= bound
        assert len(bounded._generators) == bound


@pytest.mark.parametrize("label", ["A1", "B3", "D4"])
def test_a_pair_the_zero_test_skips_is_zero_and_reads_no_rule(label):
    rs = RootSystem.from_label(label)
    rng = random.Random(f"skipped:{label}")
    letters = [rng.randint(1, rs.rank) for _ in range(9)]
    word = BSWord(rs, letters)
    for a, b in kept_pairs(rng, word.n, 10):  # a warm table, to show it is left alone
        product(word, a, b)
    table = dict(word._generators)
    skipped = [(a, b) for a, b in seeded_pairs(rng, word.n, 200) if not kept(a, b)]
    assert len(skipped) >= 40
    for a, b in skipped:
        assert product(word, a, b) == OrdinaryClass.zero(word)
        assert word._generators == table
        assert all(word._generators[key] is entry for key, entry in table.items())
    # the independent route agrees that they are zero
    for a, b in skipped[:10]:
        equivariant = multiply_by_localization(CohClass.basis(word, a), CohClass.basis(word, b))
        assert evaluate_at_origin(equivariant).is_zero


def test_no_seeded_pair_at_nine_letters_on_a1_reads_a_rule():
    # the 12 pairs the warm-and-cold test drew at 9 letters on A1 before it
    # drew only kept pairs: 9 are skipped and 3 are disjoint
    rng = random.Random("tables:A1")
    for n in (5, 9):
        word = BSWord(RootSystem.from_label("A1"), [rng.randint(1, 1) for _ in range(n)])
        pairs = seeded_pairs(rng, n, 12)
    assert sum(not kept(a, b) for a, b in pairs) == 9
    assert sum(not a.mask & b.mask for a, b in pairs) == 3
    for a, b in pairs:
        assert product(word, a, b).is_zero == (not kept(a, b))
    assert word._generators == {}


def test_a_non_reduced_word_raises_every_time():
    a2 = RootSystem.from_label("A2")
    w = a2.weyl_from_word((1,))
    assert billey(BilleyQuery(a2, w, (1, 2, 1))) == billey(BilleyQuery(fresh(a2), w, (1, 2, 1)))
    assert (1, 2, 1) in a2._betas  # the reduced prefix is cached
    for _ in range(3):
        for v in [(1, 2, 1, 1), (1, 2, 1, 2), (1, 1)]:
            with pytest.raises(NotReducedWord):
                BilleyQuery(a2, w, v)
    assert set(a2._betas) == {(1, 2, 1)}
    # letters that only compare equal to integers never reach a cached word
    for v in [(1.0, 2.0, 1.0), (1, 2, 1.5)]:
        with pytest.raises(IndexOutOfRange, match="not an integer"):
            BilleyQuery(a2, w, v)
    assert set(a2._betas) == {(1, 2, 1)}


@pytest.mark.parametrize("rs", SYSTEMS, ids=IDS)
def test_subword_sums_are_integers_from_cold_and_warm_tables(rs):
    lw = rs.longest_word()
    cold_rs = fresh(rs)
    for k in range(len(lw) + 1):
        w = rs.weyl_from_word(lw[: (k + 1) // 2])
        warm = billey(BilleyQuery(rs, w, lw[:k]))
        cold = billey(BilleyQuery(fresh(rs), w, lw[:k]))
        again = billey(BilleyQuery(cold_rs, w, lw[:k]))
        assert warm == cold == again
        for value in (warm, cold, billey(BilleyQuery(rs, w, lw[:k]))):
            assert all(type(c) is int for c in value.terms.values())


def held(rs):
    """Elements in the weak intervals ``rs`` keeps."""
    return sum(count for _, _, count in rs._intervals.values())


def interval_queries(rs):
    """Elements of lengths up to half of w0's at prefixes of the longest
    word, then w0 at the longest word, whose interval is the whole group."""
    lw = rs.longest_word()
    queries = [(rs.weyl_from_word(lw[k:][: (k + 1) // 2]), lw[: len(lw) - k % 3]) for k in range(len(lw))]
    return queries + [(rs.weyl_from_word(lw), lw)]


@pytest.mark.parametrize("bound", [0, 5, 40])
def test_the_interval_table_holds_at_most_the_bound_in_elements(monkeypatch, bound):
    for label in ("B3", "D4"):
        queries = interval_queries(RootSystem.from_label(label))
        cold = [billey(BilleyQuery(RootSystem.from_label(label), w, v)) for w, v in queries]
        monkeypatch.setattr(rootsystem, "MEMO_MAX_ENTRIES", bound)
        rs = RootSystem.from_label(label)
        for _ in range(2):  # the second round runs partly from the full table
            assert [billey(BilleyQuery(rs, w, v)) for w, v in queries] == cold
            assert held(rs) <= bound
        # the intervals that fit were kept, the others serve their call only
        assert bool(rs._intervals) == (bound > 0)
        assert len(rs._intervals) < len({w.rows for w, _ in queries})
        monkeypatch.undo()


def test_intervals_are_kept_per_element_and_counted_in_elements():
    d4 = RootSystem.from_label("D4")
    queries = interval_queries(d4)
    values = [billey(BilleyQuery(d4, w, v)) for w, v in queries]
    assert d4._intervals.keys() == {w.rows for w, _ in queries}
    w0 = queries[-1][0]
    edges, _, count = d4._intervals[w0.rows]
    assert count == 192  # the whole group
    assert sum(map(len, edges)) == 192 * 4 // 2  # one up-edge per element and ascent
    tables = dict(d4._intervals)
    assert [billey(BilleyQuery(d4, w, v)) for w, v in queries] == values
    assert all(d4._intervals[k] is entry for k, entry in tables.items())
    assert held(d4) <= rootsystem.MEMO_MAX_ENTRIES


def test_billey_identity_checks_fill_the_table_billey_reads():
    b3 = RootSystem.from_label("B3")
    word = BSWord(b3, b3.longest_word())
    walk = [Gallery._of_mask(m, word.n) for m, _ in _reduced_walk(word)]
    walk.sort(key=Gallery.sort_key)
    galleries = walk[::97]
    w = b3.weyl_from_word((1, 2, 3, 2))
    assert all(check_billey_identities(word, w, galleries))
    entry = b3._intervals[w.rows]
    assert list(b3._intervals) == [w.rows]
    v = b3.longest_word()[:7]
    assert billey(BilleyQuery(b3, w, v)) == billey(BilleyQuery(fresh(b3), w, v))
    assert b3._intervals == {w.rows: entry} and b3._intervals[w.rows] is entry
