
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
    InvalidCartan,
    NotFiniteType,
    NotInWeylGroup,
    RootSystem,
    WeylElement,
    billey,
    parse_word,
    rootsystem,
)
from reference import act, element, reduced_words, reflection


def test_builtin_positive_root_counts():
    expected = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "B2": 4, "B3": 9, "C3": 9, "D4": 12, "G2": 6}
    for label, count in expected.items():
        rs = RootSystem.from_label(label)
        assert len(rs.positive_roots) == count, label


def test_a2_positive_roots_listed_in_height_order():
    rs = RootSystem.from_label("A2")
    assert list(rs.positive_roots) == [(1, 0), (0, 1), (1, 1)]


def test_b2_and_g2_positive_roots():
    b2 = RootSystem.from_label("B2")
    assert set(b2.positive_roots) == {(1, 0), (0, 1), (1, 1), (1, 2)}
    g2 = RootSystem.from_label("G2")
    assert set(g2.positive_roots) == {
        (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2),
    }


def test_reflections_on_simple_roots():
    rs = RootSystem.from_label("A2")
    r1, r2 = (rs.weyl_from_word((i,)).rows for i in (1, 2))
    assert act(r1, (1, 0)) == (-1, 0)
    assert act(r1, (0, 1)) == (1, 1)
    assert act(r2, (1, 1)) == (1, 0)
    # reflections are involutions
    for i in (1, 2):
        assert rs.weyl_from_word((i, i)) == WeylElement.identity(2)


def test_reflection_matrices_match_the_cartan_matrix():
    # r_i(alpha_j) = alpha_j - A[i][j] alpha_i: G2 has A[1][2] = -3, A[2][1] = -1
    g2 = RootSystem.from_label("G2")
    assert act(g2.weyl_from_word((1,)).rows, (0, 1)) == (3, 1)
    assert act(g2.weyl_from_word((2,)).rows, (1, 0)) == (1, 1)
    for label in ("B2", "G2", "D4"):
        rs = RootSystem.from_label(label)
        for i in range(1, rs.rank + 1):
            assert rs.weyl_from_word((i,)).rows == reflection(rs.cartan, i)


def test_weyl_from_word_composes_left_to_right():
    rs = RootSystem.from_label("A2")
    w = rs.weyl_from_word((1, 2))
    # r1 r2 sends alpha1 to alpha2: r2 acts first on the argument
    assert act(w.rows, (1, 0)) == (0, 1)
    assert rs.weyl_from_word(()) == WeylElement.identity(2)


def test_length_and_is_reduced():
    rs = RootSystem.from_label("A2")
    assert rs.length(rs.weyl_from_word(())) == 0
    assert rs.length(rs.weyl_from_word((1,))) == 1
    assert rs.length(rs.weyl_from_word((1, 2, 1))) == 3
    assert rs.length(rs.weyl_from_word((1, 1))) == 0
    assert rs.is_reduced((1, 2, 1))
    assert not rs.is_reduced((1, 1))
    assert not rs.is_reduced((2, 1, 2, 1))  # only length 3 in A2


def test_length_refuses_an_element_of_another_cartan_matrix():
    a2 = RootSystem.from_label("A2")
    b2 = RootSystem.from_label("B2")
    with pytest.raises(NotInWeylGroup) as info:
        a2.length(b2.weyl_from_word((1, 2, 1, 2)))
    assert "\n" not in str(info.value)
    # B2's own longest element has length 4 there
    assert b2.length(b2.weyl_from_word((1, 2, 1, 2))) == 4
    # a B2 reflection is no A2 element either, though the walk can start
    with pytest.raises(NotInWeylGroup):
        a2.length(b2.weyl_from_word((2,)))


def test_longest_words():
    cases = {
        "A1": (1,),
        "A2": (1, 2, 1),
        "B2": (1, 2, 1, 2),
        "G2": (1, 2, 1, 2, 1, 2),
        "A3": (1, 2, 1, 3, 2, 1),
    }
    for label, word in cases.items():
        rs = RootSystem.from_label(label)
        assert rs.longest_word() == word
        assert rs.is_reduced(word)
        assert len(word) == len(rs.positive_roots)
        # w0 sends every positive root to a negative root
        w0 = element(rs, word)
        for beta in rs.positive_roots:
            assert all(c <= 0 for c in act(w0.rows, beta))


def test_weyl_elements_counts():
    sizes = {"A1": 2, "A2": 6, "B2": 8, "G2": 12, "A3": 24}
    for label, size in sizes.items():
        rs = RootSystem.from_label(label)
        assert len(rs.weyl_elements()) == size


def test_invalid_cartan_rejected():
    with pytest.raises(InvalidCartan):
        RootSystem([[3]])
    with pytest.raises(InvalidCartan):
        RootSystem([[2, 1], [-1, 2]])
    with pytest.raises(InvalidCartan):
        RootSystem([[2, -1], [0, 2]])
    with pytest.raises(InvalidCartan):
        RootSystem([[2, -1]])
    with pytest.raises(InvalidCartan):
        RootSystem.from_label("E9")


def test_affine_matrix_is_not_finite_type():
    # the A1~ affine matrix has an infinite root string
    with pytest.raises(NotFiniteType):
        RootSystem([[2, -2], [-2, 2]])


def test_cartan_json_schema():
    rs = RootSystem.from_json_dict({"label": "B2", "matrix": [[2, -1], [-2, 2]]})
    assert rs.label == "B2"
    assert rs == RootSystem.from_label("B2") and rs.positive_roots
    with pytest.raises(InvalidCartan):
        RootSystem.from_json_dict({"matrix": [[2, -1], [-2, "2"]]})
    with pytest.raises(InvalidCartan):
        RootSystem.from_json_dict({"rows": [[2]]})


@pytest.mark.parametrize("entry", [-1.0, -1.7, Fraction(-1), Fraction(-3, 2), "-1", " -1", None])
def test_cartan_entries_are_read_exactly(entry):
    """An entry is an integer: a float, a Fraction or a text is refused,
    never truncated or parsed into another matrix."""
    with pytest.raises(InvalidCartan, match="has an entry that is not an integer"):
        RootSystem([[2, entry], [-1, 2]])


def test_a_matrix_of_lists_gives_a_hashable_root_system():
    """Rows of any sequence are read into tuples, so a root system built
    from lists equals and hashes as the one built from tuples, and so do
    the words over it."""
    lists = RootSystem([[2, -1], [-1, 2]], "A2")
    tuples = RootSystem(((2, -1), (-1, 2)))
    assert lists.cartan == BUILTIN_CARTAN["A2"]
    assert lists == tuples == RootSystem.from_label("A2")
    assert hash(lists) == hash(tuples)
    assert hash(BSWord(lists, [1, 2, 1])) == hash(BSWord(tuples, (1, 2, 1)))
    assert RootSystem(iter([range(2, -2, -3), [True - 2, 2]])) == tuples


def test_parse_word():
    assert parse_word("1,2,1") == (1, 2, 1)
    assert parse_word("1 2 1") == (1, 2, 1)
    assert parse_word("-1, +2") == (-1, 2)  # a signed letter is read, and refused by range
    assert parse_word("") == ()
    assert parse_word("  ") == ()
    # only ASCII digits: Arabic-Indic and fullwidth digits, "_" separators
    for text in ["1,x", "\u0661,2", "\uff11,\uff12", "1_0", "1.0", "2/1"]:
        with pytest.raises(IndexOutOfRange, match="contains a non-integer letter"):
            parse_word(text)
    # at most MAX_DIGITS digits, read before int reads them: Python's own
    # limit on reading a number does not hold on every version
    assert parse_word("1,-" + "0" * 4299 + "2") == (1, -2)
    long = "+" + "9" * 4301
    with pytest.raises(IndexOutOfRange) as info:
        parse_word(f"1,{long}")
    assert str(info.value) == f"letter {long[:40]!r}... has more than 4300 digits"


def test_long_indices_are_named_by_their_size():
    """A letter, a simple-root index or a position of more than 40 digits
    is named without converting it to text, so even one past Python's
    conversion limit gives the package's message; 40 digits still print."""
    rs = RootSystem.from_label("A2")
    cases = [
        (lambda i: BSWord(rs, [1, i]), "letter {} out of range 1..2"),
        (lambda i: rs.weyl_from_word([i]), "simple-root index {} not in 1..2"),
        (lambda i: rs.is_reduced([i]), "simple-root index {} not in 1..2"),
        (lambda i: Gallery.unit(3, i), "position {} out of range 1..3"),
    ]
    for build, message in cases:
        for i in (10**5000, -10**5000, 10**40, -10**40):
            with pytest.raises(IndexOutOfRange) as info:
                build(i)
            assert str(info.value) == message.format("of more than 40 digits")
        for i in (10**40 - 1, 1 - 10**40):
            with pytest.raises(IndexOutOfRange) as info:
                build(i)
            assert str(info.value) == message.format(i)


# ---- the right Cayley table --------------------------------------------------

# for each built-in type of rank 2 to 4, another of its rank: most elements
# of the other's Weyl group are not in its own
SAME_RANK = {"A2": "B2", "B2": "G2", "G2": "A2", "A3": "B3", "B3": "C3", "C3": "A3",
             "A4": "D4", "D4": "A4"}
TABLE_BOUND = 8


def table_answers(rs, words, queries, check=lambda: None):
    """Everything the table serves on ``rs``, in order, with ``check`` run
    after each call: elements and lengths of ``words``, whether each is
    reduced, the longest word, subword sums and basis values."""
    out = []
    for word in words:
        w = rs.weyl_from_word(word)
        check()
        out += [w, rs.length(w), rs.is_reduced(word)]
        check()
    out.append(rs.longest_word())
    check()
    for w_word, v_word in queries:
        out.append(billey(BilleyQuery(rs, rs.weyl_from_word(w_word), v_word)))
        check()
    word = BSWord(rs, rs.longest_word())
    rng = random.Random(f"restrictions {rs.label}")
    for _ in range(6):
        e, at = (Gallery(tuple(rng.randint(0, 1) for _ in range(word.n))) for _ in range(2))
        out.append(CohClass.basis(word, e).restriction(at))
        check()
    return out


@pytest.mark.parametrize("label", sorted(BUILTIN_CARTAN))
def test_the_cayley_table_is_transparent_and_bounded(monkeypatch, label):
    """A root system whose tables hold at most TABLE_BOUND elements gives
    the answers of a fresh one with the default bound, read cold and warm,
    and its Cayley table never holds more; every element equals its
    product of reference reflection matrices, read cold and warm.  A matrix
    from another Cartan matrix of the same rank still has no length and a
    zero subword sum, and changes no later answer."""
    fresh = RootSystem.from_label(label)
    group = reduced_words(fresh)
    rng = random.Random(f"cayley {label}")
    reduced = list(group.values())
    words = reduced + [tuple(rng.randint(1, fresh.rank) for _ in range(rng.randint(2, 14)))
                       for _ in range(20)]
    v_words = [(), *rng.sample(reduced, min(4, len(reduced))), reduced[-1]]
    queries = [(rng.choice(words), rng.choice(v_words)) for _ in range(16)]
    want = table_answers(fresh, words, queries)
    for word in words:
        assert fresh.weyl_from_word(word) == element(fresh, word)
    assert set(fresh._right) == set(group)  # the whole group entered, nothing else
    monkeypatch.setattr(rootsystem, "MEMO_MAX_ENTRIES", TABLE_BOUND)
    bounded = RootSystem.from_label(label)

    def within_bound():
        assert len(bounded._right) <= TABLE_BOUND

    for rs in (bounded, fresh):
        for _ in range(2):  # cold, then warm
            assert table_answers(rs, words, queries, within_bound) == want
            for word in words:
                assert rs.weyl_from_word(word) == element(rs, word)
    assert len(bounded._right) == min(TABLE_BOUND, len(group))
    if label not in SAME_RANK:
        return
    other = RootSystem.from_label(SAME_RANK[label])
    foreign = [w for w in reduced_words(other) if w not in group]
    assert foreign
    for rs in (bounded, fresh):
        for rows in rng.sample(foreign, min(6, len(foreign))):
            with pytest.raises(NotInWeylGroup):
                rs.length(WeylElement(rows))
            assert billey(BilleyQuery(rs, WeylElement(rows), rs.longest_word())).is_zero
            within_bound()
        assert table_answers(rs, words, queries, within_bound) == want
