
import pytest

from bottsam import (
    CartanSpec,
    IndexOutOfRange,
    InvalidCartan,
    NotFiniteType,
    NotInWeylGroup,
    RankMismatch,
    RootSystem,
    Weight,
    WeylElement,
    parse_word,
)


def wt(*coords):
    return Weight.of(coords)


def test_builtin_positive_root_counts():
    expected = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "B2": 4, "B3": 9, "C3": 9, "D4": 12, "G2": 6}
    for label, count in expected.items():
        rs = RootSystem.from_label(label)
        assert len(rs.positive_roots) == count, label


def test_a2_positive_roots_listed_in_height_order():
    rs = RootSystem.from_label("A2")
    assert list(rs.positive_roots) == [wt(1, 0), wt(0, 1), wt(1, 1)]


def test_b2_and_g2_positive_roots():
    b2 = RootSystem.from_label("B2")
    assert set(b2.positive_roots) == {wt(1, 0), wt(0, 1), wt(1, 1), wt(1, 2)}
    g2 = RootSystem.from_label("G2")
    assert set(g2.positive_roots) == {
        wt(1, 0), wt(0, 1), wt(1, 1), wt(2, 1), wt(3, 1), wt(3, 2),
    }


def test_cartan_pairing_matches_matrix_columns():
    rs = RootSystem.from_label("G2")
    # pairing of alpha_j against the coroot of alpha_i is the matrix entry
    assert rs.cartan_pairing(wt(0, 1), 1) == -3
    assert rs.cartan_pairing(wt(1, 0), 2) == -1
    assert rs.cartan_pairing(wt(1, 0), 1) == 2


def test_reflections_on_simple_roots():
    rs = RootSystem.from_label("A2")
    assert rs.reflect(1, wt(1, 0)) == wt(-1, 0)
    assert rs.reflect(1, wt(0, 1)) == wt(1, 1)
    assert rs.reflect(2, wt(1, 1)) == wt(1, 0)
    # reflections are involutions
    for i in (1, 2):
        for beta in rs.positive_roots:
            assert rs.reflect(i, rs.reflect(i, beta)) == beta


def test_reflection_matrices_act_like_reflect():
    rs = RootSystem.from_label("B2")
    for i in (1, 2):
        m = rs.simple_reflection(i)
        for beta in rs.positive_roots:
            assert m.apply(beta) == rs.reflect(i, beta)


def test_weyl_from_word_composes_left_to_right():
    rs = RootSystem.from_label("A2")
    w = rs.weyl_from_word((1, 2))
    # r1 r2 sends alpha1 to alpha2: r2 acts first on the argument
    assert w.apply(wt(1, 0)) == wt(0, 1)
    assert rs.weyl_from_word(()) .is_identity


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
        a2.length(b2.simple_reflection(2))


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
        w0 = rs.longest_element()
        for beta in rs.positive_roots:
            image = w0.apply(beta)
            assert all(c <= 0 for c in image.coords)


def test_weyl_elements_counts():
    sizes = {"A1": 2, "A2": 6, "B2": 8, "G2": 12, "A3": 24}
    for label, size in sizes.items():
        rs = RootSystem.from_label(label)
        assert len(rs.weyl_elements()) == size


def test_invalid_cartan_rejected():
    with pytest.raises(InvalidCartan):
        RootSystem(CartanSpec.from_rows([[3]]))
    with pytest.raises(InvalidCartan):
        RootSystem(CartanSpec.from_rows([[2, 1], [-1, 2]]))
    with pytest.raises(InvalidCartan):
        RootSystem(CartanSpec.from_rows([[2, -1], [0, 2]]))
    with pytest.raises(InvalidCartan):
        RootSystem(CartanSpec.from_rows([[2, -1]]))
    with pytest.raises(InvalidCartan):
        CartanSpec.from_label("E9")


def test_affine_matrix_is_not_finite_type():
    # the A1~ affine matrix has an infinite root string
    with pytest.raises(NotFiniteType):
        RootSystem(CartanSpec.from_rows([[2, -2], [-2, 2]]))


def test_cartan_json_schema():
    spec = CartanSpec.from_json_dict({"label": "B2", "matrix": [[2, -1], [-2, 2]]})
    assert spec.label == "B2"
    assert RootSystem(spec).positive_roots
    with pytest.raises(InvalidCartan):
        CartanSpec.from_json_dict({"matrix": [[2, -1], [-2, "2"]]})
    with pytest.raises(InvalidCartan):
        CartanSpec.from_json_dict({"rows": [[2]]})


def test_weight_arithmetic_and_str():
    x = wt(1, 0) + wt(0, 1)
    assert x == wt(1, 1)
    assert -x == wt(-1, -1)
    assert 2 * x == wt(2, 2)
    assert str(wt(1, 1)) == "a1 + a2"
    assert str(wt(-1, 2)) == "-a1 + 2*a2"
    assert str(Weight.zero(2)) == "0"
    with pytest.raises(RankMismatch):
        wt(1) + wt(1, 0)


def test_weyl_element_rank_checks():
    rs2 = RootSystem.from_label("A2")
    with pytest.raises(RankMismatch):
        rs2.simple_reflection(1).apply(wt(1, 0, 0))
    with pytest.raises(IndexOutOfRange):
        rs2.simple_reflection(3)
    with pytest.raises(RankMismatch):
        rs2.simple_reflection(1) @ WeylElement.identity(3)


def test_parse_word():
    assert parse_word("1,2,1") == (1, 2, 1)
    assert parse_word("1 2 1") == (1, 2, 1)
    assert parse_word("") == ()
    assert parse_word("  ") == ()
    with pytest.raises(IndexOutOfRange):
        parse_word("1,x")
