"""Property tests on every built-in type and on the custom A1×A1 and A1×B2
Cartan matrices: ``multiply`` and ``ordinary_multiply`` are commutative and
associative, evaluation at the origin carries the equivariant product to the
ordinary one, the integral by duality equals the localization integral, and
polynomial text reads back to the polynomial it was written from.

Derandomized, so every run draws the same examples.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bottsam import (  # noqa: E402
    BUILTIN_CARTAN,
    BSWord,
    CohClass,
    Gallery,
    OrdinaryClass,
    Polynomial,
    RootSystem,
    evaluate_at_origin,
    format_polynomial,
    integrate,
    integrate_by_localization,
    multiply,
    ordinary_multiply,
    parse_polynomial,
)

CUSTOM = {
    "A1xA1": ((2, 0), (0, 2)),
    "A1xB2": ((2, 0, 0), (0, 2, -1), (0, -2, 2)),
}
SYSTEMS = [RootSystem.from_label(label) for label in sorted(BUILTIN_CARTAN)] + [
    RootSystem(matrix, label) for label, matrix in CUSTOM.items()
]
PROPERTY = settings(max_examples=30, derandomize=True, database=None, deadline=None)
COEFFICIENTS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def word(draw, max_letters=8):
    rs = draw(st.sampled_from(SYSTEMS))
    n = draw(st.integers(1, max_letters))
    return BSWord(rs, draw(st.lists(st.integers(1, rs.rank), min_size=n, max_size=n)))


def gallery(n):
    return st.tuples(*[st.integers(0, 1)] * n).map(Gallery)


def ordinary_class(w):
    return st.dictionaries(gallery(w.n), COEFFICIENTS, min_size=1, max_size=3).map(
        lambda coords: OrdinaryClass(w, coords)
    )


def equivariant_class(w):
    """Coordinates of degree at most one: a constant plus a linear form."""
    rank = w.rs.rank
    poly = st.tuples(COEFFICIENTS, st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
    to_poly = lambda t: Polynomial.constant(rank, t[0]) + Polynomial.linear(tuple(t[1]))  # noqa: E731
    return st.dictionaries(gallery(w.n), poly.map(to_poly), min_size=1, max_size=2).map(
        lambda coords: CohClass(w, coords)
    )


@PROPERTY
@given(st.data())
def test_ordinary_multiply_is_commutative_and_associative(data):
    w = data.draw(word())
    x, y, z = (data.draw(ordinary_class(w)) for _ in range(3))
    assert ordinary_multiply(x, y) == ordinary_multiply(y, x)
    assert ordinary_multiply(ordinary_multiply(x, y), z) == ordinary_multiply(
        x, ordinary_multiply(y, z)
    )


@PROPERTY
@given(st.data())
def test_evaluation_at_the_origin_is_a_ring_homomorphism(data):
    w = data.draw(word(max_letters=6))
    x, y = (data.draw(equivariant_class(w)) for _ in range(2))
    assert evaluate_at_origin(multiply(x, y)) == ordinary_multiply(
        evaluate_at_origin(x), evaluate_at_origin(y)
    )


@PROPERTY
@given(st.data())
def test_multiply_is_commutative_and_associative(data):
    w = data.draw(word(max_letters=5))
    x, y, z = (data.draw(equivariant_class(w)) for _ in range(3))
    assert multiply(x, y) == multiply(y, x)
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


@PROPERTY
@given(st.data())
def test_integral_by_duality_equals_the_localization_integral(data):
    w = data.draw(word(max_letters=6))
    c = multiply(data.draw(equivariant_class(w)), data.draw(equivariant_class(w)))
    e = data.draw(gallery(w.n))
    assert integrate(w, e, c) == integrate_by_localization(w, e, c)


@PROPERTY
@given(st.data())
def test_polynomial_text_reads_back(data):
    rank = data.draw(st.sampled_from(SYSTEMS)).rank
    exponents = st.tuples(*[st.integers(0, 3)] * rank)
    terms = data.draw(st.dictionaries(exponents, COEFFICIENTS, max_size=5))
    p = Polynomial(rank, terms)
    assert parse_polynomial(format_polynomial(p), rank) == p
