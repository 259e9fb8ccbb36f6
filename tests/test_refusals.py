"""Every constructor, and ``divide_exact``, refuses a hostile value with the
package's own exception, in one short line, at once: a long text, a long
list of floats, a huge integer, a huge matrix."""

import time

import pytest

from bottsam import BilleyQuery, BSWord, CohClass, Gallery, OrdinaryClass, Polynomial, RootSystem, divide_exact
from bottsam.errors import (
    IndexOutOfRange,
    InvalidCartan,
    LengthMismatch,
    NotDivisible,
    NotFiniteType,
    NotReducedWord,
    RankMismatch,
)

A2 = RootSystem.from_label("A2")
A3 = RootSystem.from_label("A3")
S1 = A3.weyl_from_word((1,))
HUGE = 10**5000
WORD = BSWord(A2, (1, 2, 1))

# (id, the call, the exception it raises)
HOSTILE = [
    ("word-of-floats", lambda: BSWord(A2, [1.5] * 3000), IndexOutOfRange),
    ("word-with-a-huge-letter", lambda: BSWord(A2, [HUGE, 1.5]), IndexOutOfRange),
    ("weyl-word-of-floats", lambda: A2.weyl_from_word([1.5] * 3000), IndexOutOfRange),
    ("matrix-of-floats", lambda: RootSystem([[2.5] * 300] * 300), InvalidCartan),
    ("huge-positive-entry", lambda: RootSystem([[2, HUGE], [-1, 2]]), InvalidCartan),
    ("huge-negative-entry", lambda: RootSystem([[2, -HUGE], [-1, 2]]), NotFiniteType),
    ("json-text-entry",
     lambda: RootSystem.from_json_dict({"matrix": [[2, "x" * 100_000], [-1, 2]]}), InvalidCartan),
    ("from_label", lambda: RootSystem.from_label("Z" * 5000), InvalidCartan),
    ("from_string", lambda: Gallery.from_string("2" * 100_000), ValueError),
    ("long-exponent-key", lambda: Polynomial(2, {(1,) * 100_000: 1}), RankMismatch),
    ("huge-exponent", lambda: Polynomial(2, {(HUGE, -1): 1}), ValueError),
    ("text-coefficient", lambda: Polynomial(2, {(1, 0): "x" * 100_000}), ValueError),
    ("billey-text-element", lambda: BilleyQuery(A3, "x" * 100_000, (1,)), ValueError),
    ("billey-float-letters", lambda: BilleyQuery(A3, S1, [1.5] * 3000), IndexOutOfRange),
    ("billey-long-non-reduced-word", lambda: BilleyQuery(A3, S1, (1,) * 100_000), NotReducedWord),
    ("divide-text", lambda: divide_exact("x" * 100_000, (1, 0, 0)), ValueError),
    ("not-divisible",
     lambda: divide_exact(Polynomial(3, {(k, 0, 0): 1 for k in range(300)}), (0, 1, 0)), NotDivisible),
] + [
    (f"{kind.__name__}-{case}", lambda kind=kind, coords=coords: kind(WORD, coords), error)
    for kind in (CohClass, OrdinaryClass)
    for case, coords, error in [
        ("tuple-key", {(1, 0, 1): 1}, ValueError),
        ("text-key", {"101": 1}, ValueError),
        ("key-of-the-wrong-length", {Gallery((1, 0)): 1}, LengthMismatch),
        ("float-coefficient", {Gallery((1, 0, 1)): 1.5}, ValueError),
        ("text-coefficient", {Gallery((1, 0, 1)): "x" * 100_000}, ValueError),
    ]
]


@pytest.mark.parametrize("call, error", [c[1:] for c in HOSTILE], ids=[c[0] for c in HOSTILE])
def test_hostile_values_are_refused_in_one_short_line(call, error):
    start = time.perf_counter()
    with pytest.raises(error) as info:
        call()
    seconds = time.perf_counter() - start
    message = str(info.value)
    assert type(info.value) is error
    assert "\n" not in message and len(message) <= 300, message[:400]
    assert seconds < 0.05
