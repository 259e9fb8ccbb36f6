"""The closed product and integral rules against the localization routes.

``multiply`` applies one-generator rules and ``integrate`` reads off a
coordinate; ``multiply_by_localization`` and ``integrate_by_localization``
compute the same quantities through fixed-point values and exact division
down the tower of P^1-bundles.  The two must agree on every input.
"""

import random

import pytest

from bottsam import (
    BUILTIN_CARTAN,
    BSWord,
    CohClass,
    Polynomial,
    RootSystem,
    integrate,
    integrate_by_localization,
    multiply,
    multiply_by_localization,
)

ROOT_SYSTEMS = {label: RootSystem.from_label(label) for label in BUILTIN_CARTAN}
ROOT_SYSTEMS["A1xA1"] = RootSystem([[2, 0], [0, 2]])

MAX_LETTERS = {"A4": 5, "D4": 5, "B3": 5, "C3": 5, "A3": 5}


def random_word(rng, rs, label):
    n = rng.randint(1, MAX_LETTERS.get(label, 6))
    return BSWord(rs, [rng.randint(1, rs.rank) for _ in range(n)])


def random_combination(rng, word):
    """A class with a few coordinates of degree at most one."""
    rs = word.rs
    gals = word.galleries()
    coords = {}
    for _ in range(rng.randint(1, 3)):
        root = Polynomial.linear(rng.choice(rs.positive_roots))
        coords[rng.choice(gals)] = root * rng.randint(-2, 2) + rng.randint(-3, 3)
    return CohClass(word, coords)


@pytest.mark.parametrize("label", sorted(ROOT_SYSTEMS))
def test_multiply_matches_localization(label):
    rs = ROOT_SYSTEMS[label]
    rng = random.Random(f"multiply {label}")
    for case in range(12):
        word = random_word(rng, rs, label)
        if case % 2:
            a, b = random_combination(rng, word), random_combination(rng, word)
        else:
            gals = word.galleries()
            a = CohClass.basis(word, rng.choice(gals))
            b = CohClass.basis(word, rng.choice(gals))
        assert multiply(a, b) == multiply_by_localization(a, b), (word, str(a), str(b))


@pytest.mark.parametrize("label", sorted(ROOT_SYSTEMS))
def test_integrate_matches_localization(label):
    rs = ROOT_SYSTEMS[label]
    rng = random.Random(f"integrate {label}")
    for case in range(8):
        word = random_word(rng, rs, label)
        gals = word.galleries()
        if case % 2:
            c = multiply(random_combination(rng, word), random_combination(rng, word))
        else:
            c = CohClass.basis(word, rng.choice(gals))
        for e in rng.sample(gals, min(6, len(gals))):
            assert integrate(word, e, c) == integrate_by_localization(word, e, c), (
                word,
                str(e),
                str(c),
            )
