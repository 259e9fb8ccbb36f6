"""A gallery stores an integer mask; everything it derives from the mask
agrees with the formulas on the tuple of bits."""

import itertools
import random
from fractions import Fraction

import pytest

from bottsam import Gallery, IndexOutOfRange, LengthMismatch


def all_bits(n):
    return list(itertools.product((0, 1), repeat=n))


def random_bits(rng, n, count):
    return [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(count)]


EXHAUSTIVE = [b for n in range(11) for b in all_bits(n)]
RANDOM = [b for n in range(11, 21) for b in random_bits(random.Random(n), n, 60)]


@pytest.mark.parametrize("cases", [EXHAUSTIVE, RANDOM], ids=["lengths 0-10", "lengths 11-20"])
def test_derived_forms_match_the_tuple_formulas(cases):
    for bits in cases:
        e = Gallery(bits)
        text = "".join(map(str, bits))
        assert e.bits == bits and len(e) == len(bits)
        assert e.mask == sum(b << 8 * k for k, b in enumerate(bits))
        assert e.ones == sum(bits)
        assert e.support == tuple(i + 1 for i, b in enumerate(bits) if b)
        assert str(e) == text and repr(e) == f"Gallery({text})"
        if bits:
            assert Gallery.from_string(text) == e and Gallery.from_string(text).bits == bits


@pytest.mark.parametrize("cases", [EXHAUSTIVE, RANDOM], ids=["lengths 0-10", "lengths 11-20"])
def test_sort_key_orders_as_the_tuple_key(cases):
    def tuple_key(bits):
        return (sum(bits), tuple(1 - b for b in bits))

    galleries = [Gallery(bits) for bits in cases]
    random.Random(0).shuffle(galleries)
    by_mask = [g.bits for g in sorted(galleries, key=Gallery.sort_key)]
    assert by_mask == sorted(cases, key=tuple_key)


def test_leq_matches_the_componentwise_loop():
    rng = random.Random(1)
    pairs = [(a, b) for n in range(7) for a in all_bits(n) for b in all_bits(n)]
    for n in range(7, 21):
        pairs += zip(random_bits(rng, n, 200), random_bits(rng, n, 200))
        # pairs with a <= b, which random pairs of long galleries rarely are
        pairs += [(tuple(x & y for x, y in zip(a, b)), b)
                  for a, b in zip(random_bits(rng, n, 50), random_bits(rng, n, 50))]
    for a, b in pairs:
        assert Gallery(a).leq(Gallery(b)) == all(x <= y for x, y in zip(a, b))
    with pytest.raises(LengthMismatch):
        Gallery((1, 0)).leq(Gallery((1, 0, 0)))


def test_equality_and_hash_follow_the_bits():
    galleries = [Gallery(bits) for bits in EXHAUSTIVE[:2047:7]]
    for g, h in itertools.product(galleries, repeat=2):
        assert (g == h) == (g.bits == h.bits)
        if g == h:
            assert hash(g) == hash(h)
    assert Gallery((1, 0)) != Gallery((1, 0, 0)) and Gallery(()) != Gallery((0,))
    assert len({Gallery((1, 0)), Gallery((1, 0, 0)), Gallery([1, 0])}) == 2
    assert len({Gallery(bits) for bits in EXHAUSTIVE}) == len(EXHAUSTIVE)
    assert Gallery((1,)) != (1,)


def test_unit_and_the_empty_gallery():
    for n in range(1, 12):
        for i in range(1, n + 1):
            assert Gallery.unit(n, i).bits == tuple(int(k == i - 1) for k in range(n))
        for i in (0, n + 1):
            with pytest.raises(IndexOutOfRange):
                Gallery.unit(n, i)
    empty = Gallery(())
    assert (empty.bits, empty.mask, len(empty), empty.ones, empty.support) == ((), 0, 0, 0, ())
    assert str(empty) == "" and empty == Gallery.zero(0) and empty.leq(Gallery([]))


def test_the_constructor_converts_and_refuses_as_before():
    floats = [(1.5, 0), (0.9, 1), (1.0, 0), (float("nan"),), (float("inf"),)]
    # a text bit is "0" or "1": no other digit, no blank or leading zero
    texts = [("x",), ("\u0661", "0"), ("\uff11",), (" 1", "0"), ("01", "0"), ("1_0",), ("",)]
    # a tuple is read as it is; any other iterable, a one-shot generator
    # too, is read once and then validated the same way
    for form in (tuple, list, lambda bits: (b for b in bits)):
        assert Gallery(form((True, 0, "1"))).bits == (1, 0, 1)
        assert Gallery(form((0, 1, 1, 0))).mask == 1 << 8 | 1 << 16
        assert Gallery(form(())).bits == ()
        for bad in [(2,), (0, -1), (256,), (1, 0.5, 3), (Fraction(3, 2),), *floats, *texts]:
            with pytest.raises(ValueError, match="gallery bits must be 0 or 1"):
                Gallery(form(bad))
    assert Gallery("101").bits == (1, 0, 1)
    for text in ["", "012", " 01", "1\n"]:
        with pytest.raises(ValueError, match="not a gallery bit string"):
            Gallery.from_string(text)
