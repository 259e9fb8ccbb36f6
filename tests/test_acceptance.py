"""The seven acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with ``-s`` or read the
captured output) and asserts exact equality throughout; the two criteria
with stated runtime budgets also assert them.
"""

from bottsam import selftest


def report(index, result):
    print(result.line(index))
    assert result.passed, result.detail
    return result


def test_criterion_1_delta_integrals():
    result = report(1, selftest.check_delta_integrals(seed=0))
    assert result.seconds < 120.0, f"budget exceeded: {result.seconds:.1f}s"


def test_criterion_2_generator_products():
    report(2, selftest.check_generator_products(seed=0))


def test_criterion_3_billey_identity():
    result = report(3, selftest.check_billey_suite())
    assert result.seconds < 30.0, f"budget exceeded: {result.seconds:.1f}s"


def test_criterion_4_reduced_word_independence():
    report(4, selftest.check_reduced_word_independence())


def test_criterion_5_origin_ring_homomorphism():
    report(5, selftest.check_origin_homomorphism())


def test_criterion_6_expansion_roundtrip():
    report(6, selftest.check_expansion_roundtrip(seed=0))


def test_criterion_7_a2_golden_file():
    report(7, selftest.check_golden_file())


# Each criterion reports a fault in the route it guards, injected on the
# shortest word that shows it.

def test_criterion_1_fails_on_a_butterfly_that_skips_a_division(monkeypatch):
    from bottsam import RootSystem, bott_samelson

    butterfly = bott_samelson._butterfly
    monkeypatch.setattr(
        bott_samelson, "_butterfly",
        lambda word, values, positions, weights:
            butterfly(word, values, [i for i in positions if i != 1], weights),
    )
    monkeypatch.setattr(selftest, "_delta_word_set", lambda seed: [(RootSystem.from_label("A1"), (1,))])
    result = selftest.check_delta_integrals(seed=0)
    assert not result.passed
    assert result.detail.startswith("4 pairs over 1 words; A1 (1,): integrals of 0 are ")


def test_criterion_2_fails_on_a_multiply_off_by_one_class(monkeypatch):
    from bottsam import RootSystem, multiply

    monkeypatch.setattr(selftest, "multiply", lambda left, right: multiply(left, right) + left)
    monkeypatch.setattr(selftest, "_delta_word_set", lambda seed: [(RootSystem.from_label("A1"), (1,))])
    result = selftest.check_generator_products(seed=0)
    assert not result.passed
    assert result.detail.startswith("2 products; A1 (1,): generator 1 times 0: ")
