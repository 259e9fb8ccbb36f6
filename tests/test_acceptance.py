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


def test_criterion_5_fails_on_an_ordinary_product_with_its_sign_flipped(monkeypatch):
    from bottsam import RootSystem, ordinary_multiply

    monkeypatch.setattr(selftest, "ordinary_multiply",
                        lambda left, right: ordinary_multiply(left, right).scaled(-1))
    monkeypatch.setattr(selftest, "_origin_words", lambda: [(RootSystem.from_label("A1"), (1,))])
    result = selftest.check_origin_homomorphism()
    assert not result.passed
    assert result.detail.startswith("4 pairs; A1 prefix 1: 0 times 0: 1 vs -1; ")


def test_criterion_6_fails_on_an_expand_that_drops_a_coordinate(monkeypatch):
    from bottsam import BSWord, CohClass, RootSystem, expand

    monkeypatch.setattr(
        selftest, "expand",
        lambda word, values: CohClass(word, dict(list(expand(word, values).coords.items())[1:])),
    )
    word = BSWord(RootSystem.from_label("A1"), (1,))
    monkeypatch.setattr(selftest, "_roundtrip_classes", lambda seed: [CohClass.unit(word)])
    result = selftest.check_expansion_roundtrip(seed=0)
    assert not result.passed
    assert result.detail == "1 random classes; case 0: A1 (1,)"



def test_criterion_3_fails_on_a_billey_with_its_betas_reversed(monkeypatch):
    from bottsam import schubert

    billey = schubert.billey

    def reversed_betas(q):
        size, keys, forms = q._betas
        q._betas = size, keys, forms[::-1]
        return billey(q)

    monkeypatch.setattr(schubert, "billey", reversed_betas)
    monkeypatch.setattr(selftest, "BILLEY_TYPES", ("A2",))
    result = selftest.check_billey_suite()
    assert not result.passed
    assert result.detail.startswith("42 checks; A2: w of length 1 at 110; ")


def test_criterion_4_fails_on_a_billey_that_depends_on_the_reduced_word(monkeypatch):
    from bottsam import Polynomial, billey

    monkeypatch.setattr(
        selftest, "billey", lambda q: billey(q) + Polynomial.constant(q.rs.rank, q.v_word[0])
    )
    monkeypatch.setattr(selftest, "INDEPENDENCE_TYPES", ("A2",))
    result = selftest.check_reduced_word_independence()
    assert not result.passed
    assert result.detail.startswith("6 comparisons; A2: values differ between (1, 2, 1) and (2, 1, 2); ")


def test_criterion_7_fails_on_a_stored_golden_file_with_one_changed_line(monkeypatch):
    stored = selftest.golden_a2_stored()
    assert stored.endswith("\na1 + a2\n")
    monkeypatch.setattr(selftest, "golden_a2_stored", lambda: stored[: -len("a1 + a2\n")] + "a1 - a2\n")
    result = selftest.check_golden_file()
    assert not result.passed
    assert result.detail == "20 lines; line 20: computed 'a1 + a2' != stored 'a1 - a2'"
