"""The acceptance checks behind ``bottsam selftest``.

Each check returns a :class:`CheckResult` instead of raising, so the CLI and
the test suite can both report one line per criterion.  The randomized
checks draw from a seeded generator and are reproducible.
"""

from __future__ import annotations

import importlib.resources
import itertools
import random
import time
from fractions import Fraction

from .bott_samelson import (
    BSWord,
    CohClass,
    Gallery,
    _class_of,
    _walk,
    expand,
    multiply,
    multiply_by_localization,
    restriction_table,
    table_lines,
)
from .ordinary import OrdinaryClass, evaluate_at_origin, ordinary_multiply, relations
from .polyring import Polynomial, format_polynomial
from .rootsystem import RootSystem, SimpleWord, WeylElement
from .schubert import BilleyQuery, _reduced_walk, billey, check_billey_identities

DELTA_TYPES = ("A1", "A2", "B2", "G2", "A3")
BILLEY_TYPES = ("A1", "A2", "B2")  # criterion 3, on their longest words
INDEPENDENCE_TYPES = ("A2", "B2")  # criterion 4, over all their elements
GOLDEN_RESOURCE = "golden_a2.txt"
MAX_REPORTED_FAILURES = 5


class CheckResult:
    __slots__ = ("name", "passed", "detail", "seconds")

    def __init__(self, name: str, passed: bool, detail: str, seconds: float):
        self.name = name
        self.passed = passed
        self.detail = detail
        self.seconds = seconds

    def line(self, index: int) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{index}] {self.name}: {status} ({self.seconds:.1f}s, {self.detail})"


def _finish(name: str, t0: float, failures: list[str], summary: str) -> CheckResult:
    elapsed = time.perf_counter() - t0
    if failures:
        shown = "; ".join(failures[:MAX_REPORTED_FAILURES])
        more = len(failures) - MAX_REPORTED_FAILURES
        if more > 0:
            shown += f"; and {more} more"
        return CheckResult(name, False, f"{summary}; {shown}", elapsed)
    return CheckResult(name, True, summary, elapsed)


def _random_nonreduced_words(
    rs: RootSystem, rng: random.Random, count: int = 20, max_len: int = 5
) -> list[SimpleWord]:
    out: list[SimpleWord] = []
    while len(out) < count:
        length = rng.randint(2, max_len)
        word = tuple(rng.randint(1, rs.rank) for _ in range(length))
        if not rs.is_reduced(word):
            out.append(word)
    return out


def _delta_word_set(seed: int) -> list[tuple[RootSystem, SimpleWord]]:
    rng = random.Random(seed)
    out: list[tuple[RootSystem, SimpleWord]] = []
    for label in DELTA_TYPES:
        rs = RootSystem.from_label(label)
        out.append((rs, rs.longest_word()))
        for letters in _random_nonreduced_words(rs, rng):
            out.append((rs, letters))
    return out


def check_delta_integrals(seed: int = 0) -> CheckResult:
    """Integrals of basis classes over basis subvarieties are Kronecker
    deltas, for the longest word of each supported type and for random
    non-reduced words.  Integrates by localization: one butterfly over a
    basis class's values gives its integral over every gallery subvariety
    at once.  :func:`integrate` reads the answer off by this very duality,
    so checking it would prove nothing."""
    t0 = time.perf_counter()
    failures: list[str] = []
    pairs = 0
    words = 0
    for rs, letters in _delta_word_set(seed):
        words += 1
        word = BSWord(rs, letters)
        for e in word.galleries():
            basis = CohClass.basis(word, e)
            weights, values = _walk(word, (basis,))
            pairs += 2**word.n
            integrals = _class_of(word, values, weights)
            if integrals != basis:
                failures.append(
                    f"{rs.label} {letters}: integrals of {e} are {integrals}"
                )
    return _finish(
        "delta integrals",
        t0,
        failures,
        f"{pairs} pairs over {words} words",
    )


def check_generator_products(seed: int = 0) -> CheckResult:
    """The closed one-generator product rule agrees with pointwise
    multiplication plus expansion, over the same words as the delta suite.
    One walk per basis class gives its values and weights; a product is
    evaluated only above the join of its two factors."""
    t0 = time.perf_counter()
    failures: list[str] = []
    products = 0
    for rs, letters in _delta_word_set(seed):
        word = BSWord(rs, letters)
        gens = [CohClass.basis(word, Gallery.unit(word.n, i)) for i in range(1, word.n + 1)]
        gen_values = [_walk(word, (gen,))[1] for gen in gens]
        for e in word.galleries():
            basis = CohClass.basis(word, e)
            weights, row = _walk(word, (basis,))
            for i, (gen, gen_value) in enumerate(zip(gens, gen_values), 1):
                products += 1
                direct = multiply(gen, basis)
                values = {ep: v * row[ep] for ep, v in gen_value.items() if ep in row}
                generic = _class_of(word, values, weights)
                if direct != generic:
                    failures.append(
                        f"{rs.label} {letters}: generator {i} times {e}:"
                        f" {direct} vs {generic}"
                    )
    return _finish("one-generator products", t0, failures, f"{products} products")


def check_billey_suite() -> CheckResult:
    """The subword-sum value of every group element at every reduced gallery
    of the longest word matches the fiber sum of basis values."""
    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0
    for label in BILLEY_TYPES:
        rs = RootSystem.from_label(label)
        word = BSWord(rs, rs.longest_word())
        # one walk: the reduced galleries, in the check's order, and their elements
        rows_of = {Gallery._of_mask(m, word.n): rows for m, rows in _reduced_walk(word)}
        reduced_gals = sorted(rows_of, key=Gallery.sort_key)
        for rows in dict.fromkeys(rows_of[e] for e in reduced_gals):
            w = WeylElement(rows)
            agree = check_billey_identities(word, w)
            checks += len(agree)
            for e, ok in zip(reduced_gals, agree):
                if not ok:
                    failures.append(f"{label}: w of length {rs.length(w)} at {e}")
    return _finish("subword-sum identity", t0, failures, f"{checks} checks")


def check_reduced_word_independence() -> CheckResult:
    """Subword sums do not depend on which reduced word of v is used."""
    t0 = time.perf_counter()
    failures: list[str] = []
    comparisons = 0
    for label in INDEPENDENCE_TYPES:
        rs = RootSystem.from_label(label)
        elements = rs.weyl_elements()
        for v in elements:
            length = rs.length(v)
            words = [
                w
                for w in itertools.product(range(1, rs.rank + 1), repeat=length)
                if rs.is_reduced(w) and rs.weyl_from_word(w) == v
            ]
            if len(words) < 2:
                continue
            for w in elements:
                reference = billey(BilleyQuery(rs, w, words[0]))
                for other in words[1:]:
                    comparisons += 1
                    if billey(BilleyQuery(rs, w, other)) != reference:
                        failures.append(
                            f"{label}: values differ between {words[0]} and {other}"
                        )
    return _finish(
        "reduced-word independence", t0, failures, f"{comparisons} comparisons"
    )


def _origin_words() -> list[tuple[RootSystem, SimpleWord]]:
    """The prefixes of up to four letters of the longest words of A2 and B2."""
    out: list[tuple[RootSystem, SimpleWord]] = []
    for label in ("A2", "B2"):
        rs = RootSystem.from_label(label)
        w0 = rs.longest_word()
        out += [(rs, w0[:n]) for n in range(1, min(4, len(w0)) + 1)]
    return out


def check_origin_homomorphism() -> CheckResult:
    """Evaluating localization products at the origin agrees with the
    square-free product, for all basis pairs of short prefixes of the
    longest word.  ``ordinary_multiply`` reads the generator rules of
    ``multiply``, so the equivariant side takes the independent route."""
    t0 = time.perf_counter()
    failures: list[str] = []
    pairs = 0
    for rs, letters in _origin_words():
        word = BSWord(rs, letters)
        gals = word.galleries()
        for e1 in gals:
            c1 = CohClass.basis(word, e1)
            x1 = OrdinaryClass.basis(word, e1)
            for e2 in gals:
                pairs += 1
                c2 = CohClass.basis(word, e2)
                lhs = evaluate_at_origin(multiply_by_localization(c1, c2))
                rhs = ordinary_multiply(x1, OrdinaryClass.basis(word, e2))
                if lhs != rhs:
                    failures.append(
                        f"{rs.label} prefix {word.n}: {e1} times {e2}: {lhs} vs {rhs}"
                    )
    return _finish("evaluation at the origin", t0, failures, f"{pairs} pairs")


def _random_polynomial(rng: random.Random, rank: int) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        degree = rng.randint(0, 2)
        exp = [0] * rank
        for _ in range(degree):
            exp[rng.randrange(rank)] += 1
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + Fraction(
            rng.randint(-4, 4), rng.randint(1, 3)
        )
    return Polynomial(rank, {e: c for e, c in terms.items() if c})


def _roundtrip_classes(seed: int) -> list[CohClass]:
    """200 random classes over random words of one to five letters."""
    rng = random.Random(seed + 6)
    labels = ("A1", "A2", "B2", "A3", "G2")
    out = []
    for _ in range(200):
        rs = RootSystem.from_label(rng.choice(labels))
        length = rng.randint(1, 5)
        word = BSWord(rs, tuple(rng.randint(1, rs.rank) for _ in range(length)))
        coords = {}
        for e in word.galleries():
            if rng.random() < 0.35:
                coords[e] = _random_polynomial(rng, rs.rank)
        out.append(CohClass(word, coords))
    return out


def check_expansion_roundtrip(seed: int = 0) -> CheckResult:
    """Expanding the restriction of a random class recovers the class."""
    t0 = time.perf_counter()
    failures: list[str] = []
    classes = _roundtrip_classes(seed)
    for case, c in enumerate(classes):
        word = c.word
        back = expand(word, {e: c.restriction(e) for e in word.galleries()})
        if back != c:
            failures.append(f"case {case}: {word.rs.label} {word.letters}")
    return _finish("expansion roundtrip", t0, failures, f"{len(classes)} random classes")


def golden_a2_sections() -> str:
    """Regenerate the text of the checked-in A2 worked example through the
    public operations (the stored file was produced by an unrelated script
    working straight from the defining product formula)."""
    rs = RootSystem.from_label("A2")
    word = BSWord(rs, (1, 2, 1))
    lines = ["== table =="]
    lines += table_lines(restriction_table(word))
    lines.append("== ordinary relations ==")
    lines += [str(r) for r in relations(word)]
    for left, right in (("001", "001"), ("100", "001")):
        lines.append(f"== product {left} {right} ==")
        prod = multiply(
            CohClass.basis(word, Gallery.from_string(left)),
            CohClass.basis(word, Gallery.from_string(right)),
        )
        lines.append(str(prod))
    lines.append("== billey w=1 v=1 2 1 ==")
    value = billey(BilleyQuery(rs, rs.weyl_from_word((1,)), (1, 2, 1)))
    lines.append(format_polynomial(value))
    return "\n".join(lines) + "\n"


def golden_a2_stored() -> str:
    return (
        importlib.resources.files("bottsam")
        .joinpath("data")
        .joinpath(GOLDEN_RESOURCE)
        .read_text(encoding="utf-8")
    )


def check_golden_file() -> CheckResult:
    """The regenerated A2 worked example matches the stored file exactly."""
    t0 = time.perf_counter()
    failures: list[str] = []
    fresh = golden_a2_sections()
    stored = golden_a2_stored()
    if fresh != stored:
        fresh_lines = fresh.splitlines()
        stored_lines = stored.splitlines()
        for k in range(max(len(fresh_lines), len(stored_lines))):
            a = fresh_lines[k] if k < len(fresh_lines) else "<missing>"
            b = stored_lines[k] if k < len(stored_lines) else "<missing>"
            if a != b:
                failures.append(f"line {k + 1}: computed {a!r} != stored {b!r}")
    return _finish(
        "A2 golden file", t0, failures, f"{len(stored.splitlines())} lines"
    )


ALL_CHECKS = (
    ("delta integrals", check_delta_integrals, True),
    ("one-generator products", check_generator_products, True),
    ("subword-sum identity", check_billey_suite, False),
    ("reduced-word independence", check_reduced_word_independence, False),
    ("evaluation at the origin", check_origin_homomorphism, False),
    ("expansion roundtrip", check_expansion_roundtrip, True),
    ("A2 golden file", check_golden_file, False),
)


def run_all(seed: int = 0) -> list[CheckResult]:
    results = []
    for _, fn, takes_seed in ALL_CHECKS:
        results.append(fn(seed) if takes_seed else fn())
    return results
