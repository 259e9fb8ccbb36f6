#!/usr/bin/env python3
"""The mutant catalogue: small faults the tests must catch, kept so that
every later change can show they still do.

A mutant is a file under ``src/bottsam``, an exact text that occurs in it
once, the text put in its place, and the test node ids that must fail.  For
each mutant the script copies ``src/`` to a temporary directory, applies
that one replacement to the copy, and runs ``pytest -x`` on the mutant's
nodes with ``PYTHONPATH`` on the copy.  The mutant is caught when pytest
reports a failed test (exit code 1).  First the nodes of every mutant run
once on the unchanged copy, where they must pass.

Usage, from anywhere: ``python3 scripts/mutants.py``, which runs every
mutant and prints one line for each.

Exits 0 when every mutant is caught; 1 when a text does not occur exactly
once, the unchanged copy fails a node, or a mutant survives or breaks pytest
in another way (a syntax error, a node id that no longer exists).  Uses the
standard library and pytest only.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

PARSE_FUZZ = "tests/test_parse_fuzz.py::test_parser_agrees_with_the_reference_on_random_texts"
CHEVALLEY = "tests/test_schubert.py::test_billey_satisfies_the_pointwise_chevalley_identity"
FIBER_SUM = "tests/test_schubert.py::test_the_schubert_class_pulls_back_to_the_fiber_sum_at_every_point[B3]"
BILLEY_LOOP = "for i, form in zip(q.v_word, forms):"
INTEGRAL = "c = num if den == 1 else num // den if not num % den else Fraction(num, den)"
ZERO_TEST = "tests/test_ordinary.py::test_the_zero_test_skips_only_pairs_whose_product_is_zero"
UNIT_COPY = "tests/test_generator_kernel.py::test_a_unit_coefficient_takes_the_product_without_aliasing_its_inputs"
CHANGES_ONE = "tests/test_generator_kernel.py::test_a_caller_that_changes_one_class_changes_no_other"
TWO_BYTES = "tests/test_overlap_kernels.py::test_two_byte_packing_on_a_270_letter_word"
WIDE_DEGREES = "tests/test_generator_kernel.py::test_degrees_above_the_word_length_are_packed_wide_enough"
EXPONENT_TABLES = "tests/test_rewrite_tables.py::test_the_exponent_tables_per_width_are_transparent_and_bounded"
CHEVALLEY_CLASSES = "tests/test_schubert.py::test_multiply_satisfies_chevalley_as_a_class_identity"
STRUCTURE = "tests/test_schubert.py::test_multiply_gives_graham_positive_structure_constants"
SHARED = "tests/test_bott_samelson.py::test_both_kinds_of_class_share_equality_and_sums"
CRITERION_1 = "tests/test_acceptance.py::test_criterion_1_fails_on_a_butterfly_that_skips_a_division"
CRITERION_2 = "tests/test_acceptance.py::test_criterion_2_fails_on_a_multiply_off_by_one_class"
CRITERION_5 = "tests/test_acceptance.py::test_criterion_5_fails_on_an_ordinary_product_with_its_sign_flipped"
CRITERION_6 = "tests/test_acceptance.py::test_criterion_6_fails_on_an_expand_that_drops_a_coordinate"
VIEW = "tests/test_bott_samelson.py::test_coords_is_a_new_view_keyed_by_gallery"
HOSTILE = "tests/test_refusals.py::test_hostile_values_are_refused_in_one_short_line"
CRITERION_3 = "tests/test_acceptance.py::test_criterion_3_fails_on_a_billey_with_its_betas_reversed"
CRITERION_4 = "tests/test_acceptance.py::test_criterion_4_fails_on_a_billey_that_depends_on_the_reduced_word"
CRITERION_7 = "tests/test_acceptance.py::test_criterion_7_fails_on_a_stored_golden_file_with_one_changed_line"
CANCEL = "tests/test_ordinary.py::test_a_product_whose_terms_cancel_is_zero_and_integral_sums_are_ints"

# (name, file under src/bottsam, exact text, replacement, node ids)
MUTANTS = [
    ("parser: exponent ignored", "polyring.py",
     "exps[k - 1] += int(power) if power else 1", "exps[k - 1] += 1",
     ["tests/test_parse_fuzz.py::test_grammar_examples", PARSE_FUZZ]),
    ("parser: term sign dropped", "polyring.py",
     'num = -1 if op == "-" else 1', "num = 1",
     ["tests/test_parse_fuzz.py::test_grammar_examples", PARSE_FUZZ]),
    ("parser: missing operator accepted", "polyring.py",
     "if not op:", "if False:",
     ["tests/test_polyring.py::test_parse_errors", PARSE_FUZZ]),
    # the parser completes a term in its loop, when the next term opens, and
    # the last term after the loop: the indentation tells the two apart
    ("parser: Fraction kept for integral terms in the loop", "polyring.py",
     " " * 20 + INTEGRAL, " " * 20 + "c = Fraction(num, den)",
     ["tests/test_integer_core.py::test_rational_text_keeps_fractions", PARSE_FUZZ]),
    ("parser: Fraction kept for an integral last term", "polyring.py",
     "\n" + " " * 8 + INTEGRAL, "\n" + " " * 8 + "c = Fraction(num, den)",
     ["tests/test_integer_core.py::test_rational_text_keeps_fractions", PARSE_FUZZ]),
    ("parser: a stray letter taken alone, rescanning a run of letters", "polyring.py",
     r"|\s*([a-zA-Z]+|\S)|", r"|\s*(\S)|",
     ["tests/test_polyring.py::test_parse_takes_linear_time_on_long_runs"]),
    ("billey: v read in reverse", "schubert.py",
     BILLEY_LOOP, "for i, form in zip(q.v_word[::-1], forms[::-1]):", [CHEVALLEY, FIBER_SUM]),
    ("billey: first letter of v skipped", "schubert.py",
     BILLEY_LOOP, "for i, form in zip(q.v_word[1:], forms[1:]):", [CHEVALLEY, FIBER_SUM]),
    ("billey: betas reversed", "schubert.py",
     BILLEY_LOOP, "for i, form in zip(q.v_word, forms[::-1]):", [CHEVALLEY, FIBER_SUM]),
    # billey builds its one value itself, reading the exponent tuples of
    # its width from the table that multiply's exit reads and fills
    ("billey: odd degrees negated at its exit", "schubert.py",
     "        terms[key] = c\n", "        terms[key] = -c if sum(key) % 2 else c\n",
     [CHEVALLEY, FIBER_SUM]),
    ("billey: the table of exponent tuples grows past its bound", "schubert.py",
     "            if len(keys) < rootsystem.MEMO_MAX_ENTRIES:\n",
     "            if True:\n", [EXPONENT_TABLES]),
    ("unpack: odd degrees negated, in multiply", "bott_samelson.py",
     "terms[key] = c if", "terms[key] = -c if sum(key) % 2 else c if", [WIDE_DEGREES]),
    ("unpack: only the low byte of each exponent read", "bott_samelson.py",
     'int.from_bytes(b[k : k + size], "little")', "b[k]", [TWO_BYTES, WIDE_DEGREES]),
    ("unpack: one table of exponent tuples for every width", "bott_samelson.py",
     "units, {0: rs._constant}", 'units, rs.__dict__.setdefault("_keys", {0: rs._constant})',
     [EXPONENT_TABLES]),
    ("unpack: the table of exponent tuples grows past its bound", "bott_samelson.py",
     "                if len(keys) < rootsystem.MEMO_MAX_ENTRIES:\n",
     "                if True:\n", [EXPONENT_TABLES]),
    # a correction of the generator rule is -<alpha, alpha_l^vee> sigma_j
    ("generator: each correction's sign flipped", "bott_samelson.py",
     "corrections.append((1 << 8 * j, -c))", "corrections.append((1 << 8 * j, c))",
     [f"{CHEVALLEY_CLASSES}[A2]", f"{STRUCTURE}[A2]"]),
    ("generator: the diagonal coefficient negated", "bott_samelson.py",
     "tuple((v, a) for v, a in enumerate(alpha) if a)", "tuple((v, -a) for v, a in enumerate(alpha) if a)",
     [f"{STRUCTURE}[A1]"]),
    ("cartan: entries read with int, which truncates and parses", "rootsystem.py",
     "tuple(map(operator.index, row))", "tuple(map(int, row))",
     ["tests/test_root_system.py::test_cartan_entries_are_read_exactly"]),
    # the slot of r_i holds r_i u, whose row i - 1 is that row of u less
    # A[i][j] times row j of u, summed over j
    ("cayley: slot holds r_i u", "rootsystem.py",
     "        node[i] = moved\n",
     "        left = tuple(tuple(x - sum(a * rows[j][c] for j, a in nonzero)"
     " for c, x in enumerate(r)) if m == k else r for m, r in enumerate(rows))\n"
     "        node[i] = right.setdefault(left, [left] + [None] * self.rank)\n",
     ["tests/test_root_system.py::test_the_cayley_table_is_transparent_and_bounded"]),
    # the zero test of ordinary_multiply: the t-th overlap position needs t
    # off positions below it
    ("ordinary: zero test one short", "ordinary.py",
     "bit_count() < t", "bit_count() <= t",
     ["tests/test_ordinary.py::test_two_step_rewriting", f"{ZERO_TEST}[A2]"]),
    # a non-empty product is read: cancelled terms dropped, integral
    # Fractions made ints
    ("ordinary: the raw accumulator kept for a non-empty product", "ordinary.py",
     "        acc = {m: c if type(c) is int else exact(c) for m, c in acc.items() if c}\n",
     "        pass\n", [CANCEL]),
    ("ordinary: zero test counts the off positions above", "ordinary.py",
     "off & (bit - 1)", "off & ~(bit - 1)", [f"{ZERO_TEST}[A2]", f"{ZERO_TEST}[A3]"]),
    # a term of unit coefficient joins the product as it is, copied when a
    # later pair reads it
    ("multiply: unit-coefficient term adopted without its copy", "bott_samelson.py",
     "out[mask] = dict(p) if rest and p is p1 else p", "out[mask] = p",
     [f"{UNIT_COPY}[first]", f"{UNIT_COPY}[middle]"]),
    # each basis class and product owns its polynomials and their terms
    ("basis: one terms dict per root system", "bott_samelson.py",
     "one.rank, one.terms = word.rs.rank, {word.rs._constant: 1}",
     'one.rank, one.terms = word.rs.rank, word.rs.__dict__.setdefault("_one", {word.rs._constant: 1})',
     [f"{CHANGES_ONE}[basis]"]),
    ("basis: one polynomial per root system", "bott_samelson.py",
     "c.word, c._by_mask = word, {e.mask: one}",
     'c.word, c._by_mask = word, {e.mask: word.rs.__dict__.setdefault("_one", one)}',
     [f"{CHANGES_ONE}[basis]"]),
    ("multiply: equal product coordinates share a terms dict", "bott_samelson.py",
     "poly.rank, poly.terms = rank, terms",
     "poly.rank, poly.terms = rank, rootsystem.__dict__.setdefault(repr(sorted(terms.items())), terms)",
     [f"{CHANGES_ONE}[product]"]),
    ("gallery: a non-tuple validated without reading it into a tuple", "bott_samelson.py",
     "        if bits.__class__ is not tuple:\n            bits = tuple(bits)\n", "",
     ["tests/test_gallery_masks.py::test_the_constructor_converts_and_refuses_as_before"]),
    # CohClass and OrdinaryClass share their constructor and equality
    ("classes: equality ignores the word", "bott_samelson.py",
     "return self.word == other.word and self._by_mask == other._by_mask",
     "return self._by_mask == other._by_mask",
     [f"{SHARED}[CohClass]", f"{SHARED}[OrdinaryClass]"]),
    ("classes: the constructor keeps a zero coordinate", "bott_samelson.py",
     "            if c is not None:\n                clean[m] = c\n", "            clean[m] = c\n",
     [f"{SHARED}[CohClass]", f"{SHARED}[OrdinaryClass]"]),
    # a class stores its coefficients by mask; ``coords`` is a new view
    ("classes: coords hands out the stored dict", "bott_samelson.py",
     "return {Gallery._of_mask(m, n): c for m, c in self._by_mask.items()}", "return self._by_mask",
     [f"{VIEW}[CohClass]", f"{VIEW}[OrdinaryClass]"]),
    ("billey check: galleries passed in are not validated", "schubert.py",
     "v_words = [_reduced_word_of_gallery(word, e) for e in galleries]",
     "v_words = [tuple(word.letters[i - 1] for i in e.support) for e in galleries]",
     ["tests/test_schubert.py::test_check_billey_identity_input_errors"]),
    # a selftest criterion that cannot fail checks nothing
    ("selftest: criterion 1 never reports a failure", "selftest.py",
     "if integrals != basis:", "if False:", [CRITERION_1]),
    ("selftest: criterion 1 compares the basis class with itself", "selftest.py",
     "integrals = _class_of(word, values, weights)", "integrals = basis", [CRITERION_1]),
    ("selftest: criterion 2 never reports a failure", "selftest.py",
     "if direct != generic:", "if False:", [CRITERION_2]),
    ("selftest: criterion 2 compares multiply with itself", "selftest.py",
     "generic = _class_of(word, values, weights)", "generic = direct", [CRITERION_2]),
    ("selftest: criterion 3 never reports a failure", "selftest.py",
     "if not ok:", "if False:", [CRITERION_3]),
    ("selftest: criterion 4 never reports a failure", "selftest.py",
     "if billey(BilleyQuery(rs, w, other)) != reference:", "if False:", [CRITERION_4]),
    ("selftest: criterion 5 never reports a failure", "selftest.py",
     "if lhs != rhs:", "if False:", [CRITERION_5]),
    ("selftest: criterion 6 never reports a failure", "selftest.py",
     "if back != c:", "if False:", [CRITERION_6]),
    ("selftest: criterion 7 never reports a failure", "selftest.py",
     "if fresh != stored:", "if False:", [CRITERION_7]),
    ("refusal: an unknown type label quoted whole", "rootsystem.py",
     "{_quoted(label)}", "{label!r}", [f"{HOSTILE}[from_label]"]),
    ("refusal: a text that is no gallery quoted whole", "bott_samelson.py",
     "not a gallery bit string: {_quoted(text)}", "not a gallery bit string: {text!r}",
     [f"{HOSTILE}[from_string]"]),
    ("refusal: a polynomial that is not divisible quoted whole", "polyring.py",
     "{_cut(str(p))} is not divisible", "{p} is not divisible", [f"{HOSTILE}[not-divisible]"]),
]


def pytest(src: pathlib.Path, nodes: list[str]) -> int:
    """Exit code of ``pytest -x`` on ``nodes`` with the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *nodes]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    package = ROOT / "src" / "bottsam"
    bad = False
    for name, file, text, _, _ in MUTANTS:
        count = (package / file).read_text(encoding="utf-8").count(text)
        if count != 1:
            print(f"text of {name!r} occurs {count} times in {file}, not once")
            bad = True
    if bad:
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        where = subprocess.run([sys.executable, "-c", "import bottsam; print(bottsam.__file__)"],
                               env=dict(os.environ, PYTHONPATH=str(src)), cwd=ROOT,
                               capture_output=True, text=True).stdout
        if not where.startswith(str(src)):
            print(f"bottsam is imported from {where.strip() or 'nowhere'}, not from the copy")
            return 1
        nodes = sorted({node for m in MUTANTS for node in m[4]})
        if pytest(src, nodes):
            print("the unchanged copy fails the mutants' tests; fix them first")
            return 1
        for name, file, text, replacement, tests in MUTANTS:
            path = src / "bottsam" / file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(text, replacement), encoding="utf-8")
            start = time.perf_counter()
            code = pytest(src, tests)
            path.write_text(original, encoding="utf-8")
            seconds = time.perf_counter() - start
            verdict = {0: "SURVIVED", 1: "caught"}.get(code, f"ERROR (pytest exit {code})")
            print(f"{verdict:<8} {name} ({seconds:.1f} s)")
            bad |= code != 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
