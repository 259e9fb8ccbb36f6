#!/usr/bin/env python3
"""Produce the checked-in A2 worked example (src/bottsam/data/golden_a2.txt).

Deliberately does not import the package: the table comes straight from the
defining product-of-weights formula with sympy matrices, the two products
are found by solving the 8x8 linear system over the table, the relations
come from the Cartan matrix, and the subword sum is enumerated by brute
force.  Output is meant to be reviewed by hand before being committed.

Usage: ``python scripts/make_golden_a2.py [OUT]``; ``OUT`` defaults to the
checked-in file.
"""

import argparse
import itertools
import pathlib

import sympy as sp

A = ((2, -1), (-1, 2))  # A2 Cartan matrix
LETTERS = (1, 2, 1)
N = 3
RANK = 2
VARS = sp.symbols("a1 a2")

# reflection r_i as a matrix on simple-root coordinates:
# r_i(alpha_k) = alpha_k - A[i][k] * alpha_i
REFLS = []
for i in range(RANK):
    m = sp.eye(RANK)
    for k in range(RANK):
        m[i, k] -= A[i][k]
    REFLS.append(sp.Matrix(m))


def gallery_key(bits):
    return (sum(bits), tuple(1 - b for b in bits))


GALLERIES = sorted(itertools.product((0, 1), repeat=N), key=gallery_key)


def bits_str(bits):
    return "".join(str(b) for b in bits)


def weight_expr(vec):
    return sum(vec[k] * VARS[k] for k in range(RANK))


def alphas(bits):
    """Localization weights: the i-th simple root pushed through the
    reflections at the on positions to its left."""
    v = sp.eye(RANK)
    out = []
    for pos in range(N):
        mu = sp.Matrix([[int(k == LETTERS[pos] - 1)] for k in range(RANK)])
        out.append(weight_expr(v * mu))
        if bits[pos]:
            v = v * REFLS[LETTERS[pos] - 1]
    return out


def sigma(e, ep):
    if any(a > b for a, b in zip(e, ep)):
        return sp.Integer(0)
    weights = alphas(ep)
    out = sp.Integer(1)
    for pos in range(N):
        if e[pos]:
            out *= weights[pos]
    return sp.expand(out)


def fmt(expr):
    """The canonical text form used across the artifact: descending
    graded-lex terms, ``^`` powers, unit coefficients elided."""
    expr = sp.expand(expr)
    if expr == 0:
        return "0"
    poly = sp.Poly(expr, *VARS, domain="QQ")
    terms = sorted(
        poly.terms(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0]))
    )
    parts = []
    for exp, coef in terms:
        coef = sp.Rational(coef)
        factors = []
        for k, e in enumerate(exp):
            if e == 1:
                factors.append(f"a{k + 1}")
            elif e > 1:
                factors.append(f"a{k + 1}^{e}")
        mag = abs(coef)
        if factors:
            body = "*".join(factors)
            if mag != 1:
                body = f"{mag}*{body}"
        else:
            body = str(mag)
        if not parts:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(parts)


def table_section():
    lines = ["== table =="]
    lines.append("# columns: " + ", ".join(bits_str(g) for g in GALLERIES))
    for e in GALLERIES:
        row = ", ".join(fmt(sigma(e, ep)) for ep in GALLERIES)
        lines.append(f"{bits_str(e)}: {row}")
    return lines


def relations_section():
    lines = ["== ordinary relations =="]
    for i in range(1, N + 1):
        parts = [f"x{i}^2"]
        for j in range(1, i):
            a = A[LETTERS[j - 1] - 1][LETTERS[i - 1] - 1]
            if not a:
                continue
            body = f"x{j}*x{i}"
            if abs(a) != 1:
                body = f"{abs(a)}*{body}"
            parts.append(f"+ {body}" if a > 0 else f"- {body}")
        lines.append(" ".join(parts) + " = 0")
    return lines


def product_section(left, right):
    lines = [f"== product {bits_str(left)} {bits_str(right)} =="]
    # M c = f with M[ep][e] = sigma(e, ep): solve for the coordinates of the
    # pointwise product in the triangular basis
    M = sp.Matrix(
        [[sigma(e, ep) for e in GALLERIES] for ep in GALLERIES]
    )
    f = sp.Matrix(
        [[sp.expand(sigma(left, ep) * sigma(right, ep))] for ep in GALLERIES]
    )
    c = M.solve(f)
    entries = []
    for k, e in enumerate(GALLERIES):
        coeff = sp.cancel(c[k])
        assert sp.denom(coeff) == 1, (e, coeff)
        if coeff != 0:
            entries.append(f"{bits_str(e)}: {fmt(coeff)}")
    lines.append(", ".join(entries) if entries else "0")
    return lines


def billey_section():
    lines = ["== billey w=1 v=1 2 1 =="]
    target = REFLS[0]  # r1
    betas = []
    v = sp.eye(RANK)
    for pos in range(N):
        mu = sp.Matrix([[int(k == LETTERS[pos] - 1)] for k in range(RANK)])
        betas.append(weight_expr(v * mu))
        v = v * REFLS[LETTERS[pos] - 1]
    total = sp.Integer(0)
    m = 1  # length of r1
    for tup in itertools.combinations(range(N), m):
        prod = sp.eye(RANK)
        for j in tup:
            prod = prod * REFLS[LETTERS[j] - 1]
        if prod == target:
            term = sp.Integer(1)
            for j in tup:
                term *= betas[j]
            total += term
    lines.append(fmt(sp.expand(total)))
    return lines


GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "src" / "bottsam" / "data" / "golden_a2.txt"


def main(argv=None):
    parser = argparse.ArgumentParser(description="Write the A2 worked example.")
    parser.add_argument("out", nargs="?", type=pathlib.Path, default=GOLDEN,
                        help="file to write (default: the checked-in golden file)")
    out = parser.parse_args(argv).out
    lines = (
        table_section()
        + relations_section()
        + product_section((0, 0, 1), (0, 0, 1))
        + product_section((1, 0, 0), (0, 0, 1))
        + billey_section()
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
