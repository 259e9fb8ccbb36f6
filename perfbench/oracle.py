"""Independent arithmetic for checking results.

Nothing here imports ``bottsam``.  Root data is integer vectors in the
simple-root basis, polynomials are plain ``{exponent tuple: Fraction}``
dicts, and the program's answers are read back from their canonical text,
so a bug in the program's own arithmetic cannot hide in its check.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

# Bourbaki-numbered Cartan matrices, rows indexed by simple roots.
CARTAN = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "A4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "C3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    "G2": ((2, -3), (-1, 2)),
}

Poly = dict  # {exponent tuple: Fraction}, no zero coefficients


def reflect(cartan, i: int, lam: tuple[int, ...]) -> tuple[int, ...]:
    """r_i(lam) = lam - <lam, alpha_i^vee> alpha_i (1-based i)."""
    c = sum(a * x for a, x in zip(cartan[i - 1], lam))
    if not c:
        return lam
    out = list(lam)
    out[i - 1] -= c
    return tuple(out)


def gallery_weights(cartan, letters, bits) -> list[tuple[int, ...]]:
    """alpha_k(bits) = (product of the on reflections before k)(alpha_{letter k})."""
    rank = len(cartan)
    out = []
    for k, letter in enumerate(letters):
        lam = tuple(int(j == letter - 1) for j in range(rank))
        for p in range(k - 1, -1, -1):
            if bits[p]:
                lam = reflect(cartan, letters[p], lam)
        out.append(lam)
    return out


def linear(lam) -> Poly:
    rank = len(lam)
    return {
        tuple(int(j == k) for j in range(rank)): Fraction(c)
        for k, c in enumerate(lam)
        if c
    }


def constant(rank: int, c) -> Poly:
    return {(0,) * rank: Fraction(c)} if c else {}


def add(p: Poly, q: Poly, sign: int = 1) -> Poly:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + sign * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def sigma(cartan, letters, e, ep) -> Poly:
    """Value of the basis class of gallery ``e`` at the fixed point ``ep``."""
    rank = len(cartan)
    if any(a > b for a, b in zip(e, ep)):
        return {}
    weights = gallery_weights(cartan, letters, ep)
    out = constant(rank, 1)
    for k, on in enumerate(e):
        if on:
            out = mul(out, linear(weights[k]))
    return out


_TERM = re.compile(r"\s*([+-])?\s*([^\s+-]+)")


def parse(text: str, rank: int) -> Poly:
    """Read the canonical text form ``-2*a1^2*a2 + 3/2*a1 + 1``."""
    out: Poly = {}
    for sign, body in _TERM.findall(text):
        coef = Fraction(-1 if sign == "-" else 1)
        exp = [0] * rank
        for factor in body.split("*"):
            if factor.startswith("a"):
                var, _, power = factor[1:].partition("^")
                exp[int(var) - 1] += int(power or 1)
            else:
                coef *= Fraction(factor)
        out = add(out, {tuple(exp): coef})
    return out


def render(p: Poly) -> str:
    """A text form of ``p`` that the program's polynomial parser accepts."""
    if not p:
        return "0"
    parts = []
    for exp in sorted(p, reverse=True):
        c = p[exp]
        factors = [f"a{k + 1}" + (f"^{e}" if e > 1 else "") for k, e in enumerate(exp) if e]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def bits_of(text: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in text)


def braid_order(cartan, i: int, j: int) -> int:
    """Order of r_i r_j from the Cartan product a_ij * a_ji."""
    return {0: 2, 1: 3, 2: 4, 3: 6}[cartan[i - 1][j - 1] * cartan[j - 1][i - 1]]


def other_reduced_word(cartan, word) -> tuple[int, ...] | None:
    """Another word for the same element, by the first commutation or braid
    move that applies; ``None`` when no move applies."""
    word = tuple(word)
    for k in range(len(word) - 1):
        i, j = word[k], word[k + 1]
        if i == j:
            continue
        m = braid_order(cartan, i, j)
        window = word[k:k + m]
        if len(window) == m and all(x == (i, j)[t % 2] for t, x in enumerate(window)):
            return word[:k] + tuple((j, i)[t % 2] for t in range(m)) + word[k + m:]
    return None


def act(cartan, letters, lam: tuple[int, ...]) -> tuple[int, ...]:
    """(r_{l1} ... r_{lk})(lam): the rightmost reflection acts first."""
    for i in reversed(letters):
        lam = reflect(cartan, i, lam)
    return lam


def subword_sum(cartan, longest, w, e) -> Poly:
    """Sum of the basis values at ``e`` over the reduced subwords of
    ``longest`` (a longest-element word) for the element of the word ``w``:
    the right side of Billey's identity, by brute force over all galleries.

    Elements are compared by their action on ``1000**k`` in the simple-root
    basis.  Every coroot pairs with it to a nonzero value, since the pairings
    with simple roots are at most 3, so only the identity fixes it.
    """
    lam = tuple(1000 ** k for k in range(len(cartan)))
    target = act(cartan, w, lam)
    fiber = [ep for ep in itertools.product((0, 1), repeat=len(longest))
             if act(cartan, [x for x, b in zip(longest, ep) if b], lam) == target]
    shortest = min(sum(ep) for ep in fiber)
    total: Poly = {}
    for ep in fiber:
        if sum(ep) == shortest:
            total = add(total, sigma(cartan, longest, ep, e))
    return total
