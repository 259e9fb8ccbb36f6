"""Exact sparse polynomials in the simple-root variables, plus fractions
whose denominators are multisets of linear forms.

A :class:`Polynomial` is a map from exponent vectors to nonzero exact
coefficients: ``int``, since every root is an integer vector, and ``Fraction``
only where the input has one (a ``p/q`` in the text, or an inexact quotient).
The variables ``a1..ar`` are the simple roots, so the ring carries a
Weyl-group action by substituting each variable with the image root.  The
fraction type never expands its denominator: localization produces only
products of roots, so cancellation reduces to repeated exact division by
linear forms and no multivariate gcd is needed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Sequence

from .errors import NotDivisible, RankMismatch, ResidualDenominator, ZeroForm
from .rootsystem import Weight, WeylElement, exact

Monomial = tuple[int, ...]


def _term_sort_key(exp: Monomial) -> tuple:
    # graded-lexicographic, largest first when sorted ascending by this key
    return (-sum(exp), tuple(-e for e in exp))


class Polynomial:
    """A sparse multivariate polynomial with exact coefficients."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict[Monomial, int | Fraction] | None = None):
        self.rank = rank
        if terms:
            self.terms = {e: c for e, c in terms.items() if c != 0}
        else:
            self.terms = {}

    # ---- constructors --------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "Polynomial":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "Polynomial":
        return cls.constant(rank, 1)

    @classmethod
    def constant(cls, rank: int, value: Fraction | int) -> "Polynomial":
        v = exact(value)
        return cls(rank, {(0,) * rank: v} if v else None)

    @classmethod
    def variable(cls, rank: int, i: int) -> "Polynomial":
        """The degree-1 polynomial a_i (1-based)."""
        exp = tuple(int(k == i - 1) for k in range(rank))
        return cls(rank, {exp: 1})

    @classmethod
    def from_weight(cls, w: Weight) -> "Polynomial":
        """The linear form with the weight's coordinates."""
        rank = w.rank
        terms: dict[Monomial, int | Fraction] = {}
        for k, c in enumerate(w.coords):
            if c != 0:
                terms[tuple(int(j == k) for j in range(rank))] = c
        return cls(rank, terms)

    # ---- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> int | Fraction:
        return self.terms.get((0,) * self.rank, 0)

    def total_degree(self) -> int:
        """Maximum total degree; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exp: Monomial) -> int | Fraction:
        return self.terms.get(exp, 0)

    # ---- ring operations ------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.rank != self.rank:
                raise RankMismatch(
                    f"polynomials of rank {self.rank} and {other.rank}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.rank, other)
        return None

    def __add__(self, other) -> "Polynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in p.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = Polynomial.__new__(Polynomial)
        res.rank = self.rank
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        res = Polynomial.__new__(Polynomial)
        res.rank = self.rank
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other) -> "Polynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self + (-p)

    def __rsub__(self, other) -> "Polynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return p + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial.zero(self.rank)
            res = Polynomial.__new__(Polynomial)
            res.rank = self.rank
            res.terms = {e: c * other for e, c in self.terms.items()}
            return res
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        out: dict[Monomial, int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in p.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        res = Polynomial.__new__(Polynomial)
        res.rank = self.rank
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.one(self.rank)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.rank, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    __hash__ = None  # mutable dict inside; not intended as a key

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def weyl_act(w: WeylElement, p: Polynomial) -> Polynomial:
    """The ring automorphism sending each variable a_i to w(alpha_i).

    Degree-preserving; multiplicative by construction.
    """
    if w.rank != p.rank:
        raise RankMismatch(f"element of rank {w.rank} on polynomial of rank {p.rank}")
    rank = p.rank
    # column k of the matrix is the image of alpha_{k+1}
    images = [
        Polynomial.from_weight(Weight(tuple(w.rows[j][k] for j in range(rank))))
        for k in range(rank)
    ]
    powers: list[dict[int, Polynomial]] = [{} for _ in range(rank)]

    def image_power(k: int, n: int) -> Polynomial:
        if n not in powers[k]:
            powers[k][n] = images[k] ** n
        return powers[k][n]

    out = Polynomial.zero(rank)
    for exp, coef in p.terms.items():
        term = Polynomial.constant(rank, coef)
        for k, e in enumerate(exp):
            if e:
                term = term * image_power(k, e)
        out = out + term
    return out


def _quotient(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """``a / b`` exactly: floor division when ``b`` divides the integer
    ``a``, else a ``Fraction`` (``/`` on two ints would give a float)."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return exact(Fraction(a, b))


def divide_exact(p: Polynomial, form: Weight) -> Polynomial:
    """Exact quotient of ``p`` by a nonzero linear form.

    Synthetic division on the form's leading variable; raises
    :class:`NotDivisible` when a remainder survives.
    """
    if form.is_zero:
        raise ZeroForm("division by the zero form")
    if form.rank != p.rank:
        raise RankMismatch(f"form of rank {form.rank} on polynomial of rank {p.rank}")
    if p.is_zero:
        return p
    k = next(i for i, c in enumerate(form.coords) if c != 0)
    c_lead = form.coords[k]
    form_poly = Polynomial.from_weight(form)

    quot: dict[Monomial, int | Fraction] = {}
    rem = p
    while True:
        if rem.is_zero:
            break
        deg = max(e[k] for e in rem.terms)
        if deg == 0:
            raise NotDivisible(f"{p} is not divisible by {form}")
        # peel the whole top slice in the pivot variable at once
        t_terms = {
            e[:k] + (e[k] - 1,) + e[k + 1:]: _quotient(coef, c_lead)
            for e, coef in rem.terms.items()
            if e[k] == deg
        }
        t = Polynomial(p.rank, t_terms)
        for e, coef in t.terms.items():
            s = quot.get(e, 0) + coef
            if s:
                quot[e] = s
            else:
                del quot[e]
        rem = rem - t * form_poly
    return Polynomial(p.rank, quot)


class LinearCombFraction:
    """``numerator / product of linear forms``, the shape of localization
    summands.

    Denominator forms are sign-normalized (first nonzero coordinate
    positive), with the compensating sign folded into the numerator; a zero
    numerator clears the denominator, so zero is canonical.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, forms: Iterable[Weight] = ()):
        sign = 1
        den: dict[Weight, int] = {}
        for f in forms:
            if f.rank != numerator.rank:
                raise RankMismatch("denominator form has the wrong rank")
            if f.is_zero:
                raise ZeroForm("zero linear form in a denominator")
            s, nf = f.sign_normalized()
            sign *= s
            den[nf] = den.get(nf, 0) + 1
        if numerator.is_zero:
            den = {}
        self.numerator = numerator if sign == 1 else -numerator
        self.denominator = den

    @property
    def rank(self) -> int:
        return self.numerator.rank

    def denominator_forms(self) -> Iterator[Weight]:
        """The denominator multiset, each form repeated by multiplicity."""
        for w, m in self.denominator.items():
            for _ in range(m):
                yield w

    def reduce(self) -> "LinearCombFraction":
        """Cancel every denominator form that exactly divides the numerator."""
        if self.numerator.is_zero or not self.denominator:
            return self
        num = self.numerator
        den = dict(self.denominator)
        progress = True
        while progress and den:
            progress = False
            for form in sorted(den, key=lambda w: w.coords):
                while den.get(form, 0) > 0:
                    try:
                        num = divide_exact(num, form)
                    except NotDivisible:
                        break
                    den[form] -= 1
                    progress = True
                if den.get(form) == 0:
                    del den[form]
        out = LinearCombFraction.__new__(LinearCombFraction)
        out.numerator = num
        out.denominator = den
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCombFraction):
            return NotImplemented
        return (
            self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    __hash__ = None

    def __str__(self) -> str:
        if not self.denominator:
            return str(self.numerator)
        parts = []
        for w in sorted(self.denominator, key=lambda w: w.coords):
            m = self.denominator[w]
            parts.append(f"({w})" if m == 1 else f"({w})^{m}")
        return f"({self.numerator}) / {'*'.join(parts)}"

    def __repr__(self) -> str:
        return f"LinearCombFraction({self})"


def fraction_sum(fractions: Sequence[LinearCombFraction]) -> LinearCombFraction:
    """Exact sum over the least common multiple of the denominator multisets,
    followed by :meth:`LinearCombFraction.reduce`."""
    fracs = list(fractions)
    if not fracs:
        raise ValueError("fraction_sum needs at least one fraction")
    rank = fracs[0].rank
    lcm: dict[Weight, int] = {}
    for f in fracs:
        if f.rank != rank:
            raise RankMismatch("fractions of different ranks")
        for w, m in f.denominator.items():
            if lcm.get(w, 0) < m:
                lcm[w] = m
    order = sorted(lcm, key=lambda w: w.coords)
    form_polys = {w: Polynomial.from_weight(w) for w in order}
    total = Polynomial.zero(rank)
    for f in fracs:
        if f.numerator.is_zero:
            continue
        scaled = f.numerator
        for w in order:
            for _ in range(lcm[w] - f.denominator.get(w, 0)):
                scaled = scaled * form_polys[w]
        total = total + scaled
    forms = [w for w in order for _ in range(lcm[w])]
    return LinearCombFraction(total, forms).reduce()


def fraction_to_polynomial(f: LinearCombFraction) -> Polynomial:
    """Assert full cancellation and return the numerator."""
    reduced = f.reduce()
    if reduced.denominator:
        raise ResidualDenominator(f"denominator did not cancel: {reduced}")
    return reduced.numerator


# ---- text form ----------------------------------------------------------

def format_polynomial(p: Polynomial, var_prefix: str = "a") -> str:
    """Canonical text: terms in descending graded-lex order, variables
    ``a1..ar``, unit coefficients elided, e.g. ``-2*a1^2*a2 + a1*a2 + 3``."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for exp in sorted(p.terms, key=_term_sort_key):
        coef = p.terms[exp]
        factors = []
        for k, e in enumerate(exp):
            if e == 1:
                factors.append(f"{var_prefix}{k + 1}")
            elif e > 1:
                factors.append(f"{var_prefix}{k + 1}^{e}")
        mag = abs(coef)
        if factors:
            body = "*".join(factors) if mag == 1 else f"{mag}*" + "*".join(factors)
        else:
            body = str(mag)
        if not parts:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(parts)


_TOKEN = re.compile(r"\s*(?:(?P<var>[a-zA-Z]+\d+)|(?P<num>\d+)|(?P<op>[-+*/^]))")


def _tokenize(text: str, var_prefix: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"bad character in polynomial at {text[pos:]!r}")
        if m.lastgroup == "var":
            name = m.group("var")
            if not name.startswith(var_prefix):
                raise ValueError(f"unknown variable {name!r}")
            tokens.append(("var", name[len(var_prefix):]))
        elif m.lastgroup == "num":
            tokens.append(("num", m.group("num")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


def parse_polynomial(text: str, rank: int, var_prefix: str = "a") -> Polynomial:
    """Parse the canonical polynomial text form (inverse of
    :func:`format_polynomial`); also accepts rational coefficients ``p/q``."""
    tokens = _tokenize(text, var_prefix)
    if not tokens:
        raise ValueError("empty polynomial text")
    pos = 0

    def peek() -> tuple[str, str] | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> tuple[str, str]:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"polynomial text {text!r} ends too early")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_number() -> int | Fraction:
        kind, val = take()
        if kind != "num":
            raise ValueError(f"expected a number, got {val!r}")
        value = int(val)
        nxt = peek()
        if nxt == ("op", "/"):
            take()
            kind2, val2 = take()
            if kind2 != "num" or int(val2) == 0:
                raise ValueError("expected a nonzero denominator after '/'")
            value = Fraction(value, int(val2))
        return value

    terms: dict[Monomial, int | Fraction] = {}

    def parse_term(sign: int) -> None:
        coef = sign
        exps = [0] * rank
        while True:
            tok = peek()
            if tok is None:
                raise ValueError("term ended unexpectedly")
            kind, val = tok
            if kind == "num":
                coef *= parse_number()
            elif kind == "var":
                take()
                idx = int(val)
                if not 1 <= idx <= rank:
                    raise ValueError(f"variable index {idx} out of range 1..{rank}")
                e = 1
                if peek() == ("op", "^"):
                    take()
                    kind2, val2 = take()
                    if kind2 != "num":
                        raise ValueError("expected an exponent after '^'")
                    e = int(val2)
                exps[idx - 1] += e
            else:
                raise ValueError(f"unexpected {val!r} in term")
            if peek() == ("op", "*"):
                take()
                continue
            break
        exp = tuple(exps)
        terms[exp] = terms.get(exp, 0) + coef

    sign = 1
    tok = peek()
    if tok == ("op", "-"):
        take()
        sign = -1
    elif tok == ("op", "+"):
        take()
    while True:
        parse_term(sign)
        tok = peek()
        if tok is None:
            break
        if tok == ("op", "+"):
            take()
            sign = 1
        elif tok == ("op", "-"):
            take()
            sign = -1
        else:
            raise ValueError(f"unexpected {tok[1]!r} between terms")
    return Polynomial(rank, {e: exact(c) for e, c in terms.items()})
