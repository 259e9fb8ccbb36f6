"""Exact sparse polynomials in the simple-root variables, exact division
by a linear form, and the canonical text form.

A :class:`Polynomial` is a map from exponent vectors to nonzero exact
coefficients: ``int``, since every root is an integer vector, and ``Fraction``
only where the input has one (a ``p/q`` in the text, or an inexact quotient).
The variables ``a1..ar`` are the simple roots.  Localization divides only by
roots, so :func:`divide_exact` by one linear form at a time is all the
division the package needs; no fraction of polynomials and no multivariate
gcd is ever formed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add

from .errors import MAX_DIGITS, NotDivisible, RankMismatch, ZeroForm, _cut, _quoted

Monomial = tuple[int, ...]


def exact(value) -> int | Fraction:
    """An exact coefficient: ``int`` when ``value`` is integral, else a
    ``Fraction``.  Roots and everything built from them stay on ``int``.
    A ``float`` is refused, since it holds a binary fraction, not the number
    written; so is a ``str``, since text is read by the polynomial grammar."""
    if type(value) is int:
        return value
    if isinstance(value, (float, str)):
        kind = type(value).__name__
        raise ValueError(f"coefficient {_quoted(value)} is a {kind}; give an int or a Fraction")
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


def _term_sort_key(exp: Monomial) -> tuple:
    # graded-lexicographic, largest first when sorted ascending by this key
    return (-sum(exp), tuple(-e for e in exp))


class Polynomial:
    """A sparse multivariate polynomial with exact coefficients."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict[Monomial, int | Fraction] | None = None):
        self.rank = rank
        self.terms = {}
        if not terms:
            return
        # an exponent key is a tuple of ``rank`` non-negative ints: any other
        # key would print wrongly or never meet its equal
        for e in terms:
            if e.__class__ is not tuple or not all(k.__class__ is int and k >= 0 for k in e):
                raise ValueError(f"exponent key {_quoted(e)} is not a tuple of non-negative ints")
        for e, c in terms.items():
            if len(e) != rank:
                raise RankMismatch(f"exponent key {_quoted(e)} has {len(e)} entries, not the rank {rank}")
            if q := exact(c):
                self.terms[e] = q

    # ---- constructors --------------------------------------------------

    @classmethod
    def _of(cls, rank: int, terms: dict[Monomial, int | Fraction]) -> "Polynomial":
        """A polynomial of nonzero terms the package built, unfiltered."""
        p = cls.__new__(cls)
        p.rank = rank
        p.terms = terms
        return p

    @classmethod
    def zero(cls, rank: int) -> "Polynomial":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "Polynomial":
        return cls._of(rank, {(0,) * rank: 1})

    @classmethod
    def constant(cls, rank: int, value: Fraction | int) -> "Polynomial":
        v = exact(value)
        return cls._of(rank, {(0,) * rank: v} if v else {})

    @classmethod
    def linear(cls, form: tuple) -> "Polynomial":
        """The linear form ``form[0]*a1 + form[1]*a2 + ...``."""
        rank = len(form)
        units = [tuple(int(j == k) for j in range(rank)) for k in range(rank)]
        return cls(rank, dict(zip(units, form)))

    # ---- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> int | Fraction:
        return self.terms.get((0,) * self.rank, 0)

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
                out[e] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                out.pop(e, None)
        return Polynomial._of(self.rank, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.rank, {e: -c for e, c in self.terms.items()})

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
            out = {e: c * other for e, c in self.terms.items()}
        else:
            p = self._coerce(other)
            if p is None:
                return NotImplemented
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in p.terms.items():
                    e = tuple(map(add, e1, e2))
                    s = out.get(e, 0) + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        for e, c in out.items():
            if type(c) is not int and c.denominator == 1:
                out[e] = c.numerator
        return Polynomial._of(self.rank, out)

    __rmul__ = __mul__

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


def _quotient(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """``a / b`` exactly: floor division when ``b`` divides the integer
    ``a``, else a ``Fraction`` (``/`` on two ints would give a float)."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return exact(Fraction(a, b))


def divide_exact(p: Polynomial, form: tuple) -> Polynomial:
    """Exact quotient of ``p`` by the nonzero linear form with coordinates
    ``form``, each an ``int`` or a ``Fraction``.

    Synthetic division on the form's leading variable; raises
    :class:`NotDivisible` when a remainder survives.
    """
    if not isinstance(p, Polynomial):
        raise ValueError(f"{_quoted(p)} is a {type(p).__name__}; give a Polynomial")
    for c in form:
        if not isinstance(c, (int, Fraction)):
            kind = type(c).__name__
            raise ValueError(f"form coordinate {_quoted(c)} is a {kind}; give an int or a Fraction")
    if not any(form):
        raise ZeroForm("division by the zero form")
    if len(form) != p.rank:
        raise RankMismatch(f"form of rank {len(form)} on polynomial of rank {p.rank}")
    if p.is_zero:
        return p
    k = next(i for i, c in enumerate(form) if c)
    c_lead = form[k]
    others = [(j, c) for j, c in enumerate(form) if c and j != k]

    quot: dict[Monomial, int | Fraction] = {}
    rem = dict(p.terms)
    while rem:
        deg = max(e[k] for e in rem)
        if deg == 0:
            divisor = Polynomial.linear(form)
            raise NotDivisible(f"{_cut(str(p))} is not divisible by {_cut(str(divisor))}")
        # peel the top slice in the pivot variable: a quotient term cancels
        # its top term exactly, the rest of the form lands in the slice below
        for e in [e for e in rem if e[k] == deg]:
            t = _quotient(rem.pop(e), c_lead)
            e = e[:k] + (deg - 1,) + e[k + 1:]
            quot[e] = t
            for j, c in others:
                f = e[:j] + (e[j] + 1,) + e[j + 1:]
                s = rem.get(f, 0) - t * c
                if s:
                    rem[f] = s
                else:
                    del rem[f]
    return Polynomial._of(p.rank, quot)


# ---- text form ----------------------------------------------------------

def format_polynomial(p: Polynomial) -> str:
    """Canonical text: terms in descending graded-lex order, variables
    ``a1..ar``, unit coefficients elided, e.g. ``-2*a1^2*a2 + a1*a2 + 3``.
    A coefficient or an exponent of more than ``MAX_DIGITS`` digits is
    refused with a one-line ``ValueError``, as the parser refuses such a
    number."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for exp in sorted(p.terms, key=_term_sort_key):
        coef = p.terms[exp]
        factors = []
        for k, e in enumerate(exp):
            if e == 1:
                factors.append(f"a{k + 1}")
            elif e > 1:
                if e >= _TOO_LONG:
                    raise ValueError(f"exponent of more than {MAX_DIGITS} digits")
                factors.append(f"a{k + 1}^{e}")
        mag = abs(coef)
        if mag.numerator >= _TOO_LONG or mag.denominator >= _TOO_LONG:
            raise ValueError(f"coefficient of more than {MAX_DIGITS} digits")
        if factors:
            body = "*".join(factors) if mag == 1 else f"{mag}*" + "*".join(factors)
        else:
            body = str(mag)
        if not parts:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(parts)


# One match of the scan: a step, a stray run of letters or one stray
# character, or the whitespace at the end of the text, so that the matches
# cover the text.  A step is an optional operator and a factor, each after
# optional whitespace.  The operator is "+" or "-" before a term (optional
# before the first one) or "*" between two factors of a term; a factor is a
# number with an optional "/denominator", or a variable with an optional
# "^power"; the digits are ASCII ones, which ``\d`` and ``int`` are not
# limited to.  The scan is linear in the length of the text: no run of
# whitespace is split between two ``\s*``, so a failed alternative gives a
# run back once at most; and a stray letter takes the letters after it,
# which the variable alternative scanned for an index, so that no run of
# letters is scanned again from each of its letters.
_SCAN = re.compile(
    r"\s*(?:([-+*])\s*)?(?:([0-9]+)(?:\s*/\s*([0-9]+))?|([a-zA-Z]+)([0-9]+)(?:\s*\^\s*([0-9]+))?)"
    r"|\s*([a-zA-Z]+|\S)|\s+\Z"
)


_TOO_LONG = 10**MAX_DIGITS  # the least number of more digits
_LONG_NUMBER = re.compile(rf"(?<![0-9])[0-9]{{{MAX_DIGITS + 1}}}")


def _failed_at(text: str) -> str:
    """The text from where its scan failed, quoted for a message: from the
    first stray character, or from the first term after the first one that
    has no operator before it."""
    for k, m in enumerate(_SCAN.finditer(text)):
        if m[7] or k and not m[1] and (m[2] or m[4]):
            return _quoted(text[m.start():].strip())


def parse_polynomial(text: str, rank: int) -> Polynomial:
    """Parse the canonical polynomial text form (inverse of
    :func:`format_polynomial`); also accepts rational coefficients ``p/q``.

    A term is an optional sign and factors joined by ``*``; a factor is
    ``n``, ``p/q`` with ``q`` nonzero, ``aK`` or ``aK^n`` with ``K`` in
    ``1..rank``, numbers in ASCII digits.  Whitespace may separate any two
    tokens.  Any other text raises a :class:`ValueError` with a one-line
    message; so is a number of more than ``MAX_DIGITS`` digits, on every
    Python.  The text is scanned once, in linear time (twice if it is
    longer than ``MAX_DIGITS``).
    """
    if len(text) > MAX_DIGITS and (long := _LONG_NUMBER.search(text)):
        raise ValueError(f"number of more than {MAX_DIGITS} digits at {_quoted(text[long.start():])}")
    terms: dict[Monomial, int | Fraction] = {}
    exps = None  # exponents of the open term, None until the first term
    for op, n, d, name, idx, power, stray in _SCAN.findall(text):
        if op == "*":
            if exps is None:
                raise ValueError(f"polynomial text {_quoted(text)} starts with '*'")
        elif n or name:
            if exps is not None:  # a new term: the open one is complete
                if not op:
                    raise ValueError(f"expected an operator at {_failed_at(text)}")
                if num:  # as after the loop: a shared helper costs a text 10%
                    exp = tuple(exps)
                    c = num if den == 1 else num // den if not num % den else Fraction(num, den)
                    if exp in terms and not (c := exact(terms[exp] + c)):
                        del terms[exp]
                    else:
                        terms[exp] = c
            exps = [0] * rank
            num = -1 if op == "-" else 1
            den = 1
        elif stray:
            raise ValueError(f"cannot read polynomial text at {_failed_at(text)}")
        else:
            continue  # the whitespace at the end
        if n:
            num *= int(n)
            if d:
                d = int(d)
                if not d:
                    raise ValueError(f"zero denominator in polynomial text {_quoted(text)}")
                den *= d
        else:
            if name != "a":
                raise ValueError(f"unknown variable {_quoted(name + idx)}")
            k = int(idx)
            if not 1 <= k <= rank:
                shown = k if len(idx) <= 40 else _quoted(idx)
                raise ValueError(f"variable index {shown} out of range 1..{rank}")
            exps[k - 1] += int(power) if power else 1
    if exps is None:
        raise ValueError("empty polynomial text")
    if num:  # the last term, completed as the loop completes the others
        exp = tuple(exps)
        c = num if den == 1 else num // den if not num % den else Fraction(num, den)
        if exp in terms and not (c := exact(terms[exp] + c)):
            del terms[exp]
        else:
            terms[exp] = c
    res = Polynomial.__new__(Polynomial)  # inline: the parser is hot on class documents
    res.rank = rank
    res.terms = terms  # zero terms were never stored
    return res
