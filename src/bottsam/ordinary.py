"""Ordinary (non-equivariant) cohomology of the space of a word.

The ring is generated by one degree-2 class ``x_i`` per letter, subject to
one relation per position: ``x_i^2 + sum_{j<i} a_{j,i} x_j x_i = 0`` with
``a_{j,i}`` the Cartan number of letter i against the coroot of letter j.
Square-free monomials ``x_eps`` form a basis.  Evaluation at the origin
(dropping all root variables) maps the equivariant ring onto this one, so
a product takes the constant term of the equivariant generator rule, only
where two monomials overlap.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import WordMismatch, _quoted
from .polyring import exact, parse_polynomial
from .bott_samelson import (
    DEFAULT_GALLERY_CAP,
    BSWord,
    CohClass,
    Gallery,
    _GalleryClass,
    _generator,
    _text,
    read_class_doc,
)


class Relation:
    """The relation of position ``i``: x_i^2 + sum of coeff * x_j * x_i = 0."""

    __slots__ = ("position", "terms")

    def __init__(self, position: int, terms: tuple[tuple[int, int], ...]):
        self.position = position
        self.terms = terms  # (j, a_{j,i}) with a_{j,i} != 0, j < i

    def __eq__(self, other) -> bool:
        if other.__class__ is not Relation:
            return NotImplemented
        return (self.position, self.terms) == (other.position, other.terms)

    def __hash__(self) -> int:
        return hash((self.position, self.terms))

    def __repr__(self) -> str:
        return f"Relation(position={self.position!r}, terms={self.terms!r})"

    def __str__(self) -> str:
        parts = [f"x{self.position}^2"]
        for j, a in self.terms:
            body = f"x{j}*x{self.position}"
            if abs(a) != 1:
                body = f"{abs(a)}*{body}"
            parts.append(f"+ {body}" if a > 0 else f"- {body}")
        return " ".join(parts) + " = 0"


def relations(word: BSWord) -> list[Relation]:
    """One relation per position, in position order."""
    A = word.rs.cartan
    out = []
    for i in range(1, word.n + 1):
        li = word.letters[i - 1]
        terms = []
        for j in range(1, i):
            lj = word.letters[j - 1]
            a = A[lj - 1][li - 1]
            if a:
                terms.append((j, a))
        out.append(Relation(i, tuple(terms)))
    return out


class OrdinaryClass(_GalleryClass):
    """A class in the square-free monomial basis, with exact coefficients
    (``int`` when integral, else ``Fraction``)."""

    __slots__ = ()

    @staticmethod
    def _read(word: BSWord, c) -> int | Fraction | None:
        return exact(c) or None

    @staticmethod
    def _json(c: int | Fraction) -> int | str:
        return int(c) if c.denominator == 1 else str(c)

    @classmethod
    def basis(cls, word: BSWord, e: Gallery) -> "OrdinaryClass":
        if e.n != word.n:
            word.check_gallery(e)
        c = cls.__new__(cls)  # inline: one per factor of a product
        c.word, c._by_mask = word, {e.mask: 1}
        return c

    def __str__(self) -> str:
        parts: list[str] = []
        for e, c in self._items():
            if "1" not in e:
                body = str(abs(c))
            else:
                body = f"x_{{{e}}}"
                if abs(c) != 1:
                    body = f"{abs(c)}*{body}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) or "0"

    @classmethod
    def from_json_dict(
        cls, rs, doc: dict, cap: int = DEFAULT_GALLERY_CAP
    ) -> "OrdinaryClass":
        """Read a class document; a text coefficient is a constant in the
        polynomial grammar of :func:`~bottsam.polyring.parse_polynomial`."""
        word, items = read_class_doc(rs, doc, cap)
        by_mask = {}
        for m, v in items:
            if isinstance(v, str):
                p = parse_polynomial(v, rs.rank)
                if any(any(exp) for exp in p.terms):
                    raise ValueError(f"coefficient of {_text(m, word.n)} is not a constant: {_quoted(v)}")
                v = p.constant_term()
            by_mask[m] = v
        return cls._of_masks(word, cls._read_all(word, by_mask))


def ordinary_multiply(c1: OrdinaryClass, c2: OrdinaryClass) -> OrdinaryClass:
    """Bilinear product in the square-free basis, rewriting only where the
    factors overlap.

    ``x_a x_b = x_{a or b}`` times the ``x_i`` over the positions of ``a and
    b``, applied in position order.  With bit i on, ``x_i x_e`` is the
    constant term of :func:`~bottsam.bott_samelson.multiply`'s rule for
    ``x_i sigma_e``, whose diagonal term vanishes at the origin: the
    corrections in the word's generator table, looked up under the mask
    of the bits of ``e`` up to and including i.  They add bits only below
    i, so every later overlap bit is still on when its turn comes.
    Galleries are integer masks with position k + 1 at bit 8k.

    Zero test.  Each correction ``x_{e + j}`` turns on one position
    ``j < i`` that is off in ``e``, and a position once on stays on.  So
    every monomial the rewriting reaches picks, for the overlap positions
    ``i_1 < .. < i_r``, distinct positions ``j_1, .., j_r`` off in ``a or
    b`` with ``j_t < i_t``: a system of distinct representatives of the
    sets of off positions below each ``i_t``.  Those sets are nested, so
    by Hall's theorem one exists exactly when, for every t, at least t
    positions below ``i_t`` are off in ``a or b``.  A pair that fails this
    reaches no monomial and contributes zero; it is skipped before it
    reads any generator rule.
    """
    word = c1.word
    if c2.word is not word and c2.word != word:
        raise WordMismatch("classes over different words")
    n = word.n
    gens, spill, acc = word._generators, {}, {}
    full = ((1 << 8 * n) - 1) // 255  # every position on
    for b, q2 in c2._by_mask.items():
        for a, q1 in c1._by_mask.items():
            overlap = a & b
            off, t, rest = full ^ (a | b), 0, overlap
            while rest:  # the zero test
                bit = rest & -rest
                rest ^= bit
                t += 1
                if (off & (bit - 1)).bit_count() < t:
                    break
            else:
                cur = {a | b: 1}
                while overlap:
                    bit = overlap & -overlap
                    overlap ^= bit
                    low, nxt = (bit << 1) - 1, {}
                    for mask, c in cur.items():
                        for add, d in (gens.get(mask & low) or _generator(word, mask & low, spill))[0]:
                            nxt[mask | add] = nxt.get(mask | add, 0) + c * d
                    cur = nxt
                q = q1 * q2
                for m, c in cur.items():
                    acc[m] = acc.get(m, 0) + q * c
    product = OrdinaryClass.__new__(OrdinaryClass)  # inline, as in ``multiply``
    product.word = word
    if acc:  # empty when the zero test skipped every pair
        acc = {m: c if type(c) is int else exact(c) for m, c in acc.items() if c}
    product._by_mask = acc
    return product


def evaluate_at_origin(c: CohClass) -> OrdinaryClass:
    """Project each coordinate to its constant term.

    A ring homomorphism onto ordinary cohomology: products computed
    equivariantly and then evaluated agree with :func:`ordinary_multiply`.
    """
    word = c.word
    return OrdinaryClass._of_masks(
        word, OrdinaryClass._read_all(word, {m: p.constant_term() for m, p in c._by_mask.items()})
    )
