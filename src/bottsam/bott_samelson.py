"""Galleries over a word of simple reflections and the restriction classes
they index.

A word ``(i_1, .., i_N)`` in the simple reflections of a root system has one
T-fixed point per bit string ``eps`` of length N.  Everything here is
computed through those fixed points: a cohomology class is stored as finitely
many coordinates in the triangular basis ``sigma_eps``, whose value at a
fixed point ``eps'`` is an explicit product of roots.

Products use the closed one-generator rule: ``sigma_eps`` is the product of
the one-bit classes ``x_i`` over the on positions of ``eps``, and ``x_i``
acts on a basis class by an explicit combinatorial formula, kept per word
in a table and applied to packed integers.  So ``sigma_a sigma_b`` is
``sigma_{a or b}`` times the ``x_i`` over the positions of ``a and b``, and
a product takes one pair of terms at a time, applying the rule only where
their galleries overlap.  Integration is duality: the integral over the
subvariety of ``eps`` reads off the ``eps`` coordinate.  The localization
routes are kept as independent oracles for the checks: the variety is a
tower of P^1-bundles, pushing forward along one bundle is a divided
difference, and one butterfly of exact divisions over the fixed-point
values gives every coordinate and every localization integral at once.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import and_, mul, or_
from typing import Iterator

from . import rootsystem
from .errors import (
    CapExceeded,
    IndexOutOfRange,
    LengthMismatch,
    NotDivisible,
    NotInSpan,
    WordMismatch,
    _named,
    _quoted,
)
from .polyring import Polynomial, divide_exact, format_polynomial, parse_polynomial
from .rootsystem import RootSystem

DEFAULT_GALLERY_CAP = 20

Bits = tuple[int, ...]


# Bytes 0/1 to and from the characters of a gallery's text, and to the
# flipped bits that order a grade.
_FROM_TEXT = bytes.maketrans(b"01", b"\0\1")
_TO_TEXT = bytes.maketrans(b"\0\1", b"01")
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")
_from_bytes = int.from_bytes


class Gallery:
    """A bit string selecting a subset of the letters of a word.

    Printed as e.g. ``101``; position ``i`` (1-based) is *on* when the
    corresponding letter participates.  Stored as the integer ``mask``
    with position ``i`` at bit ``8(i - 1)``, one byte per position, and
    the length ``n``; ``bits`` and the text are read from its bytes.  The
    constructor validates a tuple of bits as it is, and reads any other
    iterable, an iterator too, into a tuple once first.
    """

    __slots__ = ("mask", "n")

    def __init__(self, bits: Bits):
        if bits.__class__ is not tuple:
            bits = tuple(bits)
        try:
            raw = bytes(bits)  # taken as is only when every bit is 0 or 1
        except (TypeError, ValueError):
            raw = b"\2"
        if raw.strip(b"\0\1"):
            # booleans and the texts "0" and "1" convert; any other number or
            # text is refused, never truncated or read as a number
            bits = tuple(int(b) if isinstance(b, int) or b in ("0", "1") else -1 for b in bits)
            if not {*bits} <= {0, 1}:
                raise ValueError("gallery bits must be 0 or 1")
            raw = bytes(bits)
        self.mask = _from_bytes(raw, "little")
        self.n = len(bits)

    @classmethod
    def _of_mask(cls, mask: int, n: int) -> "Gallery":
        """A gallery of ``n`` positions from a mask this package built: each
        set bit is bit ``8k`` for some position ``k + 1 <= n``."""
        g = cls.__new__(cls)
        g.mask = mask
        g.n = n
        return g

    @classmethod
    def from_string(cls, text: str) -> "Gallery":
        if not text or text.strip("01"):
            raise ValueError(f"not a gallery bit string: {_quoted(text)}")
        g = cls.__new__(cls)  # inline: class documents read one per coordinate
        g.mask = int.from_bytes(text.encode().translate(_FROM_TEXT), "little")
        g.n = len(text)
        return g

    @classmethod
    def zero(cls, n: int) -> "Gallery":
        return cls._of_mask(0, n)

    @classmethod
    def unit(cls, n: int, i: int) -> "Gallery":
        """The gallery with a single 1 in (1-based) position ``i``."""
        if not 1 <= i <= n:
            raise IndexOutOfRange(f"{_named('position', i)} out of range 1..{n}")
        return cls._of_mask(1 << 8 * (i - 1), n)

    def __len__(self) -> int:
        return self.n

    @property
    def bits(self) -> Bits:
        return tuple(self.mask.to_bytes(self.n, "little"))

    @property
    def ones(self) -> int:
        """Number of on positions (the dimension grading)."""
        return self.mask.bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        """On positions, 1-based and increasing."""
        return tuple(i for i, b in enumerate(self.mask.to_bytes(self.n, "little"), 1) if b)

    def leq(self, other: "Gallery") -> bool:
        """Componentwise order: every on position of self is on in other."""
        if self.n != other.n:
            raise LengthMismatch("galleries of different lengths")
        return not self.mask & ~other.mask

    def sort_key(self) -> tuple:
        # grade first, then on-positions as early as possible
        return (self.mask.bit_count(), self.mask.to_bytes(self.n, "little").translate(_FLIP))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gallery):
            return NotImplemented
        return self.mask == other.mask and self.n == other.n

    def __hash__(self) -> int:
        return hash(self.mask)

    def __str__(self) -> str:
        return self.mask.to_bytes(self.n, "little").translate(_TO_TEXT).decode()

    def __repr__(self) -> str:
        return f"Gallery({self})"


class BSWord:
    """A word of simple reflections together with its gallery combinatorics.

    The localization weight ``alpha_i(eps)``, the image of letter i's simple
    root under the product ``v_{i-1}(eps)`` of the on reflections before i,
    is found per call (:func:`_walk`), never kept; the triangular
    restriction values ``sigma_eps(eps')`` are products of weights.
    """

    def __init__(
        self,
        rs: RootSystem,
        letters: tuple[int, ...] | list[int],
        cap: int = DEFAULT_GALLERY_CAP,
    ):
        letters = rootsystem.letters_of(letters)
        if not letters:
            raise ValueError("a word needs at least one letter")
        if min(letters) < 1 or max(letters) > rs.rank:
            bad = next(i for i in letters if not 1 <= i <= rs.rank)
            raise IndexOutOfRange(f"{_named('letter', bad)} out of range 1..{rs.rank}")
        if len(letters) > cap:
            raise CapExceeded(
                f"word of length {len(letters)} exceeds the gallery cap {cap}"
                " (2^N fixed points; raise the cap explicitly if intended)"
            )
        self.rs = rs
        self.letters = letters
        self.n = len(letters)
        self._form_poly: dict[tuple, Polynomial] = {}  # keyed by coordinates
        # the rule for x_{k+1} on bit k on, keyed by the mask of the bits up
        # to and including k; read by ``multiply`` and, corrections only, by
        # ``ordinary_multiply``
        self._generators: dict[int, tuple[tuple, tuple]] = {}

    # ---- basic structure -------------------------------------------------

    def galleries(self) -> list[Gallery]:
        """All 2^N galleries, graded by number of on bits, earlier on bits
        first within a grade; a new list on each call, kept nowhere."""
        # combinations of a grade come with the earlier positions first
        n, units = self.n, [1 << 8 * k for k in range(self.n)]
        return [
            Gallery._of_mask(sum([units[k] for k in on]), n)
            for grade in range(n + 1)
            for on in itertools.combinations(range(n), grade)
        ]

    def check_gallery(self, e: Gallery) -> None:
        if e.n != self.n:
            raise LengthMismatch(
                f"gallery of length {e.n} against a word of length {self.n}"
            )

    # ---- Weyl data per gallery --------------------------------------------

    def _poly_of(self, form: tuple) -> Polynomial:
        p = self._form_poly.get(form)
        if p is None:
            p = self._form_poly[form] = Polynomial.linear(form)
        return p

    def __eq__(self, other) -> bool:
        if not isinstance(other, BSWord):
            return NotImplemented
        return self.rs == other.rs and self.letters == other.letters

    def __hash__(self) -> int:
        return hash((self.rs, self.letters))

    def __repr__(self) -> str:
        return f"BSWord({self.rs.label or self.rs.cartan}, {list(self.letters)})"


class _GalleryClass:
    """What the two kinds of class over galleries share: a word and the
    nonzero coordinates of the class, one per gallery.  A subclass says how
    one coefficient is read (``_read``, ``None`` when it is zero) and
    written in a class document (``_json``)."""

    __slots__ = ("word", "coords")

    def __init__(self, word: BSWord, coords: dict):
        self.word = word
        clean, read = {}, self._read
        for e, c in coords.items():
            word.check_gallery(e)
            c = read(word, c)
            if c is not None:
                clean[e] = c
        self.coords = clean

    @classmethod
    def zero(cls, word: BSWord):
        return cls(word, {})

    @property
    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.word != other.word:
            raise WordMismatch("classes over different words")
        out = dict(self.coords)
        for e, c in other.coords.items():
            out[e] = out.get(e, 0) + c
        return type(self)(self.word, out)

    def scaled(self, c):
        return type(self)(self.word, {e: p * c for e, p in self.coords.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.word == other.word and self.coords == other.coords

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def _items(self) -> list:
        """The coordinates in the canonical gallery order."""
        return sorted(self.coords.items(), key=lambda kv: kv[0].sort_key())

    def to_json_dict(self) -> dict:
        return {
            "word": list(self.word.letters),
            "coords": {str(e): self._json(c) for e, c in self._items()},
        }


class CohClass(_GalleryClass):
    """A cohomology class in the triangular basis: finitely many gallery
    coordinates, each a polynomial in the simple roots."""

    __slots__ = ()

    @staticmethod
    def _read(word: BSWord, p) -> Polynomial | None:
        if not isinstance(p, Polynomial):
            p = Polynomial.constant(word.rs.rank, p)
        return p if p.terms else None

    _json = staticmethod(format_polynomial)

    @classmethod
    def basis(cls, word: BSWord, e: Gallery) -> "CohClass":
        """The class ``sigma_e``, built directly: its one coordinate is a new
        polynomial 1 each call, keyed by the root system's exponent tuple of
        a constant, so a caller that changes it changes no other class."""
        if e.n != word.n:
            word.check_gallery(e)
        one = Polynomial.__new__(Polynomial)
        one.rank, one.terms = word.rs.rank, {word.rs._constant: 1}
        c = cls.__new__(cls)
        c.word, c.coords = word, {e: one}
        return c

    @classmethod
    def unit(cls, word: BSWord) -> "CohClass":
        """The identity of the ring: the basis class of the empty gallery."""
        return cls.basis(word, Gallery.zero(word.n))

    def restriction(self, ep: Gallery) -> Polynomial:
        """Value at the fixed point ``ep``: one walk down its path, carrying
        only the coordinates below ``ep``."""
        self.word.check_gallery(ep)
        values = _walk(self.word, (self,), ep.mask, ep.mask)[1]
        return values[ep.mask] if values else Polynomial.zero(self.word.rs.rank)

    def __sub__(self, other) -> "CohClass":
        if not isinstance(other, CohClass):
            return NotImplemented
        return self + other.scaled(-1)

    def __str__(self) -> str:
        return ", ".join(f"{e}: {p}" for e, p in self._items()) or "0"

    @classmethod
    def from_json_dict(
        cls, rs: RootSystem, doc: dict, cap: int = DEFAULT_GALLERY_CAP
    ) -> "CohClass":
        word, items = read_class_doc(rs, doc, cap)
        rank, coords = rs.rank, {}
        for e, v in items:
            p = parse_polynomial(v, rank) if isinstance(v, str) else Polynomial.constant(rank, v)
            if p.terms:
                coords[e] = p
        c = cls.__new__(cls)  # inline, as in ``basis``: read_class_doc checked the galleries
        c.word, c.coords = word, coords
        return c


_JSON_KINDS = {
    bool: "a boolean",
    float: "a float",
    type(None): "null",
    list: "an array",
    dict: "an object",
}


def read_class_doc(
    rs: RootSystem, doc, cap: int = DEFAULT_GALLERY_CAP
) -> tuple[BSWord, list[tuple[Gallery, int | str]]]:
    """Validate a JSON class document ``{"word": [..], "coords": {bits: c}}``.

    Returns the word and the ``(gallery, coefficient)`` pairs in document
    order, each coefficient still an ``int`` or the text to parse.  Floats
    and booleans are refused: a float is not exact, and JSON ``true`` is not
    a number.  A gallery of the wrong length is reported once every
    coefficient has passed, the first in document order.
    """
    if not isinstance(doc, dict) or "word" not in doc or "coords" not in doc:
        raise ValueError("expected an object with 'word' and 'coords'")
    letters, coords = doc["word"], doc["coords"]
    if not isinstance(letters, list) or not {*map(type, letters)} <= {int}:
        raise ValueError("'word' must be a list of integers")
    if not isinstance(coords, dict):
        raise ValueError("'coords' must be an object from bit strings to coefficients")
    word = BSWord(rs, letters, cap=cap)
    n, items, wrong = word.n, [], None
    for bits, value in coords.items():
        if type(value) is not int and not isinstance(value, str):
            kind = _JSON_KINDS.get(type(value), type(value).__name__)
            raise ValueError(
                f"coefficient of {_quoted(bits)} is {kind}, not a string or an integer"
                " (write rationals as 'p/q')"
            )
        e = Gallery.from_string(bits)
        if e.n != n and wrong is None:
            wrong = e
        items.append((e, value))
    if wrong is not None:
        word.check_gallery(wrong)
    return word, items


def _walk(word: BSWord, classes=(), low: int = 0, high: int | None = None) -> tuple[dict, dict]:
    """One depth-first walk over the galleries ``b`` with ``low <= b <= high``
    (masks; ``high`` all on by default, ``low = -1`` means it too): their
    weights, and with ``classes`` the product of their values at each ``b``.
    ``alpha_k(b)`` depends only on the bits of ``b`` before k, so it is kept
    once, under those bits with bit k set, for each k on in ``high``: one
    reflection per on edge, one matrix per position at a time.  Per class
    the walk carries each coordinate still below ``b`` with the product of
    the weights at its on positions, and skips a branch with none left."""
    rs = word.rs
    high = int.from_bytes(b"\1" * word.n, "little") if high is None else high
    one, weights, forms, values = {rs._constant: 1}, {}, {}, {}
    live = [[(e.mask, p, None) for e, p in c.coords.items() if not e.mask & ~high]
            for c in classes]
    if not all(live):
        return weights, values
    # per on position of high: its bit, its letter, and whether a later
    # position reads the matrix past it
    steps = [(1 << 8 * k, i, high >> 8 * k > 1)
             for k, i in enumerate(word.letters) if high >> 8 * k & 1]
    # a node: its next step, prefix, matrix, live coordinates and their bits;
    # it goes down its on edges and leaves its off edges on the stack
    stack = [(0, 0, rs.identity_rows, live, reduce(or_, [t[0] for ts in live for t in ts], 0))]
    last = value = None
    while stack:
        j, b, rows, live, used = stack.pop()
        for bit, i, later in steps[j:]:
            j += 1
            form = tuple([r[i - 1] for r in rows])
            weights[b | bit] = form = forms.setdefault(form, form)
            if used & bit:
                if not low & bit:
                    off = [[t for t in terms if not t[0] & bit] for terms in live]
                    if all(off):
                        stack.append((j, b, rows, off, reduce(or_, [t[0] for ts in off for t in ts])))
                weight = word._poly_of(form)
                live = [[(e, p, weight if part is None else part * weight) if e & bit else (e, p, part)
                         for e, p, part in terms] for terms in live]
            elif not low & bit:
                stack.append((j, b, rows, live, used))
            b |= bit
            if later:
                rows = rs.times_reflection(rows, i)
        if live:  # the points below the last step that changed it share a value
            if live is not last:
                last, value = live, None
                for terms in live:
                    out = None
                    for _, p, part in terms:  # a product takes p only when p is not 1
                        term = p if part is None else part if p.terms == one else part * p
                        out = term if out is None else out + term
                    value = out if value is None else value * out
            values[b] = value
    return weights, values


def _butterfly(
    word: BSWord, values: dict[int, Polynomial], positions, weights: dict
) -> dict[int, Polynomial]:
    """Push fixed-point values down the word's tower of P^1-bundles.

    Going through the 1-based ``positions`` from last to first, every
    gallery ``b`` with bit k on takes ``(F[b] - F[b without k]) /
    alpha_k(b)``; a gallery missing from ``values`` reads as zero, and so
    does one missing from the result.  Since ``alpha_k(b)`` depends only on
    the bits before k, once the positions of a gallery ``e`` are passed,
    ``F[e]`` is the localization integral of the values over the subvariety
    of ``e``: the ``e`` coordinate of the class they restrict.  Each
    division is exact for the values of a class (its first level is the GKM
    edge condition); a remainder raises :class:`NotInSpan`.  ``weights``
    cover every gallery reached.
    """
    f = {b: p for b, p in values.items() if not p.is_zero}
    n = word.n
    for i in sorted(positions, reverse=True):
        bit = 1 << 8 * (i - 1)
        before, f = f, {}
        for b, p in before.items():
            if b & bit:
                low = before.get(b ^ bit)
                if low is not None:
                    p = p - low
                    if p.is_zero:
                        continue
            else:
                f[b] = p
                b |= bit
                if b in before:
                    continue  # the difference is taken at b
                p = -p
            form = weights[b & (bit << 1) - 1]
            try:
                f[b] = divide_exact(p, form)
            except NotDivisible:
                raise NotInSpan(
                    f"the divided difference at position {i} of gallery"
                    f" {Gallery._of_mask(b, n)} is not a multiple of {Polynomial.linear(form)}"
                ) from None
    return f


def _class_of(word: BSWord, values: dict[int, Polynomial], weights: dict) -> CohClass:
    coords = _butterfly(word, values, range(1, word.n + 1), weights)
    return CohClass(word, {Gallery._of_mask(b, word.n): p for b, p in coords.items()})


def expand(word: BSWord, values: dict[Gallery, Polynomial]) -> CohClass:
    """The class whose value at each fixed point is given by ``values``; a
    gallery left out reads as zero.

    Raises :class:`NotInSpan` when the values are not those of a class.
    """
    table = {}
    for e, p in values.items():
        word.check_gallery(e)
        if not isinstance(p, Polynomial):
            p = Polynomial.constant(word.rs.rank, p)
        table[e.mask] = p
    # every gallery the butterfly reaches lies above the meet of the values
    return _class_of(word, table, _walk(word, low=reduce(and_, table, -1))[0])


def _generator(word: BSWord, key: int, spill: dict) -> tuple[tuple, tuple]:
    """:func:`multiply_generator`'s rule at bit k on, ``key`` the mask of
    the bits up to and including k: corrections ``(mask of j, coefficient)``,
    diagonal ``(variable, coefficient)``.  Its readers look ``key`` up in
    ``word._generators`` and call this on a miss; it is kept there up to
    ``MEMO_MAX_ENTRIES``, then in ``spill``.  ``ordinary_multiply`` reads
    the corrections alone, the diagonal being zero at the origin.  The
    pairing with letter l is the dot product with Cartan row l, and r_l
    moves coordinate l only."""
    entry = spill.get(key)
    if entry is None:
        k = key.bit_length() >> 3
        letters, rows = word.letters, word.rs._cartan_nonzero
        alpha = list(word.rs.identity_rows[letters[k] - 1])
        corrections = []
        for j in range(k - 1, -1, -1):
            lj = letters[j] - 1
            c = sum(alpha[m] * a for m, a in rows[lj])
            if key >> 8 * j & 1:
                alpha[lj] -= c
            elif c:
                corrections.append((1 << 8 * j, -c))
        entry = (tuple(corrections), tuple((v, a) for v, a in enumerate(alpha) if a))
        full = len(word._generators) >= rootsystem.MEMO_MAX_ENTRIES
        (spill if full else word._generators)[key] = entry
    return entry


# Bit k of a gallery is bit 8k of its mask; a monomial packs its exponents
# ``size`` bytes each (``units``), so ``int.to_bytes`` reads them back.
def _packing(rs: RootSystem, top: int) -> tuple[int, tuple[int, ...], dict]:
    """The bytes per exponent that hold ``top``, each variable's unit, and
    the table of exponent tuples :func:`_unpack` reads at that width, kept
    in ``rs`` per width."""
    size = (top.bit_length() + 7) // 8 or 1
    packing = rs._packings.get(size)
    if packing is None:
        units = tuple(1 << 8 * size * v for v in range(rs.rank))
        packing = rs._packings[size] = units, {0: rs._constant}
    return size, *packing


def _unpack(p: dict, rank: int, size: int, keys: dict) -> dict:
    """The nonzero terms of a packed polynomial on exponent tuples, integral
    coefficients as ``int``.  Each tuple is read from ``keys``, the table of
    its width, or from the bytes, then kept there up to ``MEMO_MAX_ENTRIES``."""
    n, terms = rank * size, {}
    for m, c in p.items():
        if c:  # terms that cancelled are still there, at zero
            key = keys.get(m)
            if key is None:
                b = m.to_bytes(n, "little")
                key = tuple(int.from_bytes(b[k : k + size], "little") for k in range(0, n, size))
                if len(keys) < rootsystem.MEMO_MAX_ENTRIES:
                    keys[m] = key
            terms[key] = c if type(c) is int or c.denominator != 1 else c.numerator
    return terms


_ONE = {0: 1}  # the packed constant 1, only ever compared


def multiply(c1: CohClass, c2: CohClass) -> CohClass:
    """Product of two classes by the closed generator rule, with no division.

    One pair of terms ``p sigma_a``, ``q sigma_b`` at a time, from ``sigma_a
    sigma_b = sigma_{a or b} prod_{i in a and b} x_i``: start at ``p
    sigma_{a or b}``, apply ``x_i`` only where ``a`` and ``b`` overlap, in
    position order, and multiply by ``q`` unless it is 1.  This is exact: the
    rule at bit i reads only the bits below i, and its corrections add only
    off bits below i."""
    word, rs = c1.word, c1.word.rs
    if c2.word is not word and c2.word != word:
        raise WordMismatch("classes over different words")
    # one pass per factor for its masks and its degree (a generator raises
    # the degree by at most one); a constant coordinate packs as ``{0: c}``
    # at every width, any other once the width is known
    n = top = word.n
    const, factors = rs._constant, []
    for c in (c1, c2):
        degree, packed = 0, []
        for e, p in c.coords.items():
            t = p.terms
            if len(t) == 1 and const in t:
                t = {0: t[const]}
            else:
                for m in t:
                    if sum(m) > degree:
                        degree = sum(m)
            packed.append((e.mask, t))
        top += degree
        factors.append(packed)
    size, units, keys = _packing(rs, top)
    if top > n:  # packed keys are ints, exponent tuples are not
        factors = [[(a, t if 0 in t else {sum(map(mul, m, units)): v for m, v in t.items()})
                    for a, t in packed] for packed in factors]
    firsts, seconds = factors
    gens, spill, out = word._generators, {}, {}
    rest = len(seconds)
    for b, q in seconds:
        rest -= 1
        unit = q == _ONE
        for a, p1 in firsts:
            cur, overlap = {a | b: p1}, a & b
            while overlap:
                bit = overlap & -overlap
                overlap ^= bit
                low, nxt = (bit << 1) - 1, {}
                for mask, p in cur.items():
                    corrections, diagonal = gens.get(mask & low) or _generator(word, mask & low, spill)
                    for add, c in corrections:
                        d = nxt.setdefault(mask | add, {})
                        for m, v in p.items():
                            d[m] = d.get(m, 0) + v * c
                    d = nxt.setdefault(mask, {})
                    for var, c in diagonal:
                        shift = units[var]
                        for m, v in p.items():
                            m += shift
                            d[m] = d.get(m, 0) + v * c
                cur = nxt
            for mask, p in cur.items():
                d = out.get(mask)
                if d is None and unit:  # p1 itself is copied if a later pair reads it
                    out[mask] = dict(p) if rest and p is p1 else p
                    continue
                if d is None:
                    d = out[mask] = {}
                for mq, c in q.items():
                    for m, v in p.items():
                        m += mq
                        d[m] = d.get(m, 0) + v * c
    rank, coords = rs.rank, {}
    for mask, p in out.items():
        if terms := _unpack(p, rank, size, keys):
            e, poly = Gallery.__new__(Gallery), Polynomial.__new__(Polynomial)
            e.mask, e.n, poly.rank, poly.terms = mask, n, rank, terms
            coords[e] = poly
    product = CohClass.__new__(CohClass)
    product.word, product.coords = word, coords
    return product


def multiply_by_localization(c1: CohClass, c2: CohClass) -> CohClass:
    """Product of two classes pointwise on fixed points, then expanded.

    One walk carries both classes, so only the points above a coordinate of
    each are evaluated, one cube for two basis classes.  The independent
    route behind the product checks; :func:`multiply` is the one to use.
    """
    if c1.word != c2.word:
        raise WordMismatch("classes over different words")
    weights, values = _walk(c1.word, (c1, c2))
    return _class_of(c1.word, values, weights)


def multiply_generator(word: BSWord, i: int, e: Gallery) -> CohClass:
    """Product of the one-bit basis class at position ``i`` with the basis
    class of ``e``, by the closed rule: with ``i`` off in ``e``, the two
    galleries do not overlap, and the product is the basis class of their
    join; with ``i`` on, ``sigma_i(e) * basis(e)`` plus one correction per
    earlier off position ``j``, an integer Cartan pairing against the
    partial product of reflections strictly between j and i."""
    return multiply(CohClass.basis(word, Gallery.unit(word.n, i)), CohClass.basis(word, e))


def restriction_table(word: BSWord) -> dict:
    """The full restriction table as a document: ``columns`` lists the fixed
    points, and ``rows`` yields each basis class with its values there as
    text, both in the canonical gallery order.  ``rows`` is the one loop
    over the 4^N cells: an iterator that makes each row as it is read, so
    the whole table is never held, and that can be read once."""
    gals, zero = word.galleries(), format_polynomial(Polynomial.zero(word.rs.rank))

    def row(e: Gallery) -> list[str]:  # one walk over the cube above e
        values = _walk(word, (CohClass.basis(word, e),))[1]
        # points below e's last on position share a value: format it once
        texts = {k: format_polynomial(v) for k, v in {id(v): v for v in values.values()}.items()}
        return [texts[id(values[g.mask])] if g.mask in values else zero for g in gals]

    return {
        "word": list(word.letters),
        "columns": [str(g) for g in gals],
        "rows": ((str(e), row(e)) for e in gals),
    }


def table_lines(table: dict) -> Iterator[str]:
    """The text form of a :func:`restriction_table`: a column-header
    comment, then one row per basis class."""
    yield "# columns: " + ", ".join(table["columns"])
    for e, row in table["rows"]:
        yield f"{e}: {', '.join(row)}"


def integrate(word: BSWord, e: Gallery, c: CohClass) -> Polynomial:
    """Integral over the subvariety of gallery ``e``, by duality.

    The integral is linear over the polynomial ring and sends ``sigma_e'``
    to the Kronecker delta of ``e'`` and ``e``, so it is the ``e``
    coordinate of the class.
    """
    if e.n != word.n:
        word.check_gallery(e)
    if c.word is not word and c.word != word:
        raise WordMismatch("class over a different word")
    p = c.coords.get(e)
    return p if p is not None else Polynomial.zero(word.rs.rank)


def integrate_by_localization(word: BSWord, e: Gallery, c: CohClass) -> Polynomial:
    """Localization integral over the subvariety of gallery ``e``.

    Pushes the values of ``c`` at the fixed points below ``e`` down the
    tower of ``e``'s on positions, walking only the points above a
    coordinate under ``e``: at most ``|e| * 2^(|e| - 1)`` exact divisions.
    Raises :class:`NotInSpan` when a division leaves a remainder, which for
    a genuine class means a bug.  The independent route behind the integral
    checks; :func:`integrate` is the one to use.
    """
    word.check_gallery(e)
    if c.word != word:
        raise WordMismatch("class over a different word")
    weights, values = _walk(word, (c,), high=e.mask)
    return _butterfly(word, values, e.support, weights).get(e.mask, Polynomial.zero(word.rs.rank))
