"""Finite-type root systems: Cartan data, roots, Weyl-group elements.

All coordinates are taken in the simple-root basis.  A root is the tuple of
its integer coordinates, so every identity downstream is checked exactly; a
:class:`WeylElement` stores the integer matrix of its action on the root
lattice, which makes equality of group elements plain matrix equality.

Simple-root indices are 1-based throughout the public interface, matching the
usual Bourbaki numbering of Dynkin diagrams.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence

from .errors import MAX_DIGITS, IndexOutOfRange, InvalidCartan, NotFiniteType, _quoted
from .errors import NotInWeylGroup, RankMismatch, _named

# A word in the simple reflections, as 1-based indices.  The empty word is
# the identity.
SimpleWord = tuple[int, ...]

# The integer matrix of a Weyl-group element, as in ``WeylElement.rows``.
Rows = tuple[tuple[int, ...], ...]

# Bourbaki-numbered Cartan matrices for the built-in labels.
BUILTIN_CARTAN: dict[str, tuple[tuple[int, ...], ...]] = {
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

# Abort the positive-root closure once the set grows past this many roots;
# every finite type of desk-scale rank stays far below it.
ROOT_CLOSURE_BOUND = 10_000

# Size at which a rewrite table stops inserting.  The packed betas a root
# system keeps per reduced word and the generator rules a word keeps for
# multiply and ordinary_multiply count entries (up to about 3 KB each, 12 MB a
# table); the weak intervals a root system keeps for billey, as up-edges per
# letter, and its right Cayley table count elements (about 160 B each, and
# 410-520 B each at ranks 4-8).
MEMO_MAX_ENTRIES = 4096


def ascii_int(text: str) -> int | None:
    """``text`` as an ``int`` if it is ASCII digits after an optional sign
    (``int`` would also read other digits), else ``None``.  More than
    ``MAX_DIGITS`` digits raise a one-line ``ValueError`` before ``int``
    reads them, the same on every Python."""
    digits = text[text[:1] in "+-":]
    if not (digits.isascii() and digits.isdigit()):
        return None
    if len(digits) > MAX_DIGITS:
        raise ValueError(f"{_quoted(text)} has more than {MAX_DIGITS} digits")
    return int(text)


def parse_word(text: str) -> SimpleWord:
    """Parse a comma- or space-separated word of 1-based indices, each read
    by :func:`ascii_int`.

    An empty or all-whitespace string is the empty word (the identity).
    """
    parts = text.replace(",", " ").split()
    try:
        letters = tuple(map(ascii_int, parts))
    except ValueError as exc:
        raise IndexOutOfRange(f"letter {exc}") from None
    if None in letters:
        raise IndexOutOfRange(f"word {_quoted(text)} contains a non-integer letter")
    return letters


def letters_of(word: Iterable) -> SimpleWord:
    """A word's letters as ``int``; a float, a ``Fraction`` or a string is
    refused, never truncated or parsed."""
    try:
        return tuple(map(operator.index, word))
    except TypeError:
        raise IndexOutOfRange(f"word {_quoted(word)} has a letter that is not an integer") from None


def format_word(word: Sequence[int]) -> str:
    return " ".join(str(i) for i in word)


def ascends(rows: Rows, i: int) -> bool:
    """Whether ``l(u r_i) > l(u)``: column i of ``u``, the root
    ``u(alpha_i)``, is positive (a root's coordinates share one sign)."""
    k = i - 1
    for r in rows:
        if r[k]:
            return r[k] > 0
    return False


class WeylElement:
    """A Weyl-group element as the integer matrix of its root-lattice action.

    ``rows[j][k]`` is the j-th coordinate of the image of alpha_{k+1}; the
    matrix acts on coordinate columns.  Matrix equality is group equality.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        self.rows = rows

    def __eq__(self, other) -> bool:
        if other.__class__ is not WeylElement:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.rows,))

    @classmethod
    def identity(cls, rank: int) -> "WeylElement":
        return cls(tuple(tuple(int(j == k) for k in range(rank)) for j in range(rank)))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"WeylElement({self.rows})"


class RootSystem:
    """Validated Cartan data together with the derived positive roots, as
    integer coordinate tuples in height order.

    ``matrix`` is a generalized Cartan matrix, rows indexed by simple roots;
    its entries are read with ``operator.index``, so a float, a
    ``Fraction`` or a string is refused with
    :class:`~bottsam.errors.InvalidCartan`, never truncated or parsed.
    Construction runs the positive-root closure, so every instance is of
    finite type; :class:`~bottsam.errors.NotFiniteType` is raised otherwise.
    """

    def __init__(self, matrix: Iterable[Iterable[int]], label: str | None = None):
        try:
            cartan = tuple(tuple(map(operator.index, row)) for row in matrix)
        except TypeError:
            raise InvalidCartan(
                f"Cartan matrix {_quoted(matrix)} has an entry that is not an integer"
            ) from None
        n = len(cartan)
        if n == 0:
            raise InvalidCartan("empty Cartan matrix")
        for row in cartan:
            if len(row) != n:
                raise InvalidCartan("Cartan matrix is not square")
        for i in range(n):
            if cartan[i][i] != 2:
                raise InvalidCartan(f"diagonal entry A[{i + 1}][{i + 1}] != 2")
            for j in range(n):  # A[i][i] = 2 has no asymmetric zero
                if i != j and cartan[i][j] > 0:
                    raise InvalidCartan(
                        f"off-diagonal entry {_named(f'A[{i + 1}][{j + 1}] =', cartan[i][j])}"
                        " is positive"
                    )
                if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                    raise InvalidCartan(
                        f"asymmetric zero at A[{i + 1}][{j + 1}] / A[{j + 1}][{i + 1}]"
                    )
        # a pair with A[i][j] A[j][i] > 3 spans an infinite rank-2 Weyl group:
        # refused before the closure, whose integers grow with the entries
        for i in range(n):
            for j in range(i + 1, n):
                if cartan[i][j] * cartan[j][i] > 3:
                    raise NotFiniteType(
                        f"A[{i + 1}][{j + 1}] * A[{j + 1}][{i + 1}] > 3: the Weyl group"
                        f" of simple roots {i + 1} and {j + 1} is infinite"
                    )
        self.rank = n
        self.cartan = cartan
        self.label = label
        # the identity and each Cartan row's nonzero entries, for the
        # integer reflection step
        self.identity_rows: Rows = WeylElement.identity(self.rank).rows
        self._cartan_nonzero = tuple(
            tuple((k, a) for k, a in enumerate(row) if a) for row in self.cartan
        )
        self.positive_roots = self._close_positive_roots()
        self._longest_word: SimpleWord | None = None
        # the right Cayley table, filled by ``times_reflection`` as it is
        # asked, up to ``MEMO_MAX_ENTRIES`` elements: per element's rows a
        # node ``[rows, slot_1, .., slot_rank]``, slot i the node of
        # ``u r_i`` once it has been formed
        self._right: dict[Rows, list] = {}
        # ``billey``'s packed betas per reduced word and weak intervals per
        # element (``schubert._packed_betas``, ``schubert._weak_interval``)
        self._betas: dict[SimpleWord, tuple] = {}
        self._intervals: dict[Rows, tuple] = {}
        # the exponents of a constant, the key of every basis class's one
        # term; and per bytes per exponent, each variable's unit in a packed
        # monomial and the exponent tuples unpacked at that width
        # (``bott_samelson._packing``)
        self._constant = (0,) * self.rank
        self._packings: dict[int, tuple[tuple[int, ...], dict[int, tuple[int, ...]]]] = {}

    @classmethod
    def from_label(cls, label: str) -> "RootSystem":
        try:
            return cls(BUILTIN_CARTAN[label], label)
        except KeyError:
            known = ", ".join(sorted(BUILTIN_CARTAN))
            raise InvalidCartan(f"unknown type label {_quoted(label)} (built in: {known})")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RootSystem":
        """Build from the documented file schema ``{"label":…, "matrix":…}``."""
        if not isinstance(doc, dict) or "matrix" not in doc:
            raise InvalidCartan('Cartan file must be an object with a "matrix" key')
        matrix = doc["matrix"]
        label = doc.get("label")
        if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
            raise InvalidCartan('"matrix" must be a list of rows')
        for row in matrix:
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise InvalidCartan(f"matrix entry {_quoted(v)} is not an integer")
        if label is not None and not isinstance(label, str):
            raise InvalidCartan('"label" must be a string when present')
        return cls(matrix, label)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RootSystem) and self.cartan == other.cartan

    def __hash__(self) -> int:
        return hash(self.cartan)

    def __repr__(self) -> str:
        name = self.label or f"rank-{self.rank}"
        return f"RootSystem({name}, {len(self.positive_roots)} positive roots)"

    # ---- reflections ---------------------------------------------------

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise IndexOutOfRange(f"{_named('simple-root index', i)} not in 1..{self.rank}")

    def times_reflection(self, rows: Rows, i: int) -> Rows:
        """The rows of ``u r_i`` from the rows of ``u``, for ``1 <= i <=
        rank`` (the callers check it): column k becomes ``u(alpha_k) -
        A[i][k] u(alpha_i)``.  Read from the right Cayley table; formed, and
        entered while the table has room, the first time it is asked for.
        A matrix outside the group enters like any other: its slots hold its
        own products."""
        right = self._right
        node = right.get(rows)
        if node is not None and node[i] is not None:
            return node[i][0]
        k = i - 1
        nonzero = self._cartan_nonzero[k]
        out = []
        for r in rows:
            rk = r[k]
            if rk:
                moved = list(r)
                for j, a in nonzero:
                    moved[j] -= a * rk
                r = tuple(moved)
            out.append(r)
        out = tuple(out)
        if node is None:
            if len(right) >= MEMO_MAX_ENTRIES:
                return out
            node = right[rows] = [rows] + [None] * self.rank
        moved = right.get(out)
        if moved is None:
            if len(right) >= MEMO_MAX_ENTRIES:
                return out
            moved = right[out] = [out] + [None] * self.rank
        node[i] = moved
        return moved[0]

    def weyl_from_word(self, word: Sequence[int]) -> WeylElement:
        """The product r_{i_1}···r_{i_l}; the empty word is the identity.
        Goes from node to node of the Cayley table while its slots are
        filled, hashing no matrix."""
        rows, rank, right = self.identity_rows, self.rank, self._right
        node = right.get(rows)
        for i in letters_of(word):
            if not 0 < i <= rank:
                self._check_index(i)
            node = node and node[i]
            if node:
                rows = node[0]
            else:
                rows = self.times_reflection(rows, i)
                node = right.get(rows)
        w = WeylElement.__new__(WeylElement)  # inline: one per subword sum asked for
        w.rows = rows
        return w

    # ---- positive roots and lengths -----------------------------------

    def _close_positive_roots(self) -> tuple[tuple[int, ...], ...]:
        # Roots have integer coordinates, so the closure runs on int tuples
        # (r_i moves coordinate i by the Cartan pairing).
        roots = set(self.identity_rows)
        frontier = list(roots)
        while frontier:
            new: list[tuple[int, ...]] = []
            for beta in frontier:
                for i, row in enumerate(self.cartan):
                    c = sum(b * a for b, a in zip(beta, row))
                    gamma = beta[:i] + (beta[i] - c,) + beta[i + 1 :]
                    if gamma not in roots and all(x >= 0 for x in gamma):
                        roots.add(gamma)
                        new.append(gamma)
            if len(roots) > ROOT_CLOSURE_BOUND:
                raise NotFiniteType(
                    f"positive-root closure exceeded {ROOT_CLOSURE_BOUND} roots"
                )
            frontier = new
        # Height first, then reverse-lexicographic coordinates, so the
        # simple roots come out as a1, a2, ... .
        return tuple(sorted(roots, key=lambda w: (sum(w), tuple(-c for c in w))))

    def length(self, w: WeylElement) -> int:
        """Number of right descents removed on the way from ``w`` down to
        the identity (each step lowers the length by one).

        A matrix of the right rank that is not in this group (say, from
        another Cartan matrix) misses the identity within ``|Phi+|`` steps
        and raises :class:`~bottsam.errors.NotInWeylGroup`.
        """
        if w.rank != self.rank:
            raise RankMismatch(f"element of rank {w.rank} against rank {self.rank}")
        rows = w.rows
        for steps in range(len(self.positive_roots) + 1):
            if rows == self.identity_rows:
                return steps
            i = next((i for i in range(1, self.rank + 1) if not ascends(rows, i)), None)
            if i is None:
                break
            rows = self.times_reflection(rows, i)
        raise NotInWeylGroup(f"{_quoted(w)} is not in the Weyl group of {self!r}")

    def is_reduced(self, word: Sequence[int]) -> bool:
        """Whether every letter raises the length of the product before it."""
        word = letters_of(word)
        for i in word:
            self._check_index(i)
        rows = self.identity_rows
        for i in word:
            if not ascends(rows, i):
                return False
            rows = self.times_reflection(rows, i)
        return True

    def longest_word(self) -> SimpleWord:
        """A reduced word for w0: greedily append the smallest index that
        extends the current element reducedly.  Deterministic."""
        if self._longest_word is not None:
            return self._longest_word
        word: list[int] = []
        rows = self.identity_rows
        while True:
            for i in range(1, self.rank + 1):
                if ascends(rows, i):
                    word.append(i)
                    rows = self.times_reflection(rows, i)
                    break
            else:
                break
        self._longest_word = tuple(word)
        return self._longest_word

    def weyl_elements(self) -> list[WeylElement]:
        """All elements of W, by breadth-first closure under the generators.

        Materializes the whole group; intended for the desk-scale built-in
        types.
        """
        frontier = [self.identity_rows]
        seen = dict.fromkeys(frontier)
        while frontier:
            new: list[Rows] = []
            for rows in frontier:
                for i in range(1, self.rank + 1):
                    ws = self.times_reflection(rows, i)
                    if ws not in seen:
                        seen[ws] = None
                        new.append(ws)
            frontier = new
        return [WeylElement(rows) for rows in seen]
