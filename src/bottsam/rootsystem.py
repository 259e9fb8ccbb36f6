"""Finite-type root systems: Cartan data, exact weights, Weyl-group elements.

All coordinates are taken in the simple-root basis.  A :class:`Weight` stores
exact rational coefficients, so every identity downstream is checked exactly;
a :class:`WeylElement` stores the integer matrix of its action on the root
lattice, which makes equality of group elements plain matrix equality.

Simple-root indices are 1-based throughout the public interface, matching the
usual Bourbaki numbering of Dynkin diagrams.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import IndexOutOfRange, InvalidCartan, NotFiniteType, RankMismatch

# A word in the simple reflections, as 1-based indices.  The empty word is
# the identity.
SimpleWord = tuple[int, ...]

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


def parse_word(text: str) -> SimpleWord:
    """Parse a comma- or space-separated word of 1-based indices.

    An empty or all-whitespace string is the empty word (the identity).
    """
    parts = text.replace(",", " ").split()
    try:
        letters = tuple(int(p) for p in parts)
    except ValueError:
        raise IndexOutOfRange(f"word {text!r} contains a non-integer letter")
    return letters


def format_word(word: Sequence[int]) -> str:
    return " ".join(str(i) for i in word)


class Weight:
    """An element of the weight space, in simple-root coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[Fraction, ...]):
        self.coords = coords

    def __eq__(self, other) -> bool:
        if other.__class__ is not Weight:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.coords,))

    @classmethod
    def of(cls, values: Iterable[Fraction | int]) -> "Weight":
        return cls(tuple(Fraction(v) for v in values))

    @classmethod
    def zero(cls, rank: int) -> "Weight":
        return cls((Fraction(0),) * rank)

    @classmethod
    def simple(cls, rank: int, i: int) -> "Weight":
        """The simple root alpha_i (1-based)."""
        if not 1 <= i <= rank:
            raise IndexOutOfRange(f"simple-root index {i} not in 1..{rank}")
        return cls(tuple(Fraction(int(k == i - 1)) for k in range(rank)))

    @property
    def rank(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "Weight") -> "Weight":
        self._check_rank(other)
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check_rank(other)
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def __rmul__(self, scalar: Fraction | int) -> "Weight":
        s = Fraction(scalar)
        return Weight(tuple(s * a for a in self.coords))

    def _check_rank(self, other: "Weight") -> None:
        if len(self.coords) != len(other.coords):
            raise RankMismatch(
                f"weights of rank {len(self.coords)} and {len(other.coords)}"
            )

    def sign_normalized(self) -> tuple[int, "Weight"]:
        """Return ``(sign, w)`` with ``w = sign * self`` and the first nonzero
        coordinate of ``w`` positive.  The zero weight returns ``(1, self)``.
        """
        for c in self.coords:
            if c != 0:
                return (1, self) if c > 0 else (-1, -self)
        return (1, self)

    def __str__(self) -> str:
        parts: list[str] = []
        for k, c in enumerate(self.coords):
            if c == 0:
                continue
            var = f"a{k + 1}"
            mag = abs(c)
            body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Weight({self})"


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

    @property
    def is_identity(self) -> bool:
        return self == WeylElement.identity(len(self.rows))

    def apply(self, lam: Weight) -> Weight:
        if lam.rank != self.rank:
            raise RankMismatch(
                f"element of rank {self.rank} applied to weight of rank {lam.rank}"
            )
        return Weight(
            tuple(
                sum((row[k] * lam.coords[k] for k in range(self.rank)), Fraction(0))
                for row in self.rows
            )
        )

    def __matmul__(self, other: "WeylElement") -> "WeylElement":
        """Compose: ``(self @ other)`` acts by ``other`` first."""
        if self.rank != other.rank:
            raise RankMismatch("composing Weyl elements of different ranks")
        n = self.rank
        cols = list(zip(*other.rows))
        return WeylElement(
            tuple(
                tuple(sum(row[k] * col[k] for k in range(n)) for col in cols)
                for row in self.rows
            )
        )

    def __repr__(self) -> str:
        return f"WeylElement({self.rows})"


class CartanSpec:
    """A generalized Cartan matrix, rows indexed by simple roots."""

    __slots__ = ("matrix", "label")

    def __init__(self, matrix: tuple[tuple[int, ...], ...], label: str | None = None):
        self.matrix = matrix
        self.label = label

    def __eq__(self, other) -> bool:
        if other.__class__ is not CartanSpec:
            return NotImplemented
        return (self.matrix, self.label) == (other.matrix, other.label)

    def __hash__(self) -> int:
        return hash((self.matrix, self.label))

    def __repr__(self) -> str:
        return f"CartanSpec(matrix={self.matrix!r}, label={self.label!r})"

    @classmethod
    def from_label(cls, label: str) -> "CartanSpec":
        try:
            return cls(BUILTIN_CARTAN[label], label)
        except KeyError:
            known = ", ".join(sorted(BUILTIN_CARTAN))
            raise InvalidCartan(f"unknown type label {label!r} (built in: {known})")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], label: str | None = None) -> "CartanSpec":
        return cls(tuple(tuple(int(v) for v in row) for row in rows), label)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CartanSpec":
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
                    raise InvalidCartan(f"matrix entry {v!r} is not an integer")
        if label is not None and not isinstance(label, str):
            raise InvalidCartan('"label" must be a string when present')
        return cls.from_rows(matrix, label)

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def validate(self) -> None:
        n = len(self.matrix)
        if n == 0:
            raise InvalidCartan("empty Cartan matrix")
        for row in self.matrix:
            if len(row) != n:
                raise InvalidCartan("Cartan matrix is not square")
        for i in range(n):
            if self.matrix[i][i] != 2:
                raise InvalidCartan(f"diagonal entry A[{i + 1}][{i + 1}] != 2")
            for j in range(n):
                if i == j:
                    continue
                if self.matrix[i][j] > 0:
                    raise InvalidCartan(
                        f"off-diagonal entry A[{i + 1}][{j + 1}] = "
                        f"{self.matrix[i][j]} is positive"
                    )
                if (self.matrix[i][j] == 0) != (self.matrix[j][i] == 0):
                    raise InvalidCartan(
                        f"asymmetric zero at A[{i + 1}][{j + 1}] / A[{j + 1}][{i + 1}]"
                    )


class RootSystem:
    """Validated Cartan data together with the derived positive-root set.

    Construction runs the positive-root closure, so every instance is of
    finite type; :class:`~bottsam.errors.NotFiniteType` is raised otherwise.
    """

    def __init__(self, spec: CartanSpec):
        spec.validate()
        self.spec = spec
        self.rank = spec.rank
        self.cartan = spec.matrix
        self.label = spec.label
        self.simple_roots: tuple[Weight, ...] = tuple(
            Weight.simple(self.rank, i) for i in range(1, self.rank + 1)
        )
        self._reflections: tuple[WeylElement, ...] = tuple(
            self._reflection_matrix(i) for i in range(1, self.rank + 1)
        )
        self.positive_roots: tuple[Weight, ...] = self._close_positive_roots()
        self._longest_word: SimpleWord | None = None

    @classmethod
    def from_label(cls, label: str) -> "RootSystem":
        return cls(CartanSpec.from_label(label))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RootSystem) and self.cartan == other.cartan

    def __hash__(self) -> int:
        return hash(self.cartan)

    def __repr__(self) -> str:
        name = self.label or f"rank-{self.rank}"
        return f"RootSystem({name}, {len(self.positive_roots)} positive roots)"

    # ---- Cartan pairing and reflections -------------------------------

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise IndexOutOfRange(f"simple-root index {i} not in 1..{self.rank}")

    def cartan_pairing(self, lam: Weight, i: int) -> Fraction:
        """The coefficient c with r_i(lam) = lam - c*alpha_i.

        For lam in the root lattice this is the integer <lam, alpha_i^vee>.
        """
        self._check_index(i)
        if len(lam.coords) != self.rank:
            raise RankMismatch(
                f"weight of rank {len(lam.coords)} against rank {self.rank}"
            )
        row = self.cartan[i - 1]
        return sum((c * a for c, a in zip(lam.coords, row) if a), Fraction(0))

    def reflect(self, i: int, lam: Weight) -> Weight:
        c = self.cartan_pairing(lam, i)
        if c == 0:
            return lam
        # lam - c * alpha_i: only the i-th coordinate moves
        coords = list(lam.coords)
        coords[i - 1] -= c
        return Weight(tuple(coords))

    def _reflection_matrix(self, i: int) -> WeylElement:
        n = self.rank
        rows = []
        for j in range(n):
            if j == i - 1:
                rows.append(tuple(int(j == k) - self.cartan[j][k] for k in range(n)))
            else:
                rows.append(tuple(int(j == k) for k in range(n)))
        return WeylElement(tuple(rows))

    def simple_reflection(self, i: int) -> WeylElement:
        self._check_index(i)
        return self._reflections[i - 1]

    def weyl_from_word(self, word: Sequence[int]) -> WeylElement:
        """The product r_{i_1}···r_{i_l}; the empty word is the identity."""
        w = WeylElement.identity(self.rank)
        for i in word:
            self._check_index(i)
            w = w @ self._reflections[i - 1]
        return w

    # ---- positive roots and lengths -----------------------------------

    def _close_positive_roots(self) -> tuple[Weight, ...]:
        # Roots have integer coordinates, so the closure runs on int tuples
        # (r_i moves coordinate i by the Cartan pairing) and makes Weights
        # once at the end.
        roots = {tuple(int(c) for c in w.coords) for w in self.simple_roots}
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
        ordered = sorted(roots, key=lambda w: (sum(w), tuple(-c for c in w)))
        return tuple(Weight.of(w) for w in ordered)

    @staticmethod
    def _is_negative(lam: Weight) -> bool:
        """Whether a (nonzero) root has negative coordinates."""
        for c in lam.coords:
            if c != 0:
                return c < 0
        return False

    def length(self, w: WeylElement) -> int:
        """Number of positive roots sent to negative roots by ``w``."""
        return sum(1 for beta in self.positive_roots if self._is_negative(w.apply(beta)))

    def is_reduced(self, word: Sequence[int]) -> bool:
        return self.length(self.weyl_from_word(word)) == len(word)

    def longest_word(self) -> SimpleWord:
        """A reduced word for w0: greedily append the smallest index that
        extends the current element reducedly.  Deterministic."""
        if self._longest_word is not None:
            return self._longest_word
        word: list[int] = []
        w = WeylElement.identity(self.rank)
        while True:
            for i in range(1, self.rank + 1):
                if not self._is_negative(w.apply(self.simple_roots[i - 1])):
                    word.append(i)
                    w = w @ self._reflections[i - 1]
                    break
            else:
                break
        self._longest_word = tuple(word)
        return self._longest_word

    def longest_element(self) -> WeylElement:
        return self.weyl_from_word(self.longest_word())

    def weyl_elements(self) -> list[WeylElement]:
        """All elements of W, by breadth-first closure under the generators.

        Materializes the whole group; intended for the desk-scale built-in
        types.
        """
        seen: dict[tuple[tuple[int, ...], ...], WeylElement] = {}
        frontier = [WeylElement.identity(self.rank)]
        seen[frontier[0].rows] = frontier[0]
        while frontier:
            new: list[WeylElement] = []
            for w in frontier:
                for s in self._reflections:
                    ws = w @ s
                    if ws.rows not in seen:
                        seen[ws.rows] = ws
                        new.append(ws)
            frontier = new
        return list(seen.values())


def build_root_system(spec: CartanSpec) -> RootSystem:
    """Validate a Cartan spec and derive its positive-root data."""
    return RootSystem(spec)
