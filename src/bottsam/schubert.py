"""Schubert-class restrictions via subword sums, and their link to gallery
restriction values.

For a reduced word of ``v``, the value of the Schubert class of ``w`` at
``v`` is a sum over increasing subwords multiplying to ``w`` of products of
the prefix-reflected simple roots ``beta_j``.  Summing the gallery basis
values over the fiber ``{eps : ones(eps) = length(w), v(eps) = w}`` of a
longest-element word recovers the same polynomials, which is what
:func:`check_billey_identity` asserts.
"""

from __future__ import annotations

from .errors import NotLongestWord, NotReducedGallery, NotReducedWord
from .bott_samelson import BSWord, Gallery
from .polyring import Polynomial
from .rootsystem import RootSystem, SimpleWord, Weight, WeylElement


def reduced_word_of_gallery(word: BSWord, e: Gallery) -> SimpleWord:
    """The letters of ``word`` at the on positions of ``e``, required to be a
    reduced word (for ``v(e)``)."""
    word.check_gallery(e)
    sub = tuple(word.letters[i - 1] for i in e.support)
    if sub and not word.rs.is_reduced(sub):
        raise NotReducedGallery(
            f"gallery {e} selects the non-reduced subword {sub}"
        )
    return sub


def beta_sequence(rs: RootSystem, v_word: SimpleWord) -> list[Weight]:
    """``beta_j = r_{i_1} .. r_{i_{j-1}}(alpha_{i_j})`` for a reduced word;
    these are distinct positive roots (the inversions of v)."""
    v_word = tuple(v_word)
    if not rs.is_reduced(v_word):
        raise NotReducedWord(f"{v_word} is not reduced")
    out: list[Weight] = []
    w = WeylElement.identity(rs.rank)
    for i in v_word:
        out.append(w.apply(rs.simple_roots[i - 1]))
        w = w @ rs.simple_reflection(i)
    return out


class BilleyQuery:
    """A restriction query: the class of ``w`` evaluated at the point of
    ``v_word`` (a reduced word)."""

    __slots__ = ("rs", "w", "v_word")

    def __init__(self, rs: RootSystem, w: WeylElement, v_word: SimpleWord):
        self.rs = rs
        self.w = w
        self.v_word = tuple(v_word)
        if not rs.is_reduced(self.v_word):
            raise NotReducedWord(f"{self.v_word} is not reduced")

    def __eq__(self, other) -> bool:
        if other.__class__ is not BilleyQuery:
            return NotImplemented
        return (self.rs, self.w, self.v_word) == (other.rs, other.w, other.v_word)

    def __hash__(self) -> int:
        return hash((self.rs, self.w, self.v_word))

    def __repr__(self) -> str:
        return f"BilleyQuery(rs={self.rs!r}, w={self.w!r}, v_word={self.v_word!r})"


def billey(q: BilleyQuery) -> Polynomial:
    """Sum of beta products over increasing subwords of ``v_word`` that
    multiply to ``w``; zero when no subword does, one for ``w`` = identity.

    Depth-first over positions, pruning branches that cannot reach the
    required subword length.
    """
    rs = q.rs
    m = rs.length(q.w)
    betas = beta_sequence(rs, q.v_word)
    beta_polys = [Polynomial.from_weight(b) for b in betas]
    n = len(betas)
    refls = [rs.simple_reflection(i) for i in q.v_word]
    total = Polynomial.zero(rs.rank)
    identity = WeylElement.identity(rs.rank)

    def walk(pos: int, elem: WeylElement, taken: int, prod: Polynomial):
        nonlocal total
        if taken == m:
            if elem == q.w:
                total = total + prod
            return
        if n - pos < m - taken:
            return
        for j in range(pos, n):
            if n - j < m - taken:
                break
            walk(j + 1, elem @ refls[j], taken + 1, prod * beta_polys[j])

    walk(0, identity, 0, Polynomial.one(rs.rank))
    return total


def fiber(word: BSWord, w: WeylElement) -> set[Gallery]:
    """Galleries whose on-count equals ``length(w)`` and whose reflection
    product is ``w``."""
    target_len = word.rs.length(w)
    out = set()
    for e in word.galleries():
        if e.ones == target_len and word.v(e) == w:
            out.add(e)
    return out


def check_billey_identity(word: BSWord, w: WeylElement, e: Gallery) -> bool:
    """For a longest-element word: the subword sum for ``w`` at ``v(e)``
    equals the sum of basis values at ``e`` over the fiber of ``w``.

    ``word`` must be a reduced decomposition of the longest element, and the
    subword selected by ``e`` must be reduced.
    """
    rs = word.rs
    if not (
        rs.is_reduced(word.letters)
        and len(word.letters) == len(rs.positive_roots)
    ):
        raise NotLongestWord(
            f"{word.letters} is not a reduced decomposition of the longest element"
        )
    v_word = reduced_word_of_gallery(word, e)
    lhs = billey(BilleyQuery(rs, w, v_word))
    rhs = Polynomial.zero(rs.rank)
    for ep in fiber(word, w):
        rhs = rhs + word.sigma(ep, e)
    return lhs == rhs
