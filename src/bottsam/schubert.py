"""Schubert-class restrictions via subword sums, and their link to gallery
restriction values.

For a reduced word of ``v``, the value of the Schubert class of ``w`` at
``v`` is a sum over increasing subwords multiplying to ``w`` of products of
the prefix-reflected simple roots ``beta_j``.  Summing the gallery basis
values over the fiber ``{eps : ones(eps) = length(w), v(eps) = w}`` of a
longest-element word recovers the same polynomials, which is what
:func:`check_billey_identity` asserts.  Both read the weak interval below
``w`` from one table that the root system keeps per element.
"""

from __future__ import annotations

import itertools

from . import rootsystem
from .errors import NotLongestWord, NotReducedGallery, NotReducedWord, RankMismatch
from .bott_samelson import BSWord, CohClass, Gallery, _unpack
from .polyring import Polynomial
from .rootsystem import RootSystem, Rows, SimpleWord, Weight, WeylElement, ascends


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


def reduced_galleries(word: BSWord) -> list[Gallery]:
    """The galleries whose on letters form a reduced word, in gallery order."""
    letters = word.letters
    return [
        e
        for e in word.galleries()
        if word.rs.is_reduced(tuple(letters[i - 1] for i in e.support))
    ]


def _beta_columns(rs: RootSystem, v_word: SimpleWord) -> tuple[tuple[int, ...], ...]:
    """``beta_j`` as integer coordinates: column ``i_j`` of the prefix
    product, which must be positive at every step (the word is reduced).
    Kept in ``rs`` until it holds ``MEMO_MAX_ENTRIES`` words; only reduced
    words are kept, so any other word raises every time."""
    v_word = rootsystem.letters_of(v_word)  # 1.0 must not find (1,)
    out = rs._betas.get(v_word)
    if out is None:
        for i in v_word:
            rs._check_index(i)
        rows = rs.identity_rows
        cols = []
        for i in v_word:
            if not ascends(rows, i):
                raise NotReducedWord(f"{v_word} is not reduced")
            cols.append(tuple(r[i - 1] for r in rows))
            rows = rs.times_reflection(rows, i)
        out = tuple(cols)
        if len(rs._betas) < rootsystem.MEMO_MAX_ENTRIES:
            rs._betas[v_word] = out
    return out


def beta_sequence(rs: RootSystem, v_word: SimpleWord) -> list[Weight]:
    """``beta_j = r_{i_1} .. r_{i_{j-1}}(alpha_{i_j})`` for a reduced word;
    these are distinct positive roots (the inversions of v)."""
    return [Weight.of(b) for b in _beta_columns(rs, v_word)]


class BilleyQuery:
    """A restriction query: the class of ``w`` evaluated at the point of
    ``v_word`` (a reduced word)."""

    __slots__ = ("rs", "w", "v_word", "_betas")

    def __init__(self, rs: RootSystem, w: WeylElement, v_word: SimpleWord):
        if w.rank != rs.rank:
            raise RankMismatch(f"element of rank {w.rank} against rank {rs.rank}")
        self.rs = rs
        self.w = w
        self.v_word = tuple(v_word)
        self._betas = _beta_columns(rs, self.v_word)

    def __eq__(self, other) -> bool:
        if other.__class__ is not BilleyQuery:
            return NotImplemented
        return (self.rs, self.w, self.v_word) == (other.rs, other.w, other.v_word)

    def __hash__(self) -> int:
        return hash((self.rs, self.w, self.v_word))

    def __repr__(self) -> str:
        return f"BilleyQuery(rs={self.rs!r}, w={self.w!r}, v_word={self.v_word!r})"


def _weak_interval(
    rs: RootSystem, w: WeylElement
) -> tuple[list[dict[int, int]], int | None]:
    """Number the elements below ``w`` in the right weak order (prefixes of
    reduced words of ``w``) from 0 for ``w``, removing right descents.

    Returns ``up``, with ``up[x][i]`` the number of ``x r_i`` whenever that
    is above ``x`` and in the interval, and the number of the identity:
    ``None`` when ``w`` is no product of this system's reflections.  Kept
    in ``rs`` while its intervals hold at most ``MEMO_MAX_ENTRIES`` elements;
    one that does not fit serves its call only.
    """
    out = rs._intervals.get(w.rows)
    if out is not None:
        return out
    ids = {w.rows: 0}
    up: list[dict[int, int]] = [{}]
    frontier = [w.rows]
    while frontier:
        new: list[Rows] = []
        for rows in frontier:
            top = ids[rows]
            for i in range(1, rs.rank + 1):
                if not ascends(rows, i):
                    x = rs.times_reflection(rows, i)
                    k = ids.get(x)
                    if k is None:
                        k = ids[x] = len(up)
                        up.append({})
                        new.append(x)
                    up[k][i] = top
        frontier = new
    out = up, ids.get(rs.identity_rows)
    if sum(len(u) for u, _ in rs._intervals.values()) + len(up) <= rootsystem.MEMO_MAX_ENTRIES:
        rs._intervals[w.rows] = out
    return out


def billey(q: BilleyQuery) -> Polynomial:
    """Sum of beta products over increasing subwords of ``v_word`` that
    multiply to ``w``; zero when no subword does, one for ``w`` = identity.

    Every prefix of such a subword lies in the weak interval below ``w``, so
    one pass over the positions carries, for each ``u`` in the interval, the
    sum over the subwords read so far that multiply to ``u`` reducedly;
    letter ``s`` extends ``u`` when ``l(us) > l(u)`` and ``us`` is in the
    interval.  The sums are integer polynomials with each exponent packed
    into the bytes that hold ``len(v_word)``, as ``multiply`` packs them.
    """
    return _sweep(q, *_weak_interval(q.rs, q.w))


def _sweep(q: BilleyQuery, up: list[dict[int, int]], identity: int | None) -> Polynomial:
    """:func:`billey` over the weak interval ``up`` below ``q.w``."""
    rank = q.rs.rank
    if identity is None:
        return Polynomial.zero(rank)
    size = (len(q.v_word).bit_length() + 7) // 8 or 1
    units = [1 << 8 * size * k for k in range(rank)]
    states: dict[int, dict[int, int]] = {identity: {0: 1}}
    for i, beta in zip(q.v_word, q._betas):
        form = [(p, b) for p, b in zip(units, beta) if b]
        for x, poly in list(states.items()):
            u = up[x].get(i)
            if u is None:
                continue
            # u has a descent at i, so it is never a source at this letter:
            # adding into it in place leaves this pass's sources unchanged.
            acc = states.setdefault(u, {})
            for mono, c in poly.items():
                for p, b in form:
                    acc[mono + p] = acc.get(mono + p, 0) + c * b
    # every coefficient is a sum of products of positive-root coordinates,
    # so none is zero
    return Polynomial._of(rank, _unpack([states.get(0, {})], rank, size)[0])


def fiber(word: BSWord, w: WeylElement) -> set[Gallery]:
    """Galleries whose on-count equals ``length(w)`` and whose reflection
    product is ``w``."""
    out = set()
    for on in itertools.combinations(range(word.n), word.rs.length(w)):
        e = Gallery._of_mask(sum(1 << 8 * k for k in on), word.n)
        if word.v(e) == w:
            out.add(e)
    return out


def check_billey_identity(word: BSWord, w: WeylElement, e: Gallery) -> bool:
    """For a longest-element word: the subword sum for ``w`` at ``v(e)``
    equals the sum of basis values at ``e`` over the fiber of ``w``.

    ``word`` must be a reduced decomposition of the longest element, and the
    subword selected by ``e`` must be reduced.
    """
    return check_billey_identities(word, w, [e])[0]


def check_billey_identities(
    word: BSWord, w: WeylElement, galleries: list[Gallery] | None = None
) -> list[bool]:
    """:func:`check_billey_identity` at each gallery, by default at every
    reduced gallery, listed only once the word has passed; the fiber of
    ``w`` and its weak interval are found once for all of them."""
    rs = word.rs
    longest = len(word.letters) == len(rs.positive_roots)
    if not (longest and rs.is_reduced(word.letters)):
        raise NotLongestWord(
            f"{word.letters} is not a reduced decomposition of the longest element"
        )
    if galleries is None:
        galleries = reduced_galleries(word)
    fib = CohClass(word, dict.fromkeys(fiber(word, w), 1))
    interval = _weak_interval(rs, w)
    out = []
    for e in galleries:
        lhs = _sweep(BilleyQuery(rs, w, reduced_word_of_gallery(word, e)), *interval)
        out.append(lhs == fib.restriction(e))
    return out
