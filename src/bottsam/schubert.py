"""Schubert-class restrictions via subword sums, and their link to gallery
restriction values.

For a reduced word of ``v``, the value of the Schubert class of ``w`` at
``v`` is a sum over increasing subwords multiplying to ``w`` of products of
the prefix-reflected simple roots ``beta_j``.  Summing the gallery basis
values over the fiber ``{eps : ones(eps) = length(w), v(eps) = w}`` of a
longest-element word recovers the same polynomials, which is what
:func:`check_billey_identity` asserts of :func:`billey` itself, at the
point of each gallery's reduced word.
"""

from __future__ import annotations

from . import rootsystem
from .errors import NotLongestWord, NotReducedGallery, NotReducedWord, RankMismatch, _quoted
from .bott_samelson import BSWord, CohClass, Gallery, _packing
from .polyring import Polynomial
from .rootsystem import RootSystem, Rows, SimpleWord, WeylElement, ascends


def _reduced_word_of_gallery(word: BSWord, e: Gallery) -> SimpleWord:
    """The letters of ``word`` at the on positions of ``e``, required to be a
    reduced word (for ``v(e)``)."""
    word.check_gallery(e)
    sub = tuple(word.letters[i - 1] for i in e.support)
    if sub and not word.rs.is_reduced(sub):
        raise NotReducedGallery(
            f"gallery {e} selects the non-reduced subword {_quoted(sub)}"
        )
    return sub


def _reduced_walk(word: BSWord) -> list[tuple[int, Rows]]:
    """The mask and the rows of ``v(e)`` of each gallery ``e`` whose on
    letters form a reduced word, depth first.  A prefix is extended only
    where its letter ascends, one reflection per edge, so no prefix that is
    not reduced is formed."""
    rs, letters, n = word.rs, word.letters, word.n
    out, stack = [], [(0, 0, rs.identity_rows)]
    while stack:
        k, mask, rows = stack.pop()
        if k == n:
            out.append((mask, rows))
            continue
        stack.append((k + 1, mask, rows))
        if ascends(rows, letters[k]):
            stack.append((k + 1, mask | 1 << 8 * k, rs.times_reflection(rows, letters[k])))
    return out


def _packed_betas(rs: RootSystem, v_word: SimpleWord) -> tuple[int, dict, tuple]:
    """``beta_j``, column ``i_j`` of the prefix product, which must be
    positive at every step (the word, of ``int`` letters, is reduced), as
    the byte width that holds ``len(v_word)``, the table of exponent tuples
    at that width and, per beta, the ``(unit, coefficient)`` pairs of its
    nonzero coordinates, each exponent packed into that width as
    ``multiply`` packs them.  Entered in ``rs._betas``,
    which :class:`BilleyQuery` reads first, until it holds
    ``MEMO_MAX_ENTRIES`` words; only reduced words enter, so any other word
    raises every time."""
    for i in v_word:
        rs._check_index(i)
    size, units, keys = _packing(rs, len(v_word))
    rows = rs.identity_rows
    forms = []
    for i in v_word:
        if not ascends(rows, i):
            raise NotReducedWord(f"{_quoted(v_word)} is not reduced")
        forms.append(tuple((p, r[i - 1]) for p, r in zip(units, rows) if r[i - 1]))
        rows = rs.times_reflection(rows, i)
    out = size, keys, tuple(forms)
    if len(rs._betas) < rootsystem.MEMO_MAX_ENTRIES:
        rs._betas[v_word] = out
    return out


class BilleyQuery:
    """A restriction query: the class of ``w`` evaluated at the point of
    ``v_word`` (a reduced word)."""

    __slots__ = ("rs", "w", "v_word", "_betas")

    def __init__(self, rs: RootSystem, w: WeylElement, v_word: SimpleWord):
        if not isinstance(w, WeylElement):
            raise ValueError(f"{_quoted(w)} is a {type(w).__name__}; give a WeylElement")
        if len(w.rows) != rs.rank:
            raise RankMismatch(f"element of rank {w.rank} against rank {rs.rank}")
        self.rs = rs
        self.w = w
        self.v_word = v_word = rootsystem.letters_of(v_word)  # 1.0 must not find (1,)
        self._betas = rs._betas.get(v_word) or _packed_betas(rs, v_word)

    def __eq__(self, other) -> bool:
        if other.__class__ is not BilleyQuery:
            return NotImplemented
        return (self.rs, self.w, self.v_word) == (other.rs, other.w, other.v_word)

    def __hash__(self) -> int:
        return hash((self.rs, self.w, self.v_word))

    def __repr__(self) -> str:
        return f"BilleyQuery(rs={self.rs!r}, w={self.w!r}, v_word={self.v_word!r})"


# Per letter ``i``, at index ``i - 1``, the up-edges ``(x, u)`` of a weak
# interval; the number of the identity; the number of elements.
Interval = tuple[tuple[tuple[tuple[int, int], ...], ...], int | None, int]


def _weak_interval(rs: RootSystem, w: WeylElement) -> Interval:
    """Number the elements below ``w`` in the right weak order (prefixes of
    reduced words of ``w``) from 0 for ``w``, removing right descents.

    Returns, for each letter ``i``, the edges ``(x, u)`` with ``u`` the
    number of ``x r_i`` whenever that is above ``x`` and in the interval;
    the number of the identity, ``None`` when ``w`` is no product of this
    system's reflections; and the number of elements.  Kept in ``rs``
    while its intervals hold at most ``MEMO_MAX_ENTRIES`` elements; one
    that does not fit serves its call only.
    """
    out = rs._intervals.get(w.rows)
    if out is not None:
        return out
    ids = {w.rows: 0}
    edges: list[list[tuple[int, int]]] = [[] for _ in range(rs.rank)]
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
                        k = ids[x] = len(ids)
                        new.append(x)
                    edges[i - 1].append((k, top))
        frontier = new
    out = tuple(map(tuple, edges)), ids.get(rs.identity_rows), len(ids)
    if sum(n for _, _, n in rs._intervals.values()) + len(ids) <= rootsystem.MEMO_MAX_ENTRIES:
        rs._intervals[w.rows] = out
    return out


def billey(q: BilleyQuery) -> Polynomial:
    """Sum of beta products over increasing subwords of ``v_word`` that
    multiply to ``w``; zero when no subword does, one for ``w`` = identity.

    Every prefix of such a subword lies in the weak interval below ``w``, so
    one pass over the positions carries, for each ``u`` in the interval, the
    sum over the subwords read so far that multiply to ``u`` reducedly;
    letter ``s`` extends ``u`` along its up-edge when ``l(us) > l(u)`` and
    ``us`` is in the interval.  The sums are integer polynomials with each
    exponent packed into the bytes that hold ``len(v_word)``, as
    ``multiply`` packs them, and read back through the same table of
    exponent tuples.  Their coefficients are sums of products of positive
    root coordinates, so none cancels and the value is built here, not in
    ``multiply``'s exit for many polynomials at once.
    """
    edges, identity, count = _weak_interval(q.rs, q.w)
    rank = q.rs.rank
    if identity is None:
        return Polynomial.zero(rank)
    size, keys, forms = q._betas
    states: list[dict[int, int] | None] = [None] * count
    states[identity] = {0: 1}
    for i, form in zip(q.v_word, forms):
        for x, u in edges[i - 1]:
            poly = states[x]
            if poly is None:
                continue
            # u has a descent at i, so it is never a source at this letter:
            # adding into it in place leaves this letter's sources unchanged.
            acc = states[u]
            if acc is None:
                acc = states[u] = {}
            for mono, c in poly.items():
                for p, b in form:
                    m = mono + p
                    acc[m] = acc.get(m, 0) + c * b
    n, terms = rank * size, {}
    for m, c in (states[0] or {}).items():
        key = keys.get(m)
        if key is None:
            b = m.to_bytes(n, "little")
            key = tuple(int.from_bytes(b[k : k + size], "little") for k in range(0, n, size))
            if len(keys) < rootsystem.MEMO_MAX_ENTRIES:
                keys[m] = key
        terms[key] = c
    value = Polynomial.__new__(Polynomial)
    value.rank, value.terms = rank, terms
    return value


def fiber(word: BSWord, w: WeylElement) -> set[Gallery]:
    """Galleries whose on-count equals ``length(w)`` and whose reflection
    product is ``w``: a gallery of ``length(w)`` on bits with product ``w``
    selects a reduced word of ``w``, and a reduced gallery with product
    ``w`` has that many on bits."""
    word.rs.length(w)  # an element of another rank or group raises
    return {Gallery._of_mask(m, word.n) for m, rows in _reduced_walk(word) if rows == w.rows}


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
    reduced gallery, listed only once the word has passed.  One walk over
    the reduced galleries gives the fiber of ``w`` and the default
    galleries, whose letters it has already proved reduced; galleries
    passed in are each checked to be reduced before :func:`billey` runs at
    any of them."""
    rs, n = word.rs, word.n
    longest = len(word.letters) == len(rs.positive_roots)
    if not (longest and rs.is_reduced(word.letters)):
        raise NotLongestWord(
            f"{_quoted(word.letters)} is not a reduced decomposition of the longest element"
        )
    rs.length(w)  # an element of another rank or group raises
    walk = _reduced_walk(word)
    one = Polynomial.one(rs.rank)  # the fiber sum is read here alone: its coordinates share it
    fib = CohClass._of_masks(word, {m: one for m, rows in walk if rows == w.rows})
    if galleries is None:
        galleries = sorted((Gallery._of_mask(m, n) for m, _ in walk), key=Gallery.sort_key)
        v_words = [tuple(word.letters[i - 1] for i in e.support) for e in galleries]
    else:
        v_words = [_reduced_word_of_gallery(word, e) for e in galleries]
    return [billey(BilleyQuery(rs, w, v)) == fib.restriction(e) for e, v in zip(galleries, v_words)]
