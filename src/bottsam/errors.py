"""Exception types shared across the library.

Errors raised for bad user input (invalid Cartan data, out-of-range indices,
mismatched ranks or words) all derive from :class:`BottsamError`.
``NotInSpan`` and ``NotDivisible`` are special: a localization route raises
them when an exact division leaves a remainder, which for genuine cohomology
classes can only mean a bug, so the command-line driver reports them as
internal failures rather than usage errors.

Also the rules that keep every message to one short line: no number of
more than ``MAX_DIGITS`` digits is read or printed, every value a message
shows is quoted to 40 characters, and a number in a message is named by its
size past 40 digits.
"""

import reprlib

MAX_DIGITS = 4300  # Python's own default limit on reading a number


_LONG = 10**40  # the least number of more than 40 digits


class _Short(reprlib.Repr):
    """``repr`` in short: at most 20 items of each list or tuple, so a long
    one costs no more than a short one, and an int of more than 40 digits
    named by its size.  A value whose own ``repr`` fails, say a ``Fraction``
    of more than ``MAX_DIGITS`` digits, is named by its type."""

    def __init__(self):
        super().__init__()
        self.maxlist = self.maxtuple = 20

    def repr_int(self, x, level):
        return repr(x) if -_LONG < x < _LONG else "<int of more than 40 digits>"


_SHORT = _Short()


def _quoted(value: object) -> str:
    """``repr(value)`` for a one-line message, cut after 40 characters (of
    the text itself, for a text, and of its short ``repr`` otherwise)."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else f"{value[:40]!r}..."
    text = _SHORT.repr(value)
    return text if len(text) <= 40 else f"{text[:40]}..."


def _named(noun: str, number: int) -> str:
    """``noun number`` for a one-line message, or ``noun of more than 40
    digits`` when it has more, found without converting it to text."""
    return f"{noun} {number}" if -_LONG < number < _LONG else f"{noun} of more than 40 digits"


class BottsamError(Exception):
    """Base class for all errors raised by this library."""


class InvalidCartan(BottsamError):
    """Cartan matrix violates the defining constraints."""


class NotFiniteType(BottsamError):
    """The Weyl group is infinite: a pair of simple roots spans an infinite
    rank-2 group, or the positive-root closure did not terminate within the
    configured bound."""


class IndexOutOfRange(BottsamError):
    """A simple-root or word-position index is outside its valid range."""


class RankMismatch(BottsamError):
    """Operands live over root systems of different ranks."""


class LengthMismatch(BottsamError):
    """Galleries of different lengths were combined."""


class WordMismatch(BottsamError):
    """Cohomology classes over different words were combined."""


class ZeroForm(BottsamError):
    """A linear form required to be nonzero was zero."""


class NotDivisible(BottsamError):
    """Exact polynomial division left a nonzero remainder."""


class NotInSpan(BottsamError):
    """Fixed-point values are not those of a polynomial combination of the
    basis classes."""


class NotInWeylGroup(BottsamError):
    """A matrix of the right rank is not an element of this Weyl group."""


class NotReducedWord(BottsamError):
    """A word required to be reduced is not."""


class NotLongestWord(BottsamError):
    """A word required to be a reduced decomposition of w0 is not."""


class NotReducedGallery(BottsamError):
    """A gallery whose selected letters must form a reduced word does not."""


class CapExceeded(BottsamError):
    """A requested enumeration exceeds the configured gallery cap."""
