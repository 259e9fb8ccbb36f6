"""Exception types shared across the library.

Errors raised for bad user input (invalid Cartan data, out-of-range indices,
mismatched ranks or words) all derive from :class:`BottsamError`.
``NotInSpan`` and ``NotDivisible`` are special: a localization route raises
them when an exact division leaves a remainder, which for genuine cohomology
classes can only mean a bug, so the command-line driver reports them as
internal failures rather than usage errors.

Also the rules that keep every message to one short line: no number of
more than ``MAX_DIGITS`` digits is read or printed, text is quoted to 40
characters, and a number in a message is named by its size past 40 digits.
"""

MAX_DIGITS = 4300  # Python's own default limit on reading a number


def _quoted(text: str) -> str:
    """``text`` quoted for a one-line message, cut after 40 characters."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}..."


_LONG = 10**40  # the least number of more than 40 digits


def _named(noun: str, number: int) -> str:
    """``noun number`` for a one-line message, or ``noun of more than 40
    digits`` when it has more, found without converting it to text."""
    return f"{noun} {number}" if -_LONG < number < _LONG else f"{noun} of more than 40 digits"


class BottsamError(Exception):
    """Base class for all errors raised by this library."""


class InvalidCartan(BottsamError):
    """Cartan matrix violates the defining constraints."""


class NotFiniteType(BottsamError):
    """Positive-root closure did not terminate within the configured bound."""


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
