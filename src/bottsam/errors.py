"""Exception types shared across the library.

Errors raised for bad user input (invalid Cartan data, out-of-range indices,
mismatched ranks or words) all derive from :class:`BottsamError`.
``ResidualDenominator`` is special: it signals that a localization sum failed
to cancel, which for genuine cohomology classes can only mean a bug, so the
command-line driver reports it as an internal failure rather than a usage
error.
"""


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


class ResidualDenominator(BottsamError):
    """A fraction expected to cancel completely kept denominator factors."""


class NotInSpan(BottsamError):
    """A restriction function is not an S-combination of the basis classes."""


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
