"""Exact torus-equivariant cohomology of Bott-Samelson varieties.

Restriction classes indexed by galleries, their products and localization
integrals, the ordinary-cohomology quotient, and Schubert-class values by
subword sums — all in exact arithmetic (integer coefficients, rationals
only for rational input) for any finite-type Cartan matrix.
"""

from .errors import (
    BottsamError,
    CapExceeded,
    IndexOutOfRange,
    InvalidCartan,
    LengthMismatch,
    NotDivisible,
    NotFiniteType,
    NotInSpan,
    NotInWeylGroup,
    NotLongestWord,
    NotReducedGallery,
    NotReducedWord,
    RankMismatch,
    WordMismatch,
    ZeroForm,
)
from .rootsystem import (
    BUILTIN_CARTAN,
    CartanSpec,
    RootSystem,
    SimpleWord,
    Weight,
    WeylElement,
    format_word,
    parse_word,
)
from .polyring import (
    Polynomial,
    divide_exact,
    format_polynomial,
    parse_polynomial,
)
from .bott_samelson import (
    BSWord,
    CohClass,
    Gallery,
    expand,
    integrate,
    integrate_by_localization,
    multiply,
    multiply_by_localization,
    multiply_generator,
)
from .ordinary import (
    OrdinaryClass,
    Relation,
    evaluate_at_origin,
    ordinary_multiply,
    relations,
)
from .schubert import (
    BilleyQuery,
    beta_sequence,
    billey,
    check_billey_identity,
    fiber,
    reduced_word_of_gallery,
)

__version__ = "0.1.0"

__all__ = [
    "BottsamError",
    "CapExceeded",
    "IndexOutOfRange",
    "InvalidCartan",
    "LengthMismatch",
    "NotDivisible",
    "NotFiniteType",
    "NotInSpan",
    "NotInWeylGroup",
    "NotLongestWord",
    "NotReducedGallery",
    "NotReducedWord",
    "RankMismatch",
    "WordMismatch",
    "ZeroForm",
    "BUILTIN_CARTAN",
    "CartanSpec",
    "RootSystem",
    "SimpleWord",
    "Weight",
    "WeylElement",
    "format_word",
    "parse_word",
    "Polynomial",
    "divide_exact",
    "format_polynomial",
    "parse_polynomial",
    "BSWord",
    "CohClass",
    "Gallery",
    "expand",
    "integrate",
    "integrate_by_localization",
    "multiply",
    "multiply_by_localization",
    "multiply_generator",
    "OrdinaryClass",
    "Relation",
    "evaluate_at_origin",
    "ordinary_multiply",
    "relations",
    "BilleyQuery",
    "beta_sequence",
    "billey",
    "check_billey_identity",
    "fiber",
    "reduced_word_of_gallery",
]
