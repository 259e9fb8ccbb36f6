"""Exact torus-equivariant cohomology of Bott-Samelson varieties.

Restriction classes indexed by galleries, their products and localization
integrals, the ordinary-cohomology quotient, and Schubert-class values by
subword sums — all in exact arithmetic (integer coefficients, rationals
only for rational input) for any finite-type Cartan matrix.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# The exported names by the module that defines them.  Importing the package
# loads none of these modules: reading a name loads its module, so importing
# ``bottsam.cli`` loads only the modules the command line uses.
_EXPORTS = {
    "errors": (
        "BottsamError", "CapExceeded", "IndexOutOfRange", "InvalidCartan",
        "LengthMismatch", "NotDivisible", "NotFiniteType", "NotInSpan",
        "NotInWeylGroup", "NotLongestWord", "NotReducedGallery", "NotReducedWord",
        "RankMismatch", "WordMismatch", "ZeroForm",
    ),
    "rootsystem": (
        "BUILTIN_CARTAN", "RootSystem", "SimpleWord", "WeylElement",
        "format_word", "parse_word",
    ),
    "polyring": ("Polynomial", "divide_exact", "format_polynomial", "parse_polynomial"),
    "bott_samelson": (
        "BSWord", "CohClass", "Gallery", "expand", "integrate",
        "integrate_by_localization", "multiply", "multiply_by_localization",
        "multiply_generator",
    ),
    "ordinary": (
        "OrdinaryClass", "Relation", "evaluate_at_origin", "ordinary_multiply", "relations",
    ),
    "schubert": ("BilleyQuery", "billey", "check_billey_identity", "fiber"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


class _Package(types.ModuleType):
    """Binds a module's exported names on the package as soon as the import
    system attaches the module, whoever imported it.  From then on the
    package holds the module's own objects, so code that swaps a module's
    function for a while (a tracer, a test's monkeypatch) finds the
    package's binding too, and no swapped object is left on the package."""

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        for n in _EXPORTS.get(name, ()):
            super().__setattr__(n, getattr(value, n))


sys.modules[__name__].__class__ = _Package


def __getattr__(name: str):
    module = next((m for m, names in _EXPORTS.items() if name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    importlib.import_module(f".{module}", __name__)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
