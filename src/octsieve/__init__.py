"""octsieve: the 16 equivalent octonion multiplication rules, the Hadamard
variance sieve over them, and their derivation algebras.

Importing the package compiles what a sieve runs: ``algebra``, ``dsl`` and
``sieve``.  The names of ``derivations`` and ``verification`` are
re-exported too, but each of those modules is imported when one of its
names (or the module itself) is first read from the package, through the
module ``__getattr__`` below (PEP 562).
"""

from .algebra import (
    GENERATOR_FLIPS,
    REFERENCE_TRIPLETS,
    NotEquivalentAlgebraError,
    Octonion,
    conjugate,
    generator_word,
    identify_algebra,
    inverse,
    mul_table,
    multiply,
    norm,
    norm_sq,
    parity_word,
    table_from_tensor,
    triplet_set,
)
from .dsl import ExprSyntaxError, UnboundVariableError, evaluate, free_vars, parse, to_text
from .sieve import function_family, is_invariant, sieve, sign_entry, sign_matrix, unsieve

__version__ = "0.1.0"

# Module -> the names the package re-exports from it on first use.
_LAZY = {
    "derivations": ("antiassoc_closed_form", "cross_algebra_equal", "derivation_span_rank", "derive",
                    "expr_cross_algebra_equal", "leibniz_check"),
    "verification": ("run_checks",),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "GENERATOR_FLIPS",
    "REFERENCE_TRIPLETS",
    "NotEquivalentAlgebraError",
    "Octonion",
    "conjugate",
    "generator_word",
    "identify_algebra",
    "inverse",
    "mul_table",
    "multiply",
    "norm",
    "norm_sq",
    "parity_word",
    "table_from_tensor",
    "triplet_set",
    "ExprSyntaxError",
    "UnboundVariableError",
    "evaluate",
    "free_vars",
    "parse",
    "to_text",
    "function_family",
    "is_invariant",
    "sieve",
    "sign_entry",
    "sign_matrix",
    "unsieve",
    *_HOME,
    "__version__",
]


def __getattr__(name: str):
    """A re-exported name or a deferred module, imported on first read and kept in the package."""
    home = name if name in _LAZY else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{home}")
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAZY})
