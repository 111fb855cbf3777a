"""octsieve: the 16 equivalent octonion multiplication rules, the Hadamard
variance sieve over them, and their derivation algebras.

Importing the package compiles what a sieve runs, ``algebra``, ``dsl`` and
``sieve``, and binds their public names here.  ``octsieve.derivations``
and ``octsieve.verification`` are imported, and compiled, only by a
caller that imports them.  The package imports no ``typing``:
annotations are strings naming ``collections.abc`` types and unions are
``X | Y`` values, as ``typing`` and the ``contextlib`` it pulls in made
the import slower.  A test checks, under ``-S``, that ``import octsieve,
octsieve.cli`` loads neither those two nor the deferred modules.
"""

from .algebra import (
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
    triplet_set,
)
from .dsl import ExprSyntaxError, UnboundVariableError, evaluate, free_vars, parse, to_text
from .sieve import function_family, is_invariant, sieve, sign_entry, sign_matrix, unsieve

__version__ = "0.1.0"

__all__ = [
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
    "__version__",
]
