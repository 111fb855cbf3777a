"""Indices, counts and constants from outside the package: one rule, one message."""

import math
from fractions import Fraction

import pytest

from octsieve.algebra import Octonion, mul_table
from octsieve.automorphisms import Automorphism
from octsieve.derivations import (antiassoc_closed_form, derivation_matrix, derivation_span_rank,
                                  expr_cross_algebra_equal)
from octsieve.dsl import Const, Mul, Var, evaluate, free_vars, parse
from octsieve.sieve import is_invariant, sign_entry

# (call with the value under test, what the message names, low, high or None)
SITES = {
    "unit": (Octonion.unit, "basis index", 0, 7),
    "sign_entry-j": (lambda x: sign_entry(x, 2), "sign matrix index", 0, 15),
    "sign_entry-k": (lambda x: sign_entry(2, x), "sign matrix index", 0, 15),
    "is_invariant-trials": (lambda x: is_invariant("a*b", trials=x), "trials", 1, None),
    "cross_algebra-trials": (lambda x: expr_cross_algebra_equal(Octonion.unit(1), Octonion.unit(2), "a", trials=x),
                             "trials", 1, None),
    "automorphism": (Automorphism, "mask", 0, 15),
    "antiassoc-u": (lambda x: antiassoc_closed_form(x, 2, 4, 0), "basis index", 1, 7),
    "antiassoc-v": (lambda x: antiassoc_closed_form(1, x, 4, 0), "basis index", 1, 7),
    "antiassoc-a": (lambda x: antiassoc_closed_form(1, 2, x, 0), "basis index", 1, 7),
    "matrix-u": (lambda x: derivation_matrix(x, 2, 0), "generator pair index", 1, 7),
    "matrix-v": (lambda x: derivation_matrix(1, x, 0), "generator pair index", 1, 7),
    "span-pair-u": (lambda x: derivation_span_rank([(x, 2)], 0), "generator pair index", 1, 7),
    "span-pair-v": (lambda x: derivation_span_rank([(1, x)], 0), "generator pair index", 1, 7),
    "span-restrict": (lambda x: derivation_span_rank([(1, 2)], 0, restrict_to=[x]), "restriction index", 1, 7),
    "span-algebra-id": (lambda x: derivation_span_rank([], x), "algebra id", 0, 15),
    "algebra-id": (mul_table, "algebra id", 0, 15),
    # no Mul node: the id is checked at the leaves
    "evaluate-var": (lambda x: evaluate(parse("a+b"), {"a": Octonion.unit(1), "b": Octonion.unit(2)}, x),
                     "algebra id", 0, 15),
    "evaluate-const": (lambda x: evaluate(parse("-3"), {}, x), "algebra id", 0, 15),
}


@pytest.mark.parametrize("site, value", [
    (site, value) for site, (_, _, low, high) in SITES.items()
    for value in (1.5, True, "3", low - 1) + (() if high is None else (high + 1,))
])
def test_a_non_int_or_out_of_range_index_or_count_is_a_value_error(site, value):
    call, what, low, high = SITES[site]
    bounds = f">= {low}" if high is None else f"in {low}..{high}"
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == f"{what} must be an integer {bounds}, got {value!r}"


# a constant in a hand-built tree, read as an Octonion coefficient is
CONSTANT_SITES = {
    "is_invariant": lambda c: is_invariant(Mul(Const(c), parse("a*b")), trials=4),
    "cross_algebra": lambda c: expr_cross_algebra_equal(Octonion.unit(1), Octonion.unit(2), Mul(Const(c), Var("a")),
                                                        trials=2),
    "free_vars": lambda c: free_vars(Mul(Const(c), Var("a"))),
}


@pytest.mark.parametrize("site", CONSTANT_SITES)
@pytest.mark.parametrize("value", ["x", 1j, True, None, [1], {}])
def test_a_constant_that_is_not_a_real_number_is_a_type_error(site, value):
    with pytest.raises(TypeError) as err:
        CONSTANT_SITES[site](value)
    assert str(err.value) == f"coefficients must be real numbers, got {value!r}"


@pytest.mark.parametrize("site", CONSTANT_SITES)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_constant_that_is_not_finite_is_a_value_error(site, value):
    # checked before the constant is read as a rational, which needs it finite
    with pytest.raises(ValueError) as err:
        CONSTANT_SITES[site](value)
    assert str(err.value) == f"coefficients must be finite, got {value!r}"


@pytest.mark.parametrize("value", [Fraction(1, 3), 2, 0.5])
def test_a_real_constant_is_read_as_the_rational_it_is(value):
    plain = is_invariant("a*b", trials=4)
    verdict = CONSTANT_SITES["is_invariant"](value)
    assert not verdict.invariant and verdict.witness.distance == value * plain.witness.distance
    verdict = CONSTANT_SITES["cross_algebra"](value)
    assert verdict.in_span.equal and not verdict.out_of_span.equal

