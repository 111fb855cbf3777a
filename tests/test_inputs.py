"""Indices and counts from outside the package: one rule, one message."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import octsieve
from octsieve.algebra import Octonion, mul_table
from octsieve.automorphisms import Automorphism
from octsieve.derivations import antiassoc_closed_form, derivation_span_rank, expr_cross_algebra_equal
from octsieve.dsl import evaluate, parse
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
    "span-pair-u": (lambda x: derivation_span_rank([(x, 2)], 0), "generator pair index", 1, 7),
    "span-pair-v": (lambda x: derivation_span_rank([(1, x)], 0), "generator pair index", 1, 7),
    "span-restrict": (lambda x: derivation_span_rank([(1, 2)], 0, restrict_to=[x]), "restriction index", 1, 7),
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


def test_importing_the_package_and_cli_loads_neither_fractions_nor_decimal():
    # both are imported where a rational is first needed, which keeps them
    # out of the start-up time of every CLI call
    env = {**os.environ, "PYTHONPATH": str(Path(octsieve.__file__).parents[1])}
    code = "import sys, octsieve, octsieve.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n")
