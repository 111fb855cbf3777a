"""Seeded benchmark inputs whose expected verdicts hold by construction.

Invariant expressions come from four templates over linear forms L (two
scaled variables or conjugates, added or subtracted):

* ``L``: linear, so the sieve sees a sum of rule-free terms;
* ``L*L``: one octonion squared stays in the complex plane it spans;
* ``L1*L2 + L2*L1``: distinct imaginary units anticommute in every rule,
  so the rule-dependent cross terms cancel;
* ``(L*conj(L))*I``: ``L*conj(L)`` is the real norm, and a real times an
  invariant ``I`` is invariant.

A refuted expression is an invariant plus a product of distinct
variables, ``I + (a*b)*c``: the sieve is linear, so the distances of the
sum are those of the product, and a product of distinct generic
octonions changes sign between rules.

Every generator takes a ``random.Random`` and is deterministic for it.
Inputs are issued in blocks: one block visits every (variables, degree)
cell of a workload once, in a seeded order, so each block has the same
mix of shapes whatever the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VARIABLES = "abcd"
# Coefficients of the bigint workload: |c| <= 2^30, so a degree-6..10
# product has coefficients far past 2^62 and past float precision.
BIGINT_BOUND = 2**30


@dataclass(frozen=True)
class SieveCase:
    """One CLI `sieve` call: expression text, trial seed, expected verdict."""

    expr: str
    seed: int
    invariant: bool


@dataclass(frozen=True)
class ProductCase:
    """A product tree and its assignment; ``leaves`` names each factor."""

    expr: str
    env: dict[str, tuple[int, ...]]
    leaves: tuple[str, ...]


def linear_form(rng: random.Random, names: str) -> str:
    """``s1*x +- s2*conj(y)`` in either order: every form has the same nodes."""
    x, y = rng.choice(names), rng.choice(names)
    terms = [f"{rng.randint(1, 3)}*{x}", f"{rng.randint(1, 3)}*conj({y})"]
    rng.shuffle(terms)
    return terms[0] + rng.choice((" + ", " - ")) + terms[1]


def invariant(rng: random.Random, names: str, degree: int, base: int) -> str:
    """An expression of exactly ``degree`` that is invariant under all 16
    rules; ``base`` (0..2) picks the degree-2 template at its core."""
    if degree == 1:
        return linear_form(rng, names)
    if degree == 2:
        form = linear_form(rng, names)
        if base == 0:
            return f"({form})*({form})"
        if base == 1:
            other = linear_form(rng, names)
            return f"({form})*({other}) + ({other})*({form})"
        return f"(({form})*conj({form}))*{rng.randint(2, 5)}"
    form = linear_form(rng, names)
    norm = f"(({form})*conj({form}))"
    inner = invariant(rng, names, degree - 2, base)
    return f"{norm}*({inner})" if rng.random() < 0.5 else f"({inner})*{norm}"


def refuted(rng: random.Random, names: str, degree: int, base: int) -> str:
    """An invariant of ``degree`` plus a product of 2 or 3 distinct variables."""
    k = min(3, len(names), degree)
    a, b, *rest = rng.sample(names, k)
    if rest:
        product = f"({a}*{b})*{rest[0]}" if rng.random() < 0.5 else f"{a}*({b}*{rest[0]})"
    else:
        product = f"{a}*{b}"
    inv = invariant(rng, names, degree, base)
    return f"{inv} + {product}" if rng.random() < 0.5 else f"{product} - ({inv})"


# Cells (number of variables, degree).  A linear form names at most two
# variables, so degree 1 stops at two.  A single variable generates a
# commutative subalgebra, so refuted cells need two or more.  The cell
# also fixes the degree-2 core template, so a block's cost depends little
# on the seed.  The cell counts put the median operation inside one degree
# (degree 5 for both sieve classes, 8 for products), not between two.
INVARIANT_CELLS = ((1, 1), (2, 1)) + tuple((v, d) for v in range(1, 5) for d in range(2, 9))
REFUTED_CELLS = tuple((v, d) for v in range(2, 5) for d in range(2, 9))
PRODUCT_CELLS = tuple((v, d) for v in range(1, 5) for d in range(6, 11))


def sieve_block(rng: random.Random, want_invariant: bool) -> list[SieveCase]:
    cells = list(INVARIANT_CELLS if want_invariant else REFUTED_CELLS)
    rng.shuffle(cells)
    make = invariant if want_invariant else refuted
    return [
        SieveCase(make(rng, VARIABLES[:nvars], degree, (nvars + degree) % 3),
                  rng.randrange(2**31), want_invariant)
        for nvars, degree in cells
    ]


def _group(rng: random.Random, atoms: list[str]) -> str:
    if len(atoms) == 1:
        return atoms[0]
    cut = rng.randint(1, len(atoms) - 1)
    left, right = _group(rng, atoms[:cut]), _group(rng, atoms[cut:])
    return f"({left})*({right})"


def product_case(rng: random.Random, nvars: int, degree: int) -> ProductCase:
    names = VARIABLES[:nvars]
    leaves = tuple(rng.choice(names) for _ in range(degree))
    atoms = [f"conj({name})" if rng.random() < 0.3 else name for name in leaves]
    env = {
        name: tuple(rng.randint(-BIGINT_BOUND, BIGINT_BOUND) for _ in range(8))
        for name in sorted(set(leaves))
    }
    return ProductCase(_group(rng, atoms), env, leaves)


def product_block(rng: random.Random) -> list[ProductCase]:
    cells = list(PRODUCT_CELLS)
    rng.shuffle(cells)
    return [product_case(rng, nvars, degree) for nvars, degree in cells]
