"""Hadamard sign matrix and the variance sieve over the 16 rules.

Evaluating one polynomial expression under every multiplication rule
gives a 16-entry function family f[0..15].  The sieve combines the family
through a 16x16 Hadamard sign matrix

    b[j][k] = (-1) ** popcount(j & k)

into a distance family g[k] = (1/4) * sum_j b[j][k] f[j].  Applying the
same transform to the distances restores the functions exactly (the
scaled matrix is its own inverse).

The transform is the Walsh transform over Z2^4, computed as a radix-2
butterfly: four stages, one per bit of the index, each replacing the
entries x, y whose indices differ only in that bit by x + y and x - y;
then every sum is divided by 4.  A constant family therefore has
distances g[k], k > 0, that are exactly zero, for float coefficients too:
x - x is exactly 0 and every later stage adds zeros.

An expression is algebraically invariant when g[k] = 0 for every k > 0,
i.e. its value does not depend on which of the 16 rules multiplies.  With
integer coefficient assignments every sum here is exact (quarters are
dyadic while they stay below 2^53), so invariance is a zero test with no
tolerance.

:func:`is_invariant` evaluates each trial in one pass over the tree that
carries all 16 rules at once.  A node's value is a single coefficient
8-tuple while it is the same under every rule (variables, constants and
their linear combinations, real norms such as L*conj(L)), and a list of
16 per-rule 8-tuples otherwise; a list whose entries are identical
collapses back to one tuple.  A product of exact ints is a scaling when
one factor is a real tuple; a product of two other exact-int tuples goes
through the shared product ``algebra._mul_all``, which computes the 64
pair products once for all 16 rules and tells whether the result depends
on the rule; any other product runs the kernel once per rule.  The
values are those of :func:`function_family`, bit for bit, so the CLI
prints the family from the same pass.  A trial whose root value is one
tuple has every distance past g[0] exactly zero and is not sieved;
otherwise its 16 values are sieved for the witness.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from operator import add, neg, sub
from typing import Mapping, Sequence, Union

from .algebra import _SIGNS, Octonion, _character, _mul, _mul_all
from .dsl import Add, Conj, Const, Expr, Mul, Neg, Sub, Var, evaluate, free_vars, parse

__all__ = [
    "sign_entry",
    "sign_matrix",
    "function_family",
    "sieve",
    "unsieve",
    "random_assignment",
    "InvarianceWitness",
    "SieveVerdict",
    "is_invariant",
]

FunctionFamily = tuple[Octonion, ...]
DistanceFamily = tuple[Octonion, ...]


def sign_entry(j: int, k: int) -> int:
    """Sign matrix entry: -1 to the popcount of the bitwise AND."""
    if not 0 <= j <= 15 or not 0 <= k <= 15:
        raise ValueError(f"sign matrix indices must be in 0..15, got ({j}, {k})")
    return _character(j, k)


_MATRIX: tuple[tuple[int, ...], ...] = tuple(
    tuple(_character(j, k) for k in range(16)) for j in range(16)
)


def sign_matrix() -> tuple[tuple[int, ...], ...]:
    """The full 16x16 sign matrix, rows indexed by j, columns by k."""
    return _MATRIX


def _check_family(values: Sequence[Octonion]) -> FunctionFamily:
    fam = tuple(values)
    if len(fam) != 16 or not all(isinstance(v, Octonion) for v in fam):
        raise ValueError("a family is a 16-tuple of octonions")
    return fam


def function_family(expr: Expr, env: Mapping[str, Octonion]) -> FunctionFamily:
    """Evaluate ``expr`` under every rule; entry j uses rule j."""
    return tuple(evaluate(expr, env, n) for n in range(16))


# The butterfly's index pairs, stage by stage: j and j | h for each bit h.
_BUTTERFLY = tuple((j, j | h) for h in (1, 2, 4, 8) for j in range(16) if not j & h)


def _transform(values: Sequence[Octonion]) -> tuple[Octonion, ...]:
    rows = [f.coeffs for f in _check_family(values)]
    for j, k in _BUTTERFLY:
        x, y = rows[j], rows[k]
        rows[j] = tuple(map(add, x, y))
        rows[k] = tuple(map(sub, x, y))
    return tuple(Octonion(c / 4 for c in row) for row in rows)


def sieve(fam: Sequence[Octonion]) -> DistanceFamily:
    """Distances of a function family: g[k] = (1/4) sum_j b[j][k] f[j]."""
    return _transform(fam)


def unsieve(dist: Sequence[Octonion]) -> FunctionFamily:
    """The identical transform; inverse of :func:`sieve`."""
    return _transform(dist)


def random_assignment(
    names: Sequence[str], rng: random.Random, coeff_bound: int = 9
) -> dict[str, Octonion]:
    """Integer-coefficient octonions for each name, drawn from the rng."""
    return {
        name: Octonion(rng.randint(-coeff_bound, coeff_bound) for _ in range(8))
        for name in names
    }


# A value of the all-rules pass: one 8-tuple when it is the same under
# every rule, else a list of 16 8-tuples, entry n under rule n.
AllRules = Union[tuple, list]

_NO_IMAG = (0,) * 7


def _per_rule(value: AllRules) -> Sequence[tuple]:
    return (value,) * 16 if type(value) is tuple else value


def _exact(value: AllRules) -> bool:
    """Whether the coefficients are exact ints.  Every rule computes a
    coefficient from operands of the same types, so the 16 entries of a
    list have their ints and floats at the same places."""
    return {*map(type, value if type(value) is tuple else value[0])} == {int}


def _collapse(values: list) -> AllRules:
    """One tuple when the 16 values are identical, else the list."""
    first = values[0]
    if values.count(first) < 16:
        return values
    if _exact(first):
        return first
    # equal floats can still differ in the sign of a zero
    signs = {tuple(math.copysign(1.0, c) for c in v if isinstance(c, float)) for v in values}
    return first if len(signs) == 1 else values


def _neg(c: tuple) -> tuple:
    return tuple(map(neg, c))


def _conj(c: tuple) -> tuple:
    return (c[0],) + tuple(map(neg, c[1:]))


def _scale(r: int, value: AllRules) -> AllRules:
    if type(value) is tuple:
        return tuple([r * c for c in value])
    return _collapse([tuple([r * c for c in v]) for v in value])


def _all_rules(expr: Expr, env: Mapping[str, tuple]) -> AllRules:
    """``expr`` under all 16 rules at once, on coefficient tuples.

    The values are :func:`function_family`'s, bit for bit: the same type,
    value and sign of zero in every coefficient.  A product of exact ints
    is a scaling when one factor is real, else it goes through
    :func:`_mul_all` when both factors are the same under every rule;
    the rest goes through :func:`_mul` once per rule, in the order
    :func:`evaluate` computes it, because per-rule rounding is part of a
    float result.
    """
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Const):
        return (expr.value, 0, 0, 0, 0, 0, 0, 0)
    if isinstance(expr, (Neg, Conj)):
        value = _all_rules(expr.operand, env)
        op = _conj if isinstance(expr, Conj) else _neg
        return op(value) if type(value) is tuple else [op(v) for v in value]
    if not isinstance(expr, (Add, Sub, Mul)):
        raise TypeError(f"not an expression node: {expr!r}")
    left = _all_rules(expr.left, env)
    right = _all_rules(expr.right, env)
    if isinstance(expr, Mul):
        if _exact(left) and _exact(right):
            if type(left) is tuple and left[1:] == _NO_IMAG:
                return _scale(left[0], right)
            if type(right) is tuple and right[1:] == _NO_IMAG:
                return _scale(right[0], left)
            if type(left) is tuple and type(right) is tuple:
                return _mul_all(left, right)
        return _collapse(list(map(_mul, _per_rule(left), _per_rule(right), _SIGNS)))
    op = add if isinstance(expr, Add) else sub
    if type(left) is tuple and type(right) is tuple:
        return tuple(map(op, left, right))
    return _collapse([tuple(map(op, x, y)) for x, y in zip(_per_rule(left), _per_rule(right))])


def _witness_index(distances: DistanceFamily) -> int | None:
    """The first k > 0 whose distance is nonzero, or None when every
    distance past g[0] is zero (the family is invariant)."""
    return next((k for k in range(1, 16) if not distances[k].is_zero()), None)


@dataclass(frozen=True)
class InvarianceWitness:
    """A refuting assignment: distance ``index`` came out nonzero."""

    assignment: dict[str, Octonion]
    index: int
    distance: Octonion


@dataclass(frozen=True)
class SieveVerdict:
    """``trials`` is the number requested; ``trials_run`` the number that
    ran, which is fewer when an early trial refutes."""

    invariant: bool
    trials: int
    witness: InvarianceWitness | None = None
    trials_run: int = field(kw_only=True)


def is_invariant(expr: Expr | str, trials: int = 64, seed: int = 0) -> SieveVerdict:
    """Randomized refuter for algebraic invariance.

    Runs ``trials`` integer-coefficient random assignments; each one is
    sieved and the distances g[k], k > 0, are tested for exact zero.  The
    first nonzero distance refutes invariance and is returned as the
    witness.  A verdict of invariant means no counterexample was found in
    the given trials, not a proof over all assignments.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tree = parse(expr) if isinstance(expr, str) else expr
    names = free_vars(tree)
    rng = random.Random(seed)
    for trial in range(1, trials + 1):
        env = random_assignment(names, rng)
        value = _all_rules(tree, {name: x.coeffs for name, x in env.items()})
        if type(value) is tuple:
            Octonion(value)  # raises ValueError if a float overflowed on the way
            continue  # the same under every rule: all distances past g[0] are 0
        distances = sieve(tuple(map(Octonion, value)))
        k = _witness_index(distances)
        if k is not None:
            witness = InvarianceWitness(env, k, distances[k])
            return SieveVerdict(False, trials, witness, trials_run=trial)
    return SieveVerdict(True, trials, trials_run=trials)
