"""Hadamard sign matrix and the variance sieve over the 16 rules.

Evaluating one polynomial expression under every multiplication rule
gives a 16-entry function family f[0..15].  The sieve combines the family
through a 16x16 Hadamard sign matrix

    b[j][k] = (-1) ** popcount(j & k)

into a distance family g[k] = (1/4) * sum_j b[j][k] f[j].  Applying the
same transform to the distances restores the functions exactly (the
scaled matrix is its own inverse).

The transform is the Walsh transform over Z2^4, computed as a radix-2
butterfly (``_butterfly``): four stages, one per bit of the index, each
replacing the entries x, y whose indices differ only in that bit by x + y
and x - y.  Its sums are exact on ints and rationals.  A constant family
therefore has distances g[k], k > 0, that are exactly zero, for float
coefficients too: x - x is exactly 0 and every later stage adds zeros.
The public :func:`sieve` and :func:`unsieve` then divide every sum by 4
in floating point, so an int distance past 2^53 rounds there and one past
the float range raises ``OverflowError``; the verdict and the CLI divide
exactly (``_quarter``).

An expression is algebraically invariant when g[k] = 0 for every k > 0,
i.e. its value does not depend on which of the 16 rules multiplies.  The
verdict is exact, so invariance is a zero test with no tolerance; its
witness distance is an int on int inputs, else a ``Fraction``.

Two decisions are made here for every caller.  ``_evaluator`` evaluates
an expression under all 16 rules: it compiles it once (``dsl._program``)
and runs an assignment as one loop over its steps that carries all 16
rules at once, on exact numbers: every finite float is a dyadic rational,
read as such once per literal and per call for a coefficient (``_rational``).
A value is one coefficient 8-tuple while it is the same under every rule
(variables, constants, their linear combinations, real norms such as
L*conj(L)), else a list of 16 per-rule 8-tuples that collapses back to one
tuple when its entries are equal.  A product with a real factor is a
scaling, a product of two other tuples goes through ``algebra._mul_all``
(one product when their imaginary parts are parallel, else 64 pair
products shared by the 16 rules), and any other runs the kernel once per
rule.  The values are :func:`function_family`'s on the same exact inputs.
``_trials`` reaches a verdict: trial 1 on a given assignment, later ones
drawn from one rng, the first nonzero distance the witness; a trial the
same under every rule holds without a transform, and any other is
refuted.  :func:`is_invariant` and the CLI's ``sieve`` both call it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import add, index, neg, sub
from typing import Callable, Mapping, Sequence, Union

from .algebra import _SIGNS, Octonion, _character, _check_int, _mul, _mul_all
from .dsl import Add, Const, Expr, Mul, Neg, Sub, Var, _program, evaluate, parse

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
    """Sign matrix entry, j and k ints in 0..15: -1 to the popcount of j & k."""
    return _character(_check_int(j, "sign matrix index", 0, 15), _check_int(k, "sign matrix index", 0, 15))


def sign_matrix() -> tuple[tuple[int, ...], ...]:
    """The full 16x16 sign matrix, rows indexed by j, columns by k."""
    return tuple(tuple(_character(j, k) for k in range(16)) for j in range(16))


def function_family(expr: Expr, env: Mapping[str, Octonion]) -> FunctionFamily:
    """Evaluate ``expr`` under every rule; entry j uses rule j."""
    return tuple(evaluate(expr, env, n) for n in range(16))


# The butterfly's index pairs, stage by stage: j and j | h for each bit h.
_BUTTERFLY = tuple((j, j | h) for h in (1, 2, 4, 8) for j in range(16) if not j & h)


def _butterfly(rows: list[tuple]) -> list[tuple]:
    """The Walsh transform of 16 coefficient tuples, in place and exact: entry
    k becomes sum_j b[j][k] rows[j], four times distance g[k]."""
    for j, k in _BUTTERFLY:
        x, y = rows[j], rows[k]
        rows[j] = tuple(map(add, x, y))
        rows[k] = tuple(map(sub, x, y))
    return rows


def _quarter(c):
    """``c / 4`` exactly: an int when ``c`` is an int that 4 divides, else a ``Fraction``."""
    if type(c) is int and not c % 4:
        return c // 4
    from fractions import Fraction  # not at package import: it pulls in decimal

    return Fraction(c, 4)


def _transform(values: Sequence[Octonion]) -> tuple[Octonion, ...]:
    fam = tuple(values)
    if len(fam) != 16 or not all(isinstance(v, Octonion) for v in fam):
        raise ValueError("a family is a 16-tuple of octonions")
    return tuple(Octonion(c / 4 for c in row) for row in _butterfly([f.coeffs for f in fam]))


def sieve(fam: Sequence[Octonion]) -> DistanceFamily:
    """Distances of a function family: g[k] = (1/4) sum_j b[j][k] f[j]."""
    return _transform(fam)


def unsieve(dist: Sequence[Octonion]) -> FunctionFamily:
    """The identical transform; inverse of :func:`sieve`."""
    return _transform(dist)


def _random_ints(rng: random.Random, bound: int, count: int = 8) -> tuple[int, ...]:
    """``count`` ints drawn uniformly from -bound..bound, by ``getrandbits``
    rejection: each is r - bound for the first r = rng.getrandbits(k) below
    span = 2*bound + 1, k = span.bit_length().  That is how ``randint``
    draws on ``random.Random``, so the values, and the rng's state after
    them, are those of ``count`` calls ``rng.randint(-bound, bound)``.  (A
    subclass that overrides only ``random()`` makes ``randint`` draw
    differently.)  Every sampler in the package draws its ints here."""
    span = 2 * index(bound) + 1
    if span <= 0:
        raise ValueError(f"coefficient bound must be >= 0, got {bound}")
    k = span.bit_length()
    draw = rng.getrandbits
    out = []
    while len(out) < count:
        r = draw(k)
        if r < span:
            out.append(r - bound)
    return tuple(out)


def random_assignment(
    names: Sequence[str], rng: random.Random, coeff_bound: int = 9
) -> dict[str, Octonion]:
    """Integer-coefficient octonions for each name, drawn from the rng: for
    each name in turn, 8 coefficients in -coeff_bound..coeff_bound, the
    values ``rng.randint(-coeff_bound, coeff_bound)`` would draw (see
    ``_random_ints``).  A negative bound raises ``ValueError`` once there
    is a name to draw for."""
    return {name: Octonion(_random_ints(rng, coeff_bound)) for name in names}


# A value of the all-rules pass: one 8-tuple when it is the same under
# every rule, else a list of 16 8-tuples, entry n under rule n.
AllRules = Union[tuple, list]

_NO_IMAG = (0,) * 7


def _per_rule(value: AllRules) -> Sequence[tuple]:
    return (value,) * 16 if type(value) is tuple else value


def _collapse(values: list) -> AllRules:
    """One tuple when the 16 values are identical, else the list."""
    return values[0] if values.count(values[0]) == 16 else values


def _conj(c: tuple) -> tuple:
    return (c[0],) + tuple(map(neg, c[1:]))


def _scale(r: int, value: AllRules) -> AllRules:
    if type(value) is tuple:
        return tuple([r * c for c in value])
    return _collapse([tuple([r * c for c in v]) for v in value])


def _all_rules(steps: Sequence[tuple], env: Mapping[str, AllRules]) -> AllRules:
    """A compiled expression (``dsl._program``) under all 16 rules at once,
    on coefficient tuples of ints and rationals; :func:`function_family`'s values."""
    values: list[AllRules] = []
    for op, x, y in steps:
        if op is Mul:
            left, right = values[x], values[y]
            if type(left) is tuple and left[1:] == _NO_IMAG:
                value = _scale(left[0], right)
            elif type(right) is tuple and right[1:] == _NO_IMAG:
                value = _scale(right[0], left)
            elif type(left) is tuple and type(right) is tuple:
                value = _mul_all(left, right)
            else:
                value = _collapse(list(map(_mul, _per_rule(left), _per_rule(right), _SIGNS)))
        elif op is Add or op is Sub:
            f = add if op is Add else sub
            left, right = values[x], values[y]
            if type(left) is tuple and type(right) is tuple:
                value = tuple(map(f, left, right))
            else:
                value = _collapse([tuple(map(f, a, b)) for a, b in zip(_per_rule(left), _per_rule(right))])
        elif op is Var:
            value = env[x]
        elif op is Const:
            value = (x, 0, 0, 0, 0, 0, 0, 0)
        elif op is Neg:
            value = _scale(-1, values[x])
        else:
            value = values[x]
            value = _conj(value) if type(value) is tuple else list(map(_conj, value))
        values.append(value)
    return values[-1]


def _rational(x):
    """``x`` as the rational it is (exact for every finite float): an int when
    it is integral, as int arithmetic is many times faster, else a ``Fraction``.
    An infinite or NaN float raises ``ValueError``, as an ``Octonion``
    coefficient does."""
    from fractions import Fraction  # not at package import: it pulls in decimal

    try:
        q = Fraction(x)
    except (OverflowError, ValueError):  # Fraction's errors for inf and nan
        raise ValueError(f"coefficients must be finite, got {x!r}") from None
    return q.numerator if q.denominator == 1 else q


def _exact(coeffs: tuple) -> tuple:
    """``coeffs`` itself when every coefficient is an int, else each read
    by :func:`_rational`."""
    return coeffs if all(type(c) is int for c in coeffs) else tuple(map(_rational, coeffs))


def _evaluator(tree: Expr) -> tuple[list[str], Callable[[Mapping], AllRules]]:
    """Compile ``tree`` once: its variable names, and a function from an
    assignment (each name bound to one octonion, or to 16, entry n for rule
    n) to its exact values under all 16 rules, float literals and
    coefficients read as the rationals they are."""
    steps, names = _program(tree)
    steps = [(op, _rational(x), kind) if op is Const and kind is float else (op, x, kind) for op, x, kind in steps]

    def values(env: Mapping[str, Octonion | Sequence[Octonion]]) -> AllRules:
        return _all_rules(steps, {name: _exact(x.coeffs) if isinstance(x, Octonion)
                                  else [_exact(y.coeffs) for y in x] for name, x in env.items()})

    return names, values


@dataclass(frozen=True)
class InvarianceWitness:
    """A refuting assignment: distance ``index`` came out nonzero, and
    ``distance`` is its exact value."""

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


def _trials(values: Callable[[Mapping], AllRules], env: dict[str, Octonion], rng: random.Random | None,
            trials: int) -> tuple[AllRules, list[tuple] | None, SieveVerdict]:
    """Trial 1 is ``env``; while every trial holds, trials 2..``trials`` are
    assignments of the same names drawn from ``rng``.  A trial whose value
    is one tuple, the same under every rule, holds untransformed.  Any other
    is 16 values not all equal, so it refutes: its first nonzero distance
    g[k], k > 0, divided exactly, is the witness.  Returns trial 1's value,
    its Walsh sums (4 g[k]; None when it was not transformed), and the
    verdict."""
    names = list(env)
    for trial in range(1, trials + 1):
        if trial > 1:
            env = random_assignment(names, rng)
        value = values(env)
        sums = None if type(value) is tuple else _butterfly(list(value))
        if trial == 1:
            first = value, sums
        if sums is not None:
            k = next(k for k in range(1, 16) if any(sums[k]))
            witness = InvarianceWitness(env, k, Octonion(map(_quarter, sums[k])))
            return *first, SieveVerdict(False, trials, witness, trials_run=trial)
    return *first, SieveVerdict(True, trials, trials_run=trials)


def is_invariant(expr: Expr | str, trials: int = 64, seed: int = 0) -> SieveVerdict:
    """Randomized refuter for algebraic invariance.

    Runs ``trials`` (an int >= 1) integer-coefficient random assignments;
    for each one the distances g[k], k > 0, are tested for exact zero.  The
    first nonzero distance refutes invariance and is returned, exact, as
    the witness.  A verdict of invariant means no counterexample was found
    in the given trials, not a proof over all assignments.
    """
    _check_int(trials, "trials", 1)
    tree = parse(expr) if isinstance(expr, str) else expr
    names, values = _evaluator(tree)
    rng = random.Random(seed)
    return _trials(values, random_assignment(names, rng), rng, trials)[2]
