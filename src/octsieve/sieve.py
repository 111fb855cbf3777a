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
and x - y.  It runs per coefficient: each of the 8 coefficients goes
through the four stages, in that order, on its column of 16 scalars.  Its
sums are exact on ints and rationals.  A constant family
therefore has distances g[k], k > 0, that are exactly zero, for float
coefficients too: x - x is exactly 0 and every later stage adds zeros.
The public :func:`sieve` and :func:`unsieve` then divide every sum by 4
in floating point, so an int distance past 2^53 rounds there and one past
the float range raises ``OverflowError``.  The verdict and the CLI never
divide: they read the distances off the all-rules pass, below.

An expression is algebraically invariant when g[k] = 0 for every k > 0,
i.e. its value does not depend on which of the 16 rules multiplies.  The
verdict is exact, so invariance is a zero test with no tolerance; its
witness distance is an int on int inputs, else a ``Fraction``.

Two decisions are made here for every caller.  ``_evaluator`` evaluates
an expression under all 16 rules: it compiles it once (``dsl._program``,
which reads each literal as the rational it is) and runs an assignment as
one loop over its steps that carries all 16 rules at once, on exact
numbers: every finite float is a dyadic rational, and each coefficient is
read as such once per call (``algebra._exact``).
A value is one coefficient 8-tuple while it is the same under every rule
(variables, constants, their linear combinations, real norms such as
L*conj(L)), else its Walsh spectrum {k: F_k} (see ``AllRules``), whose
distances are g[k] = 4 F_k.  A product with a real factor is a scaling,
one of two tuples is ``algebra._mul_all``'s spectrum, and any other
multiplies component by component: ``algebra._add_product`` adds the
product of F_a and G_b in place into one set of mutable rows, its
rule-independent part at key a ^ b and each triplet part at a ^ b ^ m_t,
and the rows left nonzero are the spectrum.  ``_per_rule``
transforms a spectrum into :func:`function_family`'s values on the same
exact inputs.  ``_trials`` reaches a verdict, trial 1 on a given
assignment and later ones drawn from one rng, by a key test with no
transform: a tuple holds, and a spectrum refutes with its least key k > 0
as the witness.  :func:`is_invariant` and the CLI's ``sieve`` both call it.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping, Sequence
from operator import add, index, neg, sub

from .algebra import Octonion, _add_product, _character, _check_int, _exact, _mul_all, _Record
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


def _butterfly(rows: Sequence[tuple]) -> list[tuple]:
    """The Walsh transform of 16 coefficient tuples, exact: entry k becomes
    sum_j b[j][k] rows[j], four times distance g[k].  Each coefficient's
    column of 16 scalars runs through the stages of ``_BUTTERFLY`` in order,
    which fixes the order of every output's float additions."""
    cols = []
    for col in zip(*rows):
        col = list(col)
        for j, k in _BUTTERFLY:
            x, y = col[j], col[k]
            col[j], col[k] = x + y, x - y
        cols.append(col)
    return list(zip(*cols))


def _transform(values: Sequence[Octonion]) -> tuple[Octonion, ...]:
    fam = tuple(values)
    if len(fam) != 16 or not all(isinstance(v, Octonion) for v in fam):
        raise ValueError("a family is a 16-tuple of octonions")
    return tuple(Octonion([c / 4 for c in row]) for row in _butterfly([f.coeffs for f in fam]))


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
# every rule, else its Walsh spectrum {k: F_k}, the value under rule n being
# sum_k chi(k, n) F_k.  A spectrum holds only nonzero components, and at
# least one at a key k > 0.
AllRules = tuple | dict

_ZERO = (0,) * 8
_NO_IMAG = _ZERO[1:]


def _spectrum(value: AllRules) -> dict:
    return {0: value} if type(value) is tuple else value


def _per_rule(value: AllRules) -> Sequence[tuple]:
    """The 16 values under rules 0..15: for a spectrum, its Walsh transform."""
    if type(value) is tuple:
        return (value,) * 16
    return _butterfly([value.get(k, _ZERO) for k in range(16)])


def _pruned(spectrum: dict) -> AllRules:
    """``spectrum`` without its zero components, each as a tuple, or F_0 if
    no key k > 0 is left."""
    spectrum = {k: tuple(v) for k, v in spectrum.items() if any(v)}
    return spectrum if len(spectrum) > (0 in spectrum) else spectrum.get(0, _ZERO)


def _conj(c: tuple) -> tuple:
    return (c[0],) + tuple(map(neg, c[1:]))


def _scale(r: int, value: AllRules) -> AllRules:
    if type(value) is tuple:
        return tuple([r * c for c in value])
    return _pruned({k: tuple([r * c for c in v]) for k, v in value.items()})


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
            else:  # component F_a times G_b adds its parts at a ^ b and a ^ b ^ m_t
                rows = {}
                for a, f in _spectrum(left).items():
                    for b, g in _spectrum(right).items():
                        _add_product(rows, a ^ b, f, g)
                value = _pruned(rows)
        elif op is Add or op is Sub:
            f = add if op is Add else sub
            left, right = values[x], values[y]
            if type(left) is tuple and type(right) is tuple:
                value = tuple(map(f, left, right))
            else:
                value = dict(_spectrum(left))
                for k, v in _spectrum(right).items():
                    value[k] = tuple(map(f, value.get(k, _ZERO), v))
                value = _pruned(value)
        elif op is Var:
            value = env[x]
        elif op is Const:
            value = (x, 0, 0, 0, 0, 0, 0, 0)
        elif op is Neg:
            value = _scale(-1, values[x])
        else:
            value = values[x]
            value = _conj(value) if type(value) is tuple else {k: _conj(v) for k, v in value.items()}
        values.append(value)
    return values[-1]


def _evaluator(tree: Expr) -> tuple[list[str], Callable[[Mapping], AllRules]]:
    """Compile ``tree`` once: its variable names, and a function from an
    assignment (each name bound to one octonion, or to a spectrum
    {k: octonion}, the value under rule n being sum_k chi(k, n) x_k) to its
    exact values under all 16 rules, coefficients read as the rationals
    they are (the program's literals already are)."""
    steps, names = _program(tree)

    def values(env: Mapping[str, Octonion | Mapping[int, Octonion]]) -> AllRules:
        return _all_rules(steps, {name: _exact(x.coeffs) if isinstance(x, Octonion)
                                  else _pruned({k: _exact(y.coeffs) for k, y in x.items()})
                                  for name, x in env.items()})

    return names, values


class InvarianceWitness(_Record):
    """A refuting assignment: distance ``index`` came out nonzero, and
    ``distance`` is its exact value."""

    __slots__ = __match_args__ = ("assignment", "index", "distance")

    def __init__(self, assignment: dict[str, Octonion], index: int, distance: Octonion):
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "distance", distance)


class SieveVerdict(_Record):
    """``trials`` is the number requested; ``trials_run`` the number that
    ran, which is fewer when an early trial refutes."""

    __slots__ = ("invariant", "trials", "witness", "trials_run")
    __match_args__ = ("invariant", "trials", "witness")

    def __init__(self, invariant: bool, trials: int, witness: InvarianceWitness | None = None, *,
                 trials_run: int):
        object.__setattr__(self, "invariant", invariant)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "trials_run", trials_run)


def _trials(values: Callable[[Mapping], AllRules], env: dict[str, Octonion], rng: random.Random | None,
            trials: int) -> tuple[AllRules, SieveVerdict]:
    """Trial 1 is ``env``; while every trial holds, trials 2..``trials`` are
    assignments of the same names drawn from ``rng``.  A trial whose value
    is one tuple holds; a spectrum refutes, its least key k > 0 the witness
    with distance g[k] = 4 F_k.  Returns trial 1's value and the verdict."""
    names = list(env)
    for trial in range(1, trials + 1):
        if trial > 1:
            env = random_assignment(names, rng)
        value = values(env)
        if trial == 1:
            first = value
        if type(value) is dict:
            k = min(k for k in value if k)
            witness = InvarianceWitness(env, k, Octonion([4 * c for c in value[k]]))
            return first, SieveVerdict(False, trials, witness, trials_run=trial)
    return first, SieveVerdict(True, trials, trials_run=trials)


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
    return _trials(values, random_assignment(names, rng), rng, trials)[1]
