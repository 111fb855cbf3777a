"""Hadamard sign matrix and the variance sieve over the 16 rules.

Evaluating one polynomial expression under every multiplication rule
gives a 16-entry function family f[0..15].  The sieve combines the family
through a 16x16 Hadamard sign matrix

    b[j][k] = (-1) ** popcount(j & k)

into a distance family g[k] = (1/4) * sum_j b[j][k] f[j].  Applying the
same transform to the distances restores the functions exactly (the
scaled matrix is its own inverse), so :func:`unsieve` is :func:`sieve`.

The transform is the Walsh transform over Z2^4, computed as a radix-2
butterfly.  ``_walsh`` is its kernel on one column of 16 scalars: four
tuple assignments, one per stage h = 1, 2, 4, 8, each replacing the
entries x, y whose indices differ only in bit h by x + y and x - y.
``_butterfly`` runs it on each of the 8 coefficient columns.  The stage
order fixes every float sum.  The sums are exact on ints and rationals.
A constant family therefore has distances g[k], k > 0, that are exactly
zero, for float coefficients too: x - x is exactly 0 and every later
stage adds zeros.  The public :func:`sieve` then divides all 128 sums
by 4 in floating point, in one pass, so an int distance past 2^53 rounds
there, and one past the float range raises the division's own
``OverflowError`` before any coefficient is checked.
``Octonion._from_columns`` builds the 16 octonions, with the
constructor's check run once on a family of finite floats.  The verdict
and the CLI never divide: they read the distances off the all-rules pass.

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
and the rows left nonzero are the spectrum.
Each step on 8-tuples is written out over the eight coefficients, with
no slice, map or comprehension: the real-operand test
``not (x[1] or ... or x[7])``, the scaling ``(r*c0, ..., r*c7)``
(``_scale``, which also negates), the sum and difference (``_add``,
``_sub``) and the conjugate (``algebra._conj``, which
:func:`~octsieve.algebra.conjugate` shares), as the pass ran faster with
them than with the generic loops they replaced.  They do those loops'
arithmetic, term for term and in the same order, so they give the same
values of the same types on ints, big ints and ``Fraction``s: an exact
zero, ``Fraction(0)`` too, is falsy, and a scaling by an exact r != 0
zeroes no coefficient, so a scaled spectrum keeps all its keys, and one
scaled by r == 0 is zero.
``algebra._mul_all`` unpacks its operands the same way.  ``_per_rule``
transforms a spectrum into :func:`function_family`'s values on the same
exact inputs.  ``_trials`` reaches a verdict, trial 1 on a given
assignment and later ones drawn from one rng, by a key test with no
transform: a tuple holds, and a spectrum refutes with its least key k > 0
as the witness.  A later trial binds each name to the exact int 8-tuple
that ``_random_ints`` draws, the draw :func:`random_assignment` makes, and
an ``Octonion`` is built only for a refuting trial's witness.
:func:`is_invariant` and the CLI's ``sieve`` both call it.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping, Sequence
from operator import index

from .algebra import Octonion, _add_product, _character, _check_int, _conj, _exact, _mul_all, _Record
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


def _walsh(x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15):
    """The Walsh transform of one column of 16 scalars: stage h = 1, 2, 4, 8
    replaces x_j, x_(j|h), for each j without bit h, by x_j + x_(j|h) and
    x_j - x_(j|h).  The stage order fixes every output's float additions."""
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15 = (
        x0 + x1, x0 - x1, x2 + x3, x2 - x3, x4 + x5, x4 - x5, x6 + x7, x6 - x7,
        x8 + x9, x8 - x9, x10 + x11, x10 - x11, x12 + x13, x12 - x13, x14 + x15, x14 - x15)
    x0, x2, x1, x3, x4, x6, x5, x7, x8, x10, x9, x11, x12, x14, x13, x15 = (
        x0 + x2, x0 - x2, x1 + x3, x1 - x3, x4 + x6, x4 - x6, x5 + x7, x5 - x7,
        x8 + x10, x8 - x10, x9 + x11, x9 - x11, x12 + x14, x12 - x14, x13 + x15, x13 - x15)
    x0, x4, x1, x5, x2, x6, x3, x7, x8, x12, x9, x13, x10, x14, x11, x15 = (
        x0 + x4, x0 - x4, x1 + x5, x1 - x5, x2 + x6, x2 - x6, x3 + x7, x3 - x7,
        x8 + x12, x8 - x12, x9 + x13, x9 - x13, x10 + x14, x10 - x14, x11 + x15, x11 - x15)
    x0, x8, x1, x9, x2, x10, x3, x11, x4, x12, x5, x13, x6, x14, x7, x15 = (
        x0 + x8, x0 - x8, x1 + x9, x1 - x9, x2 + x10, x2 - x10, x3 + x11, x3 - x11,
        x4 + x12, x4 - x12, x5 + x13, x5 - x13, x6 + x14, x6 - x14, x7 + x15, x7 - x15)
    return x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15


def _butterfly(rows: Sequence[tuple]) -> list[tuple]:
    """The Walsh transform of 16 coefficient tuples, exact: entry k becomes
    sum_j b[j][k] rows[j], four times distance g[k].  Each coefficient's
    column of 16 scalars runs through ``_walsh``."""
    return list(zip(*map(_walsh, *rows)))


def sieve(fam: Sequence[Octonion]) -> DistanceFamily:
    """Distances of a function family: g[k] = (1/4) sum_j b[j][k] f[j].
    The scaled matrix is its own inverse, so the same transform of the
    distances gives the functions back: :func:`unsieve` is this function."""
    fam = tuple(fam)
    if len(fam) != 16 or not all(isinstance(v, Octonion) for v in fam):
        raise ValueError("a family is a 16-tuple of octonions")
    quarters = tuple([c / 4 for col in map(_walsh, *[f.coeffs for f in fam]) for c in col])
    return Octonion._from_columns(quarters)


unsieve = sieve


# The sampler's defaults: the coefficient bound, the trials and the seed
_COEFF_BOUND, _TRIALS, _SEED = 9, 64, 0


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
    names: Sequence[str], rng: random.Random, coeff_bound: int = _COEFF_BOUND
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


def _scale(r, value: AllRules) -> AllRules:
    """r times a value.  An exact r != 0 zeroes no coefficient, so a
    spectrum keeps every key; r == 0 gives zero."""
    if type(value) is tuple:
        c0, c1, c2, c3, c4, c5, c6, c7 = value
        return (r * c0, r * c1, r * c2, r * c3, r * c4, r * c5, r * c6, r * c7)
    return {k: _scale(r, v) for k, v in value.items()} if r else _ZERO


def _add(x: tuple, y: tuple) -> tuple:
    x0, x1, x2, x3, x4, x5, x6, x7 = x
    y0, y1, y2, y3, y4, y5, y6, y7 = y
    return (x0 + y0, x1 + y1, x2 + y2, x3 + y3, x4 + y4, x5 + y5, x6 + y6, x7 + y7)


def _sub(x: tuple, y: tuple) -> tuple:
    x0, x1, x2, x3, x4, x5, x6, x7 = x
    y0, y1, y2, y3, y4, y5, y6, y7 = y
    return (x0 - y0, x1 - y1, x2 - y2, x3 - y3, x4 - y4, x5 - y5, x6 - y6, x7 - y7)


def _all_rules(steps: Sequence[tuple], env: Mapping[str, AllRules]) -> AllRules:
    """A compiled expression (``dsl._program``) under all 16 rules at once,
    on coefficient tuples of ints and rationals; :func:`function_family`'s values."""
    values: list[AllRules] = []
    for op, x, y in steps:
        if op is Mul:
            left, right = values[x], values[y]
            one_left, one_right = type(left) is tuple, type(right) is tuple
            if one_left and not (left[1] or left[2] or left[3] or left[4] or left[5] or left[6] or left[7]):
                value = _scale(left[0], right)
            elif one_right and not (right[1] or right[2] or right[3] or right[4] or right[5] or right[6] or right[7]):
                value = _scale(right[0], left)
            elif one_left and one_right:
                value = _mul_all(left, right)
            else:  # component F_a times G_b adds its parts at a ^ b and a ^ b ^ m_t
                rows = {}
                for a, f in ((0, left),) if one_left else left.items():
                    for b, g in ((0, right),) if one_right else right.items():
                        _add_product(rows, a ^ b, f, g)
                value = _pruned(rows)
        elif op is Add or op is Sub:
            f = _add if op is Add else _sub
            left, right = values[x], values[y]
            if type(left) is tuple and type(right) is tuple:
                value = f(left, right)
            else:
                value = dict(_spectrum(left))
                for k, v in _spectrum(right).items():
                    value[k] = f(value.get(k, _ZERO), v)
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


def _evaluator(expr: Expr | str) -> tuple[list[str], Callable[[Mapping], AllRules]]:
    """Compile ``expr``, a tree or its text, once: its variable names, and
    a function from an assignment to its exact values under all 16 rules.
    Each name is bound to one octonion, its coefficients read as the
    rationals they are, or to an exact all-rules value (an 8-tuple, or a
    spectrum {k: 8-tuple} with no zero component), taken as it is; the
    program's literals are rationals already."""
    steps, names = _program(parse(expr) if isinstance(expr, str) else expr)

    def values(env: Mapping[str, Octonion | AllRules]) -> AllRules:
        return _all_rules(steps, {name: _exact(x.coeffs) if isinstance(x, Octonion) else x
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
    """Trial 1 is ``env``; while every trial holds, trials 2..``trials`` bind
    the same names, in order, to int 8-tuples drawn from ``rng`` by
    ``_random_ints``: the values, and the rng state, of
    :func:`random_assignment`, with no ``Octonion`` built.  A trial whose
    value is one tuple holds; a spectrum refutes, its least key k > 0 the
    witness with distance g[k] = 4 F_k, and its assignment as octonions.
    Returns trial 1's value and the verdict."""
    names = list(env)
    for trial in range(1, trials + 1):
        if trial > 1:
            env = {name: _random_ints(rng, _COEFF_BOUND) for name in names}
        value = values(env)
        if trial == 1:
            first = value
        if type(value) is dict:
            k = min(k for k in value if k)
            if trial > 1:
                env = {name: Octonion(x) for name, x in env.items()}
            witness = InvarianceWitness(env, k, Octonion([4 * c for c in value[k]]))
            return first, SieveVerdict(False, trials, witness, trials_run=trial)
    return first, SieveVerdict(True, trials, trials_run=trials)


def is_invariant(expr: Expr | str, trials: int = _TRIALS, seed: int = _SEED) -> SieveVerdict:
    """Randomized refuter for algebraic invariance.

    Runs ``trials`` (an int >= 1) integer-coefficient random assignments;
    for each one the distances g[k], k > 0, are tested for exact zero.  The
    first nonzero distance refutes invariance and is returned, exact, as
    the witness.  A verdict of invariant means no counterexample was found
    in the given trials, not a proof over all assignments.
    """
    _check_int(trials, "trials", 1)
    names, values = _evaluator(expr)
    rng = random.Random(seed)
    return _trials(values, random_assignment(names, rng), rng, trials)[1]
