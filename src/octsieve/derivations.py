"""Inner derivations of the 16 rules and their cross-rule behavior.

For u, v in an alternative algebra,

    D(u, v; a) = [[u, v], a] - 3*((u v) a - u (v a))

is a derivation: it obeys the Leibniz rule D(ab) = D(a)b + a D(b).  Under
every one of the 16 rules the span of the basis-pair derivations has
dimension 14 (the exceptional Lie algebra of the octonions); restricted
to one associative triplet it has dimension 3 (the rotation algebra of
the quaternions).

Changing rules leaves D(u, v; a) pointwise unchanged exactly on
quaternionic inputs: for basis triples, the outputs agree across all 16
rules iff {u, v, a} sits inside one triplet's quaternion subalgebra.  For
antiassociative basis triples the whole formula collapses to -2 (u v) a,
whose sign tracks the two triplet orientations involved and therefore
varies across rules.

D has two forms, each regrouped by bilinearity as

    D(u, v; x) = p x - x c + 3 u (v x),   c = uv - vu,  p = -2 uv - vu,

each reading every coefficient as the rational it is, and each kept
because it measured faster where it is used.  The per-rule tuple kernel
``_regrouped`` (two kernel calls for p and c, then four per argument)
serves ``derive``, ``derivation_matrix``, ``antiassoc_closed_form`` and
``leibniz_check``, which computes only its own rule's residual with it.
The all-rules expression ``_DERIVE`` runs on the sieve's exact pass, which
computes uv and vu once for all 16 rules, for ``cross_algebra_equal``,
``expr_cross_algebra_equal`` and CLI ``derive``.

Integer inputs stay integer throughout, so span dimensions are computed
by fraction-free elimination with no rank threshold.  An expression's
values under the 16 rules come from the sieve's one exact all-rules route.
Three distinct imaginary units u, v, a lie on one triplet exactly when
u XOR v == a, the basis index of their product under every rule.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from operator import sub

from .algebra import Octonion, _check_algebra_id, _check_int, _exact, _mul, _mul_all, _Record, _signs, multiply, norm
from .dsl import Expr, _program, parse
from .sieve import _COEFF_BOUND, _SEED, AllRules, _all_rules, _evaluator, _per_rule, _pruned, _random_ints

__all__ = [
    "commutator",
    "associator",
    "derive",
    "leibniz_check",
    "AntiassocReport",
    "antiassoc_closed_form",
    "cross_algebra_equal",
    "derivation_matrix",
    "integer_rank",
    "derivation_span_rank",
    "RegimeReport",
    "CrossAlgebraVerdict",
    "expr_cross_algebra_equal",
]


def commutator(a: Octonion, b: Octonion, n: int) -> Octonion:
    return multiply(a, b, n) - multiply(b, a, n)


def associator(a: Octonion, b: Octonion, c: Octonion, n: int) -> Octonion:
    return multiply(multiply(a, b, n), c, n) - multiply(a, multiply(b, c, n), n)


def _regrouped(u: tuple, v: tuple, s: tuple) -> Callable[[tuple], tuple]:
    """D(u, v; .) = p x - x c + 3 u (v x) under the rule with characters
    ``s``, on coefficient tuples: two kernel calls for p = -2 uv - vu and
    c = uv - vu, then four per argument."""
    uv = _mul(u, v, s)
    vu = _mul(v, u, s)
    p = tuple([-2 * x - y for x, y in zip(uv, vu)])
    c = tuple(map(sub, uv, vu))

    def d(x: tuple) -> tuple:
        return tuple([w - y + 3 * z for w, y, z in zip(_mul(p, x, s), _mul(x, c, s), _mul(u, _mul(v, x, s), s))])

    return d


def derive(u: Octonion, v: Octonion, a: Octonion, n: int) -> Octonion:
    """D(u, v; a) under rule n, every coefficient read as the rational it
    is; linear in each argument."""
    return Octonion(_regrouped(_exact(u.coeffs), _exact(v.coeffs), _signs(n))(_exact(a.coeffs)))


def leibniz_check(u: Octonion, v: Octonion, a: Octonion, b: Octonion, n: int) -> float:
    """Norm of D(ab) - D(a)b - a D(b) under rule n, every coefficient read
    as the rational it is: zero iff the Leibniz rule holds here, unless the
    exact norm is below 2^-1074, the least subnormal float."""
    s = _signs(n)
    d = _regrouped(_exact(u.coeffs), _exact(v.coeffs), s)
    a, b = _exact(a.coeffs), _exact(b.coeffs)
    d_ab, d_a_b, a_d_b = d(_mul(a, b, s)), _mul(d(a), b, s), _mul(a, d(b), s)
    return norm(Octonion([x - y - z for x, y, z in zip(d_ab, d_a_b, a_d_b)]))


# The same D as an expression in u, v and x, for the all-rules pass.
_D = "(-2*(u*v) - v*u)*x - x*(u*v - v*u) + (3*u)*(v*x)"
_DERIVE = _program(parse(_D))[0]


def _derive_all(u: Octonion, v: Octonion, x: AllRules) -> Sequence[tuple]:
    """D(u, v; x) under all 16 rules, entry n under rule n, given x's
    all-rules value; u and v are read as the rationals they are."""
    return _per_rule(_all_rules(_DERIVE, {"u": _exact(u.coeffs), "v": _exact(v.coeffs), "x": x}))


class AntiassocReport(_Record):
    """Both sides of the collapse: ``lhs`` is D(i_u, i_v; i_a), ``rhs`` is
    -2 (i_u i_v) i_a."""

    __slots__ = __match_args__ = ("lhs", "rhs", "equal")

    def __init__(self, lhs: Octonion, rhs: Octonion, equal: bool):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "equal", equal)


def antiassoc_closed_form(u_idx: int, v_idx: int, a_idx: int, n: int) -> AntiassocReport:
    """Both sides of the antiassociative collapse D = -2 (uv) a.

    The indices must be pairwise distinct imaginary units, ints in 1..7,
    that do not form an associative triplet (the collapse needs pairwise
    anticommutation with the product of the other two).
    """
    for idx in (u_idx, v_idx, a_idx):
        _check_int(idx, "basis index", 1, 7)
    if len({u_idx, v_idx, a_idx}) != 3:
        raise ValueError(f"indices must be pairwise distinct, got {(u_idx, v_idx, a_idx)}")
    if u_idx ^ v_idx == a_idx:
        raise ValueError(
            f"{(u_idx, v_idx, a_idx)} is an associative triplet; the closed form needs an antiassociative triple"
        )
    s = _signs(n)
    u, v, a = (Octonion.unit(k).coeffs for k in (u_idx, v_idx, a_idx))
    lhs = _regrouped(u, v, s)(a)
    rhs = tuple([-2 * c for c in _mul(_mul(u, v, s), a, s)])
    return AntiassocReport(Octonion(lhs), Octonion(rhs), lhs == rhs)


def cross_algebra_equal(u: Octonion, v: Octonion, a: Octonion) -> frozenset[int]:
    """Rule ids whose derivation output matches rule 0's.  Every coefficient
    is read as the rational it is, so the comparison is exact for floats
    too."""
    outputs = _derive_all(u, v, _exact(a.coeffs))
    return frozenset(n for n, o in enumerate(outputs) if o == outputs[0])


def derivation_matrix(u_idx: int, v_idx: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Action of D(i_u, i_v; .) on the imaginary subspace, as a 7x7 matrix.

    Column a-1 holds the imaginary coefficients of D applied to i_a.
    Derivations kill the real unit and output no real component, so the
    restriction is lossless; the matrices come out antisymmetric.
    """
    _check_int(u_idx, "generator pair index", 1, 7)
    _check_int(v_idx, "generator pair index", 1, 7)
    d = _regrouped(Octonion.unit(u_idx).coeffs, Octonion.unit(v_idx).coeffs, _signs(n))
    cols = [d(Octonion.unit(a_idx).coeffs)[1:] for a_idx in range(1, 8)]
    return tuple(tuple(cols[a][i] for a in range(7)) for i in range(7))


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix, its rows of equal length, by fraction-free Gaussian elimination.

    An entry that is not an int (a bool, float or ``Fraction`` too) is a
    ``ValueError``: the elimination would run in that entry's arithmetic."""
    m = [list(row) for row in rows]
    widths = {len(row) for row in m}
    if len(widths) > 1:
        raise ValueError(f"matrix rows must have equal lengths, got {sorted(widths)}")
    for row in m:
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"matrix entries must be integers, got {x!r}")
    rank = 0  # also the next pivot row
    for col in range(max(widths, default=0)):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for i in range(rank + 1, len(m)):
            if m[i][col] != 0:
                f = m[i][col]
                m[i] = [pv * x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def derivation_span_rank(
    pairs: Sequence[tuple[int, int]],
    n: int,
    restrict_to: Sequence[int] | None = None,
) -> int:
    """Dimension of the real span of the derivations D(i_u, i_v; .).

    Each pair of imaginary indices (ints in 1..7) contributes its 7x7
    matrix flattened to a vector; with ``restrict_to`` only the rows and
    columns on those indices are kept (for probing a quaternion subalgebra).
    """
    _check_algebra_id(n)
    keep = tuple(range(1, 8)) if restrict_to is None else tuple(restrict_to)
    for idx in keep:
        _check_int(idx, "restriction index", 1, 7)
    rows = []
    for u_idx, v_idx in pairs:
        matrix = derivation_matrix(u_idx, v_idx, n)
        rows.append([matrix[i - 1][j - 1] for i in keep for j in keep])
    return integer_rank(rows)


def _basis_index(x: Octonion, label: str) -> int:
    support = [(k, c) for k, c in enumerate(x.coeffs) if c != 0]
    if len(support) == 1 and support[0][1] == 1 and support[0][0] >= 1:
        return support[0][0]
    raise ValueError(f"{label} must be an imaginary basis element i1..i7, got {x!r}")


class RegimeReport(_Record):
    """Outcome of one sampling regime: did all 16 rules agree every trial?"""

    __slots__ = __match_args__ = ("equal", "witness")

    def __init__(self, equal: bool, witness: dict | None = None):
        object.__setattr__(self, "equal", equal)
        object.__setattr__(self, "witness", witness)


def _refuted(report: RegimeReport, outputs: Sequence[tuple], inputs: dict) -> RegimeReport:
    """``report``, or a refutation by the first rule whose output is not rule 0's."""
    bad = next((n for n in range(16) if outputs[n] != outputs[0]), None)
    if not report.equal or bad is None:
        return report
    return RegimeReport(False, {**inputs, "algebra": bad, "got": Octonion(outputs[bad]),
                                "expected": Octonion(outputs[0])})


class CrossAlgebraVerdict(_Record):
    """The two regimes of :func:`expr_cross_algebra_equal`, over ``trials`` trials."""

    __slots__ = __match_args__ = ("in_span", "out_of_span", "trials")

    def __init__(self, in_span: RegimeReport, out_of_span: RegimeReport, trials: int):
        object.__setattr__(self, "in_span", in_span)
        object.__setattr__(self, "out_of_span", out_of_span)
        object.__setattr__(self, "trials", trials)


def expr_cross_algebra_equal(
    u: Octonion,
    v: Octonion,
    expr: Expr | str,
    trials: int = 16,
    seed: int = _SEED,
) -> CrossAlgebraVerdict:
    """Probe whether D(u, v; expr value) agrees across all 16 rules.

    Two sampling regimes per trial:

    * in-span: every variable is an integer combination of {1, u, v, uv},
      with the uv element realized per rule as multiply(u, v, n) (the
      quaternion subalgebra generated by u and v has a rule-relative third
      unit).  Here the outputs agree exactly for any expression.
    * out-of-span: every variable gets an integer octonion forced to have
      a component outside that subalgebra; generic multiplicative
      expressions then disagree somewhere.

    Each regime reports whether all rules matched rule 0 in all trials,
    with the first refuting trial as witness.  ``trials`` is an int >= 1.
    """
    _check_int(trials, "trials", 1)
    u_idx = _basis_index(u, "u")
    v_idx = _basis_index(v, "v")
    if u_idx == v_idx:
        raise ValueError("u and v must be distinct basis elements")
    u, v = Octonion.unit(u_idx), Octonion.unit(v_idx)  # exact: a float 1.0 is the int 1
    names, values = _evaluator(expr)
    rng = random.Random(seed)

    # imaginary indices of the quaternion span: u, v, and uv = +-i_(u XOR v),
    # which is chi(m, n) uv0 under rule n: one spectrum component at key m
    ((m, uv0),) = _mul_all(u.coeffs, v.coeffs).items()
    span_idx = {0, u_idx, v_idx, u_idx ^ v_idx}
    outside = [k for k in range(8) if k not in span_idx]
    in_span = RegimeReport(True)
    out_of_span = RegimeReport(True)

    for _ in range(trials):
        coords = {name: _random_ints(rng, _COEFF_BOUND, 4) for name in names}
        env = {}  # c0 + c1 u + c2 v + c3 uv, exact, as its spectrum
        for name, (c0, c1, c2, c3) in coords.items():
            x = [c0, 0, 0, 0, 0, 0, 0, 0]
            x[u_idx], x[v_idx] = c1, c2
            env[name] = _pruned({0: x, m: [c3 * c for c in uv0]})
        in_span = _refuted(in_span, _derive_all(u, v, values(env)), {"coords": coords})

        env = {}
        for name in names:
            coeffs = list(_random_ints(rng, _COEFF_BOUND))
            k = rng.choice(outside)
            while coeffs[k] == 0:
                coeffs[k] = _random_ints(rng, _COEFF_BOUND, 1)[0]
            env[name] = Octonion(coeffs)
        out_of_span = _refuted(out_of_span, _derive_all(u, v, values(env)), {"assignment": env})

    return CrossAlgebraVerdict(in_span, out_of_span, trials)
