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

The Leibniz residual uses the same D regrouped by bilinearity,

    D(u, v; x) = p x - x c + 3 u (v x),   c = uv - vu,  p = c - 3 uv,

three kernel calls per argument where the literal formula takes five.
On ints the two agree exactly, so the residual is exactly zero as before
and :func:`leibniz_check` returns 0.0; on floats they round differently,
so its residual there may differ from the literal formula's.
:func:`derive` keeps the literal formula: its float output matches
``[[u, v], a] - 3 (u, v, a)`` bit for bit.  The acceptance check computes
the products of its inputs (uv, vu, ab, va, vb) once for all 16 rules.

Integer inputs stay integer throughout, so span dimensions are computed
by fraction-free elimination with no rank threshold.  An expression's
values under the 16 rules come from the sieve's one exact all-rules route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import sub
from typing import Sequence

from .algebra import _SIGNS, REFERENCE_TRIPLETS, Octonion, _mul, _mul_all, _signs, multiply, norm
from .dsl import Expr, parse
from .sieve import _evaluator, _per_rule, _random_ints

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

_LINES = tuple(frozenset(t) for t in REFERENCE_TRIPLETS)


def commutator(a: Octonion, b: Octonion, n: int) -> Octonion:
    return multiply(a, b, n) - multiply(b, a, n)


def associator(a: Octonion, b: Octonion, c: Octonion, n: int) -> Octonion:
    return multiply(multiply(a, b, n), c, n) - multiply(a, multiply(b, c, n), n)


def _pair(u: tuple, v: tuple, s: tuple) -> tuple[tuple, tuple]:
    """uv and [u, v] = uv - vu: the parts of D(u, v; .) that do not depend
    on its argument, on coefficient tuples."""
    uv = _mul(u, v, s)
    return uv, tuple(map(sub, uv, _mul(v, u, s)))


def _derive(u: tuple, v: tuple, pair: tuple[tuple, tuple], a: tuple, s: tuple) -> tuple:
    """D(u, v; a) on coefficient tuples, given ``pair = _pair(u, v, s)``."""
    uv, c = pair
    ca, ac = _mul(c, a, s), _mul(a, c, s)
    uv_a, u_va = _mul(uv, a, s), _mul(u, _mul(v, a, s), s)
    return tuple([(w - x) - 3 * (y - z) for w, x, y, z in zip(ca, ac, uv_a, u_va)])


def derive(u: Octonion, v: Octonion, a: Octonion, n: int) -> Octonion:
    """D(u, v; a) under rule n; linear in each argument."""
    s = _signs(n)
    u, v = u.coeffs, v.coeffs
    return Octonion(_derive(u, v, _pair(u, v, s), a.coeffs, s))


def _regrouped(u: tuple, p: tuple, c: tuple, x: tuple, vx: tuple, s: tuple) -> tuple:
    """D(u, v; x) = p x - x c + 3 u (v x) on coefficient tuples, given
    ``p = -2 uv - vu``, ``c = uv - vu`` and ``vx = v x``: three kernel calls."""
    return tuple([w - y + 3 * z for w, y, z in zip(_mul(p, x, s), _mul(x, c, s), _mul(u, vx, s))])


def _residual(u: tuple, v: tuple, a: tuple, b: tuple, s: tuple,
              uv: tuple, vu: tuple, ab: tuple, va: tuple, vb: tuple) -> tuple:
    """D(ab) - D(a) b - a D(b) under the rule with characters ``s``, given
    that rule's products of the inputs uv, vu, ab, va and vb: twelve kernel
    calls."""
    c = tuple(map(sub, uv, vu))
    p = tuple([-2 * x - y for x, y in zip(uv, vu)])
    d_ab = _regrouped(u, p, c, ab, _mul(v, ab, s), s)
    d_a_b = _mul(_regrouped(u, p, c, a, va, s), b, s)
    a_d_b = _mul(a, _regrouped(u, p, c, b, vb, s), s)
    return tuple([x - y - z for x, y, z in zip(d_ab, d_a_b, a_d_b)])


def _leibniz_all(u: tuple, v: tuple, a: tuple, b: tuple) -> list[tuple]:
    """The Leibniz residuals of all 16 rules, entry n under rule n, on
    8-tuples of exact ints.  Each product of two inputs is one
    :func:`_mul_all` call shared by the 16 rules."""
    shared = [_per_rule(_mul_all(x, y)) for x, y in ((u, v), (v, u), (a, b), (v, a), (v, b))]
    return [_residual(u, v, a, b, s, *products) for s, *products in zip(_SIGNS, *shared)]


def leibniz_check(u: Octonion, v: Octonion, a: Octonion, b: Octonion, n: int) -> float:
    """Norm of D(ab) - D(a)b - a D(b); zero iff the Leibniz rule holds here."""
    s = _signs(n)
    u, v, a, b = u.coeffs, v.coeffs, a.coeffs, b.coeffs
    products = [_mul(x, y, s) for x, y in ((u, v), (v, u), (a, b), (v, a), (v, b))]
    return norm(Octonion(_residual(u, v, a, b, s, *products)))


@dataclass(frozen=True)
class AntiassocReport:
    lhs: Octonion  # D(i_u, i_v; i_a)
    rhs: Octonion  # -2 (i_u i_v) i_a
    equal: bool


def antiassoc_closed_form(u_idx: int, v_idx: int, a_idx: int, n: int) -> AntiassocReport:
    """Both sides of the antiassociative collapse D = -2 (uv) a.

    The indices must be pairwise distinct imaginary units that do not form
    an associative triplet (the collapse needs pairwise anticommutation
    with the product of the other two).
    """
    for idx in (u_idx, v_idx, a_idx):
        if not 1 <= idx <= 7:
            raise ValueError(f"basis indices must be in 1..7, got {idx}")
    if len({u_idx, v_idx, a_idx}) != 3:
        raise ValueError(f"indices must be pairwise distinct, got {(u_idx, v_idx, a_idx)}")
    if frozenset((u_idx, v_idx, a_idx)) in _LINES:
        raise ValueError(
            f"{(u_idx, v_idx, a_idx)} is an associative triplet; the closed form needs an antiassociative triple"
        )
    u, v, a = Octonion.unit(u_idx), Octonion.unit(v_idx), Octonion.unit(a_idx)
    lhs = derive(u, v, a, n)
    rhs = -2 * multiply(multiply(u, v, n), a, n)
    return AntiassocReport(lhs, rhs, lhs == rhs)


def cross_algebra_equal(u: Octonion, v: Octonion, a: Octonion) -> frozenset[int]:
    """Rule ids whose derivation output matches rule 0's, exactly."""
    outputs = [derive(u, v, a, n) for n in range(16)]
    return frozenset(n for n, o in enumerate(outputs) if o == outputs[0])


def derivation_matrix(u_idx: int, v_idx: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Action of D(i_u, i_v; .) on the imaginary subspace, as a 7x7 matrix.

    Column a-1 holds the imaginary coefficients of D applied to i_a.
    Derivations kill the real unit and output no real component, so the
    restriction is lossless; the matrices come out antisymmetric.
    """
    s = _signs(n)
    u, v = Octonion.unit(u_idx).coeffs, Octonion.unit(v_idx).coeffs
    pair = _pair(u, v, s)
    cols = [_derive(u, v, pair, Octonion.unit(a_idx).coeffs, s)[1:] for a_idx in range(1, 8)]
    return tuple(tuple(cols[a][i] for a in range(7)) for i in range(7))


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    m = [list(row) for row in rows]
    if not m:
        return 0
    rank = 0  # also the next pivot row
    for col in range(len(m[0])):
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

    Each pair contributes its 7x7 matrix flattened to a vector; with
    ``restrict_to`` only the rows and columns on those imaginary indices
    are kept (for probing a quaternion subalgebra).
    """
    keep = tuple(range(1, 8)) if restrict_to is None else tuple(restrict_to)
    for idx in keep:
        if not 1 <= idx <= 7:
            raise ValueError(f"restriction indices must be in 1..7, got {idx}")
    rows = []
    for u_idx, v_idx in pairs:
        if not 1 <= u_idx <= 7 or not 1 <= v_idx <= 7:
            raise ValueError(f"generator pair indices must be in 1..7, got {(u_idx, v_idx)}")
        matrix = derivation_matrix(u_idx, v_idx, n)
        rows.append([matrix[i - 1][j - 1] for i in keep for j in keep])
    return integer_rank(rows)


def _basis_index(x: Octonion, label: str) -> int:
    support = [(k, c) for k, c in enumerate(x.coeffs) if c != 0]
    if len(support) == 1 and support[0][1] == 1 and support[0][0] >= 1:
        return support[0][0]
    raise ValueError(f"{label} must be an imaginary basis element i1..i7, got {x!r}")


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of one sampling regime: did all 16 rules agree every trial?"""

    equal: bool
    witness: dict | None = None


def _refuted(report: RegimeReport, outputs: list[Octonion], inputs: dict) -> RegimeReport:
    """``report``, or a refutation by the first rule whose output is not rule 0's."""
    bad = next((n for n in range(16) if outputs[n] != outputs[0]), None)
    if not report.equal or bad is None:
        return report
    return RegimeReport(False, {**inputs, "algebra": bad, "got": outputs[bad], "expected": outputs[0]})


@dataclass(frozen=True)
class CrossAlgebraVerdict:
    in_span: RegimeReport
    out_of_span: RegimeReport
    trials: int


def expr_cross_algebra_equal(
    u: Octonion,
    v: Octonion,
    expr: Expr | str,
    trials: int = 16,
    seed: int = 0,
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
    with the first refuting trial as witness.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    u_idx = _basis_index(u, "u")
    v_idx = _basis_index(v, "v")
    if u_idx == v_idx:
        raise ValueError("u and v must be distinct basis elements")
    u, v = Octonion.unit(u_idx), Octonion.unit(v_idx)  # exact: a float 1.0 is the int 1
    tree = parse(expr) if isinstance(expr, str) else expr
    names, values = _evaluator(tree)
    rng = random.Random(seed)

    def outputs(env: dict) -> list[Octonion]:
        per_rule = _per_rule(values(env))
        return [derive(u, v, Octonion(per_rule[n]), n) for n in range(16)]

    # imaginary indices of the quaternion span: u, v, and |uv|
    uvs = [multiply(u, v, n) for n in range(16)]
    w_idx = next(k for k, c in enumerate(uvs[0].coeffs) if c != 0)
    span_idx = {0, u_idx, v_idx, w_idx}
    outside = [k for k in range(8) if k not in span_idx]
    in_span = RegimeReport(True)
    out_of_span = RegimeReport(True)

    for _ in range(trials):
        coords = {name: _random_ints(rng, 9, 4) for name in names}
        env = {name: [Octonion.real(c0) + c1 * u + c2 * v + c3 * w for w in uvs]
               for name, (c0, c1, c2, c3) in coords.items()}
        in_span = _refuted(in_span, outputs(env), {"coords": coords})

        env = {}
        for name in names:
            coeffs = list(_random_ints(rng, 9))
            k = rng.choice(outside)
            while coeffs[k] == 0:
                coeffs[k] = _random_ints(rng, 9, 1)[0]
            env[name] = Octonion(coeffs)
        out_of_span = _refuted(out_of_span, outputs(env), {"assignment": env})

    return CrossAlgebraVerdict(in_span, out_of_span, trials)
