"""Inner derivations: Leibniz rule, closed form, ranks, cross-rule equality."""

import random
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from operator import sub

import pytest
from test_dsl import _random_tree
from test_sieve import exact_tree, read_exactly

from octsieve import derivations
from octsieve.algebra import REFERENCE_TRIPLETS, Octonion, _mul, _mul_all, _signs, multiply, norm
from octsieve.derivations import (
    CrossAlgebraVerdict,
    RegimeReport,
    antiassoc_closed_form,
    associator,
    commutator,
    cross_algebra_equal,
    derivation_matrix,
    derivation_span_rank,
    derive,
    expr_cross_algebra_equal,
    integer_rank,
    leibniz_check,
)
from octsieve.dsl import Add, Const, Mul, Var, evaluate, free_vars, parse
from octsieve.sieve import is_invariant

SIEVE = sys.modules["octsieve.sieve"]  # the package's ``sieve`` is the function


def unit(k):
    return Octonion.unit(k)


def rand_oct(rng, bound=5):
    return Octonion(rng.randint(-bound, bound) for _ in range(8))


def test_derive_on_associative_triple_vanishes():
    assert derive(unit(1), unit(2), unit(3), 0) == Octonion.zero()


def test_derive_antiassociative_example():
    d = derive(unit(1), unit(2), unit(4), 0)
    assert d == Octonion((0, 0, 0, 0, 0, 0, 0, -2))
    assert d == -2 * multiply(multiply(unit(1), unit(2), 0), unit(4), 0)


def test_derive_kills_reals():
    rng = random.Random(12)
    for n in range(16):
        u, v = rand_oct(rng), rand_oct(rng)
        assert derive(u, v, Octonion.real(7), n) == Octonion.zero()
        assert derive(u, v, Octonion.one(), n) == Octonion.zero()
        # and never produces a real component
        assert derive(u, v, rand_oct(rng), n)[0] == 0


def test_derive_antisymmetric_in_u_v():
    rng = random.Random(13)
    for n in range(16):
        u, v, a = rand_oct(rng), rand_oct(rng), rand_oct(rng)
        assert derive(u, v, a, n) == -derive(v, u, a, n)
        assert derive(u, u, a, n) == Octonion.zero()


def test_leibniz_residual_is_exactly_zero():
    rng = random.Random(14)
    for _ in range(100):
        u, v, a, b = (rand_oct(rng) for _ in range(4))
        for n in range(16):
            assert leibniz_check(u, v, a, b, n) == 0.0
    assert leibniz_check(unit(1), unit(2), Octonion.one(), rand_oct(rng), 3) == 0.0


def literal_derive(u, v, a, s):
    """D(u, v; a) = [[u, v], a] - 3 ((uv) a - u (va)) on coefficient tuples,
    term by term as the formula reads (seven kernel calls), under the rule
    with characters ``s``: the oracle for both encodings of D."""
    uv = _mul(u, v, s)
    c = tuple(map(sub, uv, _mul(v, u, s)))
    ca, ac = _mul(c, a, s), _mul(a, c, s)
    uv_a, u_va = _mul(uv, a, s), _mul(u, _mul(v, a, s), s)
    return tuple([(w - x) - 3 * (y - z) for w, x, y, z in zip(ca, ac, uv_a, u_va)])


def per_rule_residual(u, v, a, b, n):
    """The Leibniz residual through the literal D, rule by rule: the oracle."""
    s = _signs(n)
    d_ab = literal_derive(u, v, _mul(a, b, s), s)
    d_a_b = _mul(literal_derive(u, v, a, s), b, s)
    a_d_b = _mul(a, literal_derive(u, v, b, s), s)
    return tuple(map(sub, map(sub, d_ab, d_a_b), a_d_b))


def rand_ints(rng, bound):
    return tuple(rng.randint(-bound, bound) for _ in range(8))


@pytest.mark.parametrize("bound", [5, 2**70])
def test_regrouped_derive_equals_derive(bound):
    rng = random.Random(30)
    for n in range(16):
        s = _signs(n)
        for _ in range(5):
            u, v, x = (rand_ints(rng, bound) for _ in range(3))
            assert derive(Octonion(u), Octonion(v), Octonion(x), n).coeffs == literal_derive(u, v, x, s)


@pytest.mark.parametrize("bound", [5, 2**70])
def test_all_rules_residuals_match_the_per_rule_oracle(bound):
    rng = random.Random(31)
    real = (7,) + (0,) * 7
    for _ in range(5):
        u, v, a, b = (rand_ints(rng, bound) for _ in range(4))
        # v = u collapses uv and vu to one tuple, a real v collapses every
        # product with v, and a = b collapses ab
        for case in ((u, v, a, b), (u, u, a, b), (u, real, a, b), (u, v, a, a)):
            for n in range(16):
                expected = per_rule_residual(*case, n)
                assert leibniz_check(*map(Octonion, case), n) == norm(Octonion(expected))
                assert expected == (0,) * 8
    assert type(_mul_all(u, u)) is tuple
    assert type(_mul_all(real, a)) is tuple
    assert type(_mul_all(a, a)) is tuple


def counting(monkeypatch, counts, module, *names):
    for name in names:
        def counted(*args, _name=name, _original=getattr(module, name)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)


def test_leibniz_check_runs_seventeen_kernels_under_its_own_rule(monkeypatch):
    # rule n alone: 2 kernel calls for p and c, 4 for each of D(ab), D(a)
    # and D(b), and 3 for ab, D(a)b and aD(b); no all-rules pass
    rng = random.Random(32)
    u, v, a, b = (rand_ints(rng, 5) for _ in range(4))
    counts = Counter()
    counting(monkeypatch, counts, derivations, "_mul", "_all_rules")
    counting(monkeypatch, counts, SIEVE, "_mul_all", "_all_rules")
    assert leibniz_check(*map(Octonion, (u, v, a, b)), 9) == 0.0
    assert counts == {"_mul": 17}


def test_derive_matches_commutator_associator_formula():
    def formula(u, v, a, n):
        return commutator(commutator(u, v, n), a, n) - 3 * associator(u, v, a, n)

    rng = random.Random(15)
    for n in range(16):
        for _ in range(10):
            ints = (rand_oct(rng), rand_oct(rng), rand_oct(rng))
            floats = tuple(Octonion(c + rng.random() for c in x) for x in ints)
            fractions = tuple(Octonion(map(Fraction, x)) for x in floats)  # the floats' exact readings
            for args in (ints, fractions):
                assert derive(*args, n) == formula(*args, n)
            # floats are read as the rationals they are: the literal formula on
            # their exact readings, with no float coefficient left
            exact = derive(*floats, n)
            assert exact == formula(*fractions, n)
            assert not any(type(c) is float for c in exact)


def test_floats_past_the_float_range_are_exact():
    big = Octonion((1e200,) * 8)
    ints = (int(1e200),) * 8
    for n in range(16):
        s = _signs(n)
        # D(u, u; u) = 0 exactly, where float products of 1e200 overflowed
        assert derive(big, big, big, n).coeffs == literal_derive(ints, ints, ints, s) == (0,) * 8
        d = derive(big, unit(1), unit(2), n).coeffs
        assert d == literal_derive(ints, unit(1).coeffs, unit(2).coeffs, s) and all(type(c) is int for c in d)
        assert any(d) and leibniz_check(big, big, big, big, n) == 0.0


def test_antiassoc_closed_form_report():
    report = antiassoc_closed_form(1, 2, 4, 0)
    assert report.equal
    assert report.lhs == report.rhs == Octonion((0, 0, 0, 0, 0, 0, 0, -2))


def test_antiassoc_closed_form_preconditions():
    with pytest.raises(ValueError):
        antiassoc_closed_form(1, 2, 3, 0)  # associative triplet
    with pytest.raises(ValueError):
        antiassoc_closed_form(1, 1, 4, 0)  # repeated index
    with pytest.raises(ValueError):
        antiassoc_closed_form(0, 2, 4, 0)  # real unit


def test_antiassoc_closed_form_spot_rules():
    lines = {frozenset(t) for t in REFERENCE_TRIPLETS}
    for n in (0, 7, 12):
        for u in range(1, 8):
            for v in range(1, 8):
                for a in range(1, 8):
                    if len({u, v, a}) != 3 or frozenset((u, v, a)) in lines:
                        continue
                    assert antiassoc_closed_form(u, v, a, n).equal


def test_antiassoc_closed_form_computes_uv_once(monkeypatch):
    counts = Counter()
    counting(monkeypatch, counts, derivations, "_mul")
    assert antiassoc_closed_form(1, 2, 4, 9).equal
    assert counts == {"_mul": 7}  # uv, vu, four for D(a), and (uv)a


def test_cross_algebra_equal_quaternionic_triple():
    assert cross_algebra_equal(unit(1), unit(2), unit(3)) == frozenset(range(16))


def test_cross_algebra_equal_antiassociative_triple():
    # D = -2 (i1 i2) i4 picks up the orientations of {1,2,3} and {3,4,7};
    # their product is + exactly on even-popcount rule ids
    got = cross_algebra_equal(unit(1), unit(2), unit(4))
    assert got == frozenset({0, 3, 5, 6, 9, 10, 12, 15})
    assert got < frozenset(range(16))


def test_cross_algebra_equal_real_argument():
    assert cross_algebra_equal(unit(1), unit(2), Octonion.one()) == frozenset(range(16))


def test_derivation_matrix_is_integer_antisymmetric():
    for n in (0, 5, 11):
        for u, v in ((1, 2), (1, 4), (3, 6)):
            matrix = derivation_matrix(u, v, n)
            for i in range(7):
                for j in range(7):
                    assert isinstance(matrix[i][j], int)
                    assert matrix[i][j] == -matrix[j][i]


def test_derivation_matrix_is_derive_column_by_column(monkeypatch):
    for n in range(16):
        for u, v in ((1, 2), (1, 4), (3, 6), (5, 5), (7, 2)):
            cols = [derive(unit(u), unit(v), unit(a), n).coeffs[1:] for a in range(1, 8)]
            assert derivation_matrix(u, v, n) == tuple(zip(*cols))
    counts = Counter()
    counting(monkeypatch, counts, derivations, "_mul")
    derivation_matrix(1, 4, 0)
    assert counts == {"_mul": 2 + 7 * 4}  # uv and vu, then four kernels per column


def test_integer_rank_basics():
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert integer_rank([[2, 4], [1, 2]]) == 1
    assert integer_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2


@pytest.mark.parametrize("rows", [[[1], [0, 1]], [[0, 1], [1]], [[1, 0], [0, 1], []]])
def test_integer_rank_rejects_rows_of_unequal_length(rows):
    # zip would cut the longer rows short, so the rank would depend on the row order
    with pytest.raises(ValueError, match="matrix rows must have equal lengths"):
        integer_rank(rows)


def test_derivation_span_ranks():
    # every rule and triplet: verify ranks the matrices itself, so this is
    # the public route's one full run
    all_pairs = list(combinations(range(1, 8), 2))
    for n in range(16):
        assert derivation_span_rank(all_pairs, n) == 14
        for triplet in REFERENCE_TRIPLETS:
            idxs = sorted(triplet)
            assert derivation_span_rank(list(combinations(idxs, 2)), n, restrict_to=idxs) == 3
    assert derivation_span_rank([], 0) == 0
    with pytest.raises(ValueError):
        derivation_span_rank([(0, 1)], 0)
    with pytest.raises(ValueError):
        derivation_span_rank([(1, 2)], 0, restrict_to=(0, 1))


def test_expr_cross_algebra_equal_in_span_regime():
    # values built over {1, u, v, uv} keep the derivation identical in all rules
    verdict = expr_cross_algebra_equal(unit(1), unit(2), "a*b", trials=12, seed=0)
    assert verdict.in_span.equal
    assert verdict.in_span.witness is None
    # generic full-octonion assignments break the agreement
    assert not verdict.out_of_span.equal
    assert verdict.out_of_span.witness is not None


def test_expr_cross_algebra_equal_other_line():
    # a line whose product points at -i4; the span realization still holds
    verdict = expr_cross_algebra_equal(unit(3), unit(7), "a*b - b*a", trials=10, seed=5)
    assert verdict.in_span.equal
    assert not verdict.out_of_span.equal


def test_expr_cross_algebra_equal_identity_expression():
    # reduces to the pointwise criterion: an i4 component breaks equality
    verdict = expr_cross_algebra_equal(unit(1), unit(2), "a", trials=8, seed=1)
    assert verdict.in_span.equal
    assert not verdict.out_of_span.equal


def test_expr_cross_algebra_equal_constant_expression():
    verdict = expr_cross_algebra_equal(unit(1), unit(2), "3", trials=4, seed=2)
    assert verdict.in_span.equal
    assert verdict.out_of_span.equal  # derivations annihilate reals


def test_expr_cross_algebra_equal_keeps_the_first_refuting_trial():
    # later trials that refute again do not replace the witness
    first = expr_cross_algebra_equal(unit(1), unit(2), "a*b", trials=1, seed=3)
    later = expr_cross_algebra_equal(unit(1), unit(2), "a*b", trials=6, seed=3)
    assert not first.out_of_span.equal
    assert later.out_of_span == first.out_of_span


def test_expr_cross_algebra_equal_validates_inputs():
    with pytest.raises(ValueError):
        expr_cross_algebra_equal(unit(1), unit(1), "a")
    with pytest.raises(ValueError):
        expr_cross_algebra_equal(Octonion((1, 1, 0, 0, 0, 0, 0, 0)), unit(2), "a")
    with pytest.raises(ValueError):
        expr_cross_algebra_equal(Octonion.one(), unit(2), "a")
    with pytest.raises(ValueError):
        expr_cross_algebra_equal(unit(1), unit(2), "a", trials=0)


def test_cross_algebra_equal_derives_each_rule_once(monkeypatch):
    rng = random.Random(17)
    triples = [(unit(i), unit(j), unit(k)) for i in range(8) for j in range(8) for k in range(8)]
    triples += [tuple(rand_oct(rng) for _ in range(3)) for _ in range(20)]
    expected = [frozenset(n for n in range(16) if derive(u, v, a, n) == derive(u, v, a, 0))
                for u, v, a in triples]
    calls, passes, all_rules = [], [], derivations._all_rules
    monkeypatch.setattr(derivations, "derive", lambda *args: calls.append(args) or derive(*args))
    monkeypatch.setattr(derivations, "_all_rules", lambda *args: passes.append(args) or all_rules(*args))
    assert [cross_algebra_equal(u, v, a) for u, v, a in triples] == expected
    assert (len(passes), calls) == (len(triples), [])  # one all-rules pass per call


def test_cross_algebra_equal_reads_floats_exactly():
    rng = random.Random(18)
    triples = [tuple(Octonion(c + rng.random() for c in rand_oct(rng)) for _ in range(3)) for _ in range(5)]
    triples += [(0.5 * unit(i), 1.5 * unit(j), -0.25 * unit(k)) for i, j, k in ((1, 2, 3), (1, 2, 4), (3, 6, 5))]
    for triple in triples:
        exact = [Octonion(map(Fraction, x)) for x in triple]
        assert cross_algebra_equal(*triple) == cross_algebra_equal(*exact)
    assert cross_algebra_equal(*triples[-2]) == frozenset({0, 3, 5, 6, 9, 10, 12, 15})
    # past the float range in float arithmetic (derive raises), exact here
    big = Octonion((1e200,) * 8)
    assert cross_algebra_equal(big, unit(1), big) == frozenset(range(16))


def per_rule_cross_algebra_equal(u, v, expr, trials, seed):
    """The former expr_cross_algebra_equal, kept as the oracle: one
    recursive evaluate per rule and regime (valid u, v only)."""
    tree = parse(expr) if isinstance(expr, str) else expr
    names = free_vars(tree)
    rng = random.Random(seed)
    u_idx, v_idx, w_idx = (next(k for k, c in enumerate(x.coeffs) if c) for x in (u, v, multiply(u, v, 0)))
    outside = [k for k in range(8) if k not in {0, u_idx, v_idx, w_idx}]
    reports = [RegimeReport(True), RegimeReport(True)]

    def refute(regime, outputs, inputs):
        bad = next((n for n in range(16) if outputs[n] != outputs[0]), None)
        if reports[regime].equal and bad is not None:
            reports[regime] = RegimeReport(False, {**inputs, "algebra": bad, "got": outputs[bad],
                                                   "expected": outputs[0]})

    for _ in range(trials):
        coords = {name: tuple(rng.randint(-9, 9) for _ in range(4)) for name in names}
        outputs = []
        for n in range(16):
            w = multiply(u, v, n)
            env = {name: Octonion.real(c0) + c1 * u + c2 * v + c3 * w
                   for name, (c0, c1, c2, c3) in coords.items()}
            outputs.append(derive(u, v, evaluate(tree, env, n), n))
        refute(0, outputs, {"coords": coords})
        env = {}
        for name in names:
            coeffs = [rng.randint(-9, 9) for _ in range(8)]
            k = rng.choice(outside)
            while coeffs[k] == 0:
                coeffs[k] = rng.randint(-9, 9)
            env[name] = Octonion(coeffs)
        refute(1, [derive(u, v, evaluate(tree, env, n), n) for n in range(16)], {"assignment": env})
    return CrossAlgebraVerdict(*reports, trials)


def float_unit(k):
    return Octonion(tuple(float(c) for c in unit(k).coeffs))


def test_expr_cross_algebra_equal_matches_the_per_rule_walks():
    # the oracle gets the same inputs, each float read as the rational it is;
    # repr compares every witness coefficient with its type: 1 vs Fraction(1, 1)
    rng = random.Random(23)
    pairs = [(unit(1), unit(2)), (unit(3), unit(7)), (unit(6), unit(4)), (unit(5), unit(1))]
    cases = [(*pairs[i % 4], _random_tree(rng, rng.randint(1, 4))) for i in range(100)]
    cases += [(*pairs[i % 4], Add(_random_tree(rng, rng.randint(1, 3)),
                                  Mul(Const(rng.choice([0.5, -1.5, 2.0, -0.0])), Var(rng.choice("abc")))))
              for i in range(30)]
    cases += [(float_unit(1), unit(2), _random_tree(rng, rng.randint(1, 3))) for _ in range(15)]
    cases += [(unit(3), float_unit(5), parse(text)) for text in ("a", "a*b", "0.5*a*b - b*a", "conj(a)*a")]
    cases += [(unit(1), unit(2), parse("1e300*a*b*c - 1e300*c*b*a"))]
    # past the float range under some rule: in float arithmetic the oracle's
    # rule-by-rule evaluate-then-derive loop meets an error
    overflowing = [(unit(1), unit(2), parse(text)) for text in ("1e307*a*b", "1e308*a - 1e308*b", "1e306*(a*b)*c")]
    overflowing += [(float_unit(1), unit(2), parse("1e306*(a*b)*c + 1e306*a*(b*c)"))]

    kinds = set()
    for i, (u, v, tree) in enumerate(cases + overflowing):
        got = repr(expr_cross_algebra_equal(u, v, tree, 3, i))
        exact_u, exact_v = (Octonion(map(read_exactly, x)) for x in (u, v))
        assert got == repr(per_rule_cross_algebra_equal(exact_u, exact_v, exact_tree(tree), 3, i))
        kinds.add(got.count("equal=True"))
        if i >= len(cases):
            with pytest.raises(ValueError):
                per_rule_cross_algebra_equal(u, v, tree, 3, i)
    assert kinds == {2, 1}


def test_expr_cross_algebra_equal_on_a_float_unit_runs_one_pass_per_regime_and_trial(monkeypatch):
    # a float unit u is read as the rational it is: each regime's bindings
    # run the all-rules pass once per trial, and the one-rule evaluate never
    dsl, sieve = sys.modules["octsieve.dsl"], sys.modules["octsieve.sieve"]
    passes, evaluations = [], []
    all_rules = sieve._all_rules
    monkeypatch.setattr(sieve, "_all_rules", lambda *args: passes.append(args) or all_rules(*args))
    for module in (dsl, sieve):
        monkeypatch.setattr(module, "evaluate", lambda *args: evaluations.append(args) or evaluate(*args))
    expr_cross_algebra_equal(float_unit(1), unit(2), "a*b", trials=2, seed=5)
    assert (len(passes), evaluations) == (2 * 2, [])


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")], ids=["inf", "-inf", "nan"])
def test_a_non_finite_literal_is_a_value_error(x):
    # the parser never makes one; a hand-built tree can
    tree = Mul(Const(x), Var("a"))
    message = re.escape(f"coefficients must be finite, got {x!r}")
    with pytest.raises(ValueError, match=message):
        is_invariant(tree)
    with pytest.raises(ValueError, match=message):
        expr_cross_algebra_equal(unit(1), unit(2), tree)


def test_expr_cross_algebra_equal_on_a_tree_deeper_than_the_recursion_limit():
    tree = Mul(Var("a"), Var("b"))
    for _ in range(5000):
        tree = Add(tree, Const(1))  # a real: the derivation ignores it
    assert 5000 > sys.getrecursionlimit()
    verdict = expr_cross_algebra_equal(unit(1), unit(2), tree, trials=2, seed=3)
    assert repr(verdict) == repr(per_rule_cross_algebra_equal(unit(1), unit(2), "a*b + 5000", 2, 3))
    assert verdict.in_span.equal and not verdict.out_of_span.equal
