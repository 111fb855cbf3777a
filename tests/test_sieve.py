"""Sign matrix, sieve/unsieve duality, and the invariance refuter."""

import copy
import inspect
import pickle
import random
import sys
from fractions import Fraction
from operator import add, sub

import pytest
from test_algebra import rational, typed
from test_dsl import _random_tree

from octsieve import algebra
from octsieve.algebra import _SIGNS, Octonion, _character, _mul
from octsieve.dsl import MAX_DEPTH, Add, Conj, Const, Mul, Neg, Var, _program, free_vars, parse, to_text
from octsieve.sieve import (
    _all_rules,
    _butterfly,
    _evaluator,
    _per_rule,
    _pruned,
    function_family,
    is_invariant,
    random_assignment,
    sieve,
    sign_entry,
    sign_matrix,
    unsieve,
)


SIEVE = sys.modules["octsieve.sieve"]  # the package's ``sieve`` is the function


def rand_family(rng, bound=9):
    return tuple(Octonion(rng.randint(-bound, bound) for _ in range(8)) for _ in range(16))


def test_sign_entry_values():
    for k in range(16):
        assert sign_entry(0, k) == 1
        assert sign_entry(k, 0) == 1
    assert sign_entry(1, 1) == -1
    assert sign_entry(6, 3) == -1  # 6 AND 3 = 2, one bit set
    assert sign_entry(3, 3) == 1  # two bits set


def test_sign_entry_symmetric_and_bounded():
    matrix = sign_matrix()
    assert len(matrix) == 16 and all(len(row) == 16 for row in matrix)
    for j in range(16):
        for k in range(16):
            assert matrix[j][k] in (1, -1)
            assert matrix[j][k] == sign_entry(k, j)


def test_sign_entry_range_check():
    with pytest.raises(ValueError):
        sign_entry(16, 0)
    with pytest.raises(ValueError):
        sign_entry(0, -1)


def test_constant_family_sieves_to_dc_term():
    v = Octonion((2, -1, 0, 3, 0, 0, 7, 0))
    fam = (v,) * 16
    g = sieve(fam)
    assert g[0] == 4 * v
    for k in range(1, 16):
        assert g[k].is_zero()


def test_unsieve_of_dc_only_gives_constant_family():
    v = Octonion((1, 0, -5, 0, 0, 2, 0, 0))
    dist = (4 * v,) + (Octonion.zero(),) * 15
    assert unsieve(dist) == (v,) * 16
    assert unsieve((Octonion.zero(),) * 16) == (Octonion.zero(),) * 16


def test_sieve_unsieve_round_trip():
    rng = random.Random(8)
    for _ in range(50):
        fam = rand_family(rng, bound=50)
        assert unsieve(sieve(fam)) == fam
        assert sieve(unsieve(fam)) == fam


def test_function_family_index_alignment():
    # entry j always uses rule j
    fam = function_family(parse("a*b"), {"a": Octonion.unit(1), "b": Octonion.unit(2)})
    assert fam[0] == Octonion.unit(3)
    assert fam[4] == -Octonion.unit(3)


def test_symmetric_product_is_invariant():
    rng = random.Random(9)
    env = random_assignment(["a", "b"], rng)
    fam = function_family(parse("a*b + b*a"), env)
    assert all(f == fam[0] for f in fam)  # identical under every rule
    g = sieve(fam)
    for k in range(1, 16):
        assert g[k].is_zero()


def test_plain_product_has_nonzero_distance():
    rng = random.Random(10)
    env = random_assignment(["a", "b"], rng)
    g = sieve(function_family(parse("a*b"), env))
    assert any(not g[k].is_zero() for k in range(1, 16))


def randint_assignment(names, rng, coeff_bound=9):
    """Reference draw: one ``rng.randint`` call per coefficient, name by name."""
    return {name: Octonion(rng.randint(-coeff_bound, coeff_bound) for _ in range(8)) for name in names}


@pytest.mark.parametrize("bound", [0, 1, 9, 2**40])
def test_random_assignment_draws_what_randint_draws(bound):
    # CLI assignments and witnesses are pinned to the seed, so the values
    # and the rng state the trials draw on next must be randint's
    for seed in range(50):
        for names in ([], ["a"], ["a", "b"], ["a", "b", "c"]):
            rng, oracle = random.Random(seed), random.Random(seed)
            env = random_assignment(names, rng, bound)
            expected = randint_assignment(names, oracle, bound)
            assert {k: typed(v.coeffs) for k, v in env.items()} == {k: typed(v.coeffs) for k, v in expected.items()}
            assert rng.getrandbits(64) == oracle.getrandbits(64)


def test_random_assignment_values_are_pinned():
    # one literal draw: an interpreter whose randint draws otherwise fails here
    env = random_assignment(["a", "b"], random.Random(3))
    assert {k: v.coeffs for k, v in env.items()} == {
        "a": (-2, 9, 8, -5, 2, 6, 9, -7),
        "b": (-9, 6, -1, 8, -2, -3, 6, 8),
    }


def test_random_assignment_rejects_a_negative_or_non_integer_bound():
    with pytest.raises(ValueError):
        random_assignment(["a"], random.Random(0), -1)
    with pytest.raises(TypeError):  # as randint on Python 3.12
        random_assignment(["a"], random.Random(0), 9.0)


def test_xor_equivariance():
    rng = random.Random(11)
    for _ in range(5):
        fam = rand_family(rng)
        base = sieve(fam)
        for m in range(16):
            permuted = tuple(fam[j ^ m] for j in range(16))
            shifted = sieve(permuted)
            for k in range(16):
                assert shifted[k] == sign_entry(m, k) * base[k]


def test_family_shape_is_checked():
    with pytest.raises(ValueError):
        sieve((Octonion.zero(),) * 15)
    with pytest.raises(ValueError):
        unsieve([(0,) * 8] * 16)


def test_is_invariant_verdicts():
    assert is_invariant("a+b", trials=16, seed=0).invariant
    assert is_invariant("a*a", trials=16, seed=0).invariant
    assert is_invariant("a*b + b*a", trials=16, seed=0).invariant
    assert is_invariant("conj(a)*a", trials=16, seed=0).invariant

    verdict = is_invariant("a*b", trials=16, seed=0)
    assert not verdict.invariant
    w = verdict.witness
    assert w is not None and w.index > 0
    # the witness reproduces: re-sieving its assignment shows the nonzero distance
    g = sieve(function_family(parse("a*b"), w.assignment))
    assert g[w.index] == w.distance
    assert not w.distance.is_zero()


def test_is_invariant_accepts_trees_and_is_deterministic():
    tree = parse("a*b")
    v1 = is_invariant(tree, trials=8, seed=42)
    v2 = is_invariant("a*b", trials=8, seed=42)
    assert v1.witness.assignment == v2.witness.assignment
    assert v1.witness.index == v2.witness.index
    with pytest.raises(ValueError):
        is_invariant("a*b", trials=0)


def walsh_sums(fam):
    """4 g[k], exact on exact coefficients: the 256-term sum over the sign matrix."""
    return [[sum(sign_entry(j, k) * f.coeffs[i] for j, f in enumerate(fam)) for i in range(8)] for k in range(16)]


def loop_transform(fam):
    """Reference transform: the 256-term loop, each sum divided by 4 in floats."""
    return tuple(Octonion(c / 4 for c in row) for row in walsh_sums(fam))


def bits(fam):
    return [[c.hex() for c in o.coeffs] for o in fam]


@pytest.mark.parametrize("bound", [9, 2**62 + 5, 2**1030], ids=["small", "past-2^62", "past-2^1024"])
def test_butterfly_matches_loop_on_integers(bound):
    rng = random.Random(bound % 1000)
    for _ in range(20):
        fam = rand_family(rng, bound)
        if bound < 2**1024:
            assert bits(sieve(fam)) == bits(loop_transform(fam))
            continue
        # the quarter overflows a float in both
        with pytest.raises(OverflowError):
            sieve(fam)
        with pytest.raises(OverflowError):
            loop_transform(fam)


def stage_by_stage(rows):
    """Reference butterfly: the four stages on whole rows, 32 steps of two
    tuple maps each."""
    rows = list(rows)
    for h in (1, 2, 4, 8):
        for j in range(16):
            if not j & h:
                x, y = rows[j], rows[j | h]
                rows[j], rows[j | h] = tuple(map(add, x, y)), tuple(map(sub, x, y))
    return rows


def exact_bits(rows):
    """Each coefficient's type and value to the last bit: ``hex`` for a float
    (so -0.0 and 0.0 differ), ``repr`` otherwise."""
    return [[(type(c), c.hex() if isinstance(c, float) else repr(c)) for c in row] for row in rows]


def float_row(rng):
    # signed zeros, values past 2^53 and magnitudes far apart, so that the
    # order of the additions shows in the rounding
    return tuple(rng.choice([-0.0, 0.0, 2.0**53 + 2, -(2.0**60), rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20)])
                 for _ in range(8))


def mixed_row(rng):
    # int, float and Fraction in one row: coefficients 0-3 are ints or
    # Fractions, whose quarters are Fractions, and 4-7 may be floats too,
    # whose quarters are floats; sieve builds such a family by the constructor
    return tuple(rng.choice([rng.randint(-(2**70), 2**70), Fraction(rng.randint(-99, 99), rng.randint(1, 50))]
                            + [rng.uniform(-1, 1)] * (i >= 4)) for i in range(8))


ROWS = {
    "float": float_row,
    "int-past-2^62": lambda rng: tuple(rng.randint(-(2**70), 2**70) for _ in range(8)),
    "fraction": lambda rng: tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 50)) for _ in range(8)),
    "mixed": mixed_row,
}
QUARTER_TYPES = {"float": {float}, "int-past-2^62": {float}, "fraction": {Fraction}, "mixed": {float, Fraction}}


@pytest.mark.parametrize("kind", ROWS)
def test_the_butterfly_is_the_stage_by_stage_loop_bit_for_bit(kind):
    rng = random.Random(len(kind))
    for t in range(50):
        rows = [ROWS[kind](rng) for _ in range(16)]
        if t == 0 and kind == "float":
            rows = [(-0.0,) * 8] * 16  # -0.0 + -0.0 is -0.0, and -0.0 - -0.0 is 0.0
        expected = stage_by_stage(rows)
        assert exact_bits(_butterfly(list(rows))) == exact_bits(expected)
        fam = tuple(Octonion(row) for row in rows)
        quarters = [[c / 4 for c in row] for row in expected]
        assert exact_bits(f.coeffs for f in sieve(fam)) == exact_bits(quarters)
        assert exact_bits(f.coeffs for f in unsieve(fam)) == exact_bits(quarters)
        assert exact_bits(_per_rule(dict(enumerate(rows)))) == exact_bits(expected)


def alternating(x):
    return tuple(Octonion((x if j % 2 else -x,) * 8) for j in range(16))


@pytest.mark.parametrize("fam, message", [
    ((Octonion((1e308,) * 8),) * 16, "got inf"),
    (alternating(1e308), "got -inf"),
])
def test_a_float_sum_past_the_float_range_is_a_nonfinite_coefficient(fam, message):
    for transform in (sieve, unsieve):
        with pytest.raises(ValueError, match=f"^coefficients must be finite, {message}$"):
            transform(fam)


@pytest.mark.parametrize("first", [0, 1e308], ids=["int", "float-overflow"])
def test_an_int_quarter_past_the_float_range_is_the_divisions_overflow(first):
    # row 5's int quarter is past the float range: all 128 sums are divided
    # before any coefficient is checked, so row 0's float sum of 16 * 1e308
    # does not raise first
    fam = tuple(Octonion((first, sign_entry(j, 5) * 2**1030, 0, 0, 0, 0, 0, 0)) for j in range(16))
    for transform in (sieve, unsieve):
        with pytest.raises(OverflowError, match="^integer division result too large for a float$"):
            transform(fam)


@pytest.mark.parametrize("kind", ROWS)
def test_sieved_octonions_are_the_constructors(kind):
    rng = random.Random(22)
    g = sieve(tuple(Octonion(ROWS[kind](rng)) for _ in range(16)))
    assert {type(c) for o in g for c in o.coeffs} == QUARTER_TYPES[kind]
    for o in g:
        built = Octonion(list(o.coeffs))
        assert type(o) is Octonion and type(o.coeffs) is tuple
        assert o == built and hash(o) == hash(built) and repr(o) == repr(built)
        for copied in (copy.copy(o), copy.deepcopy(o), pickle.loads(pickle.dumps(o))):
            assert type(copied) is Octonion and exact_bits([copied.coeffs]) == exact_bits([o.coeffs])


@pytest.mark.parametrize("bad, error", [
    (True, "TypeError: coefficients must be real numbers, got True"),
    (float("nan"), "ValueError: coefficients must be finite, got nan"),
    ("1", "TypeError: coefficients must be real numbers, got '1'"),
])
def test_columns_that_fail_the_check_raise_the_constructors_error(bad, error):
    for fill in (0.5, 1, Fraction(1, 3)):
        cs = [fill] * 128
        cs[16 * 3 + 7] = bad  # octonion 7, coefficient 3
        with pytest.raises((TypeError, ValueError)) as caught:
            Octonion._from_columns(tuple(cs))
        assert f"{caught.type.__name__}: {caught.value}" == error
        assert Octonion._from_columns(tuple([fill] * 128)) == (Octonion((fill,) * 8),) * 16


def test_constant_float_family_sieves_to_exact_zeros():
    rng = random.Random(13)
    for _ in range(200):
        v = Octonion(rng.uniform(-1, 1) for _ in range(8))
        g = sieve((v,) * 16)
        assert g[0] == 4 * v
        assert all(g[k].is_zero() for k in range(1, 16))


def all_rules(tree, env):
    """``tree`` under all 16 rules through the sieve's one entry: compile,
    then route on the literals and the assignment."""
    return _evaluator(tree)[1](env)


def with_consts(node, f):
    """``node`` with each literal's value replaced by f(value)."""
    if isinstance(node, Const):
        return Const(f(node.value))
    if isinstance(node, Var):
        return node
    if isinstance(node, (Neg, Conj)):
        return type(node)(with_consts(node.operand, f))
    return type(node)(with_consts(node.left, f), with_consts(node.right, f))


def with_float_consts(node):
    return with_consts(node, lambda x: x + 0.1)


def read_exactly(x):
    """A float as the rational it is, an int when integral, else a Fraction;
    anything else as it is."""
    if not isinstance(x, float):
        return x
    return int(x) if x.is_integer() else Fraction(x)


def exact_tree(tree):
    """``tree`` with each float literal read as the rational it is."""
    return with_consts(tree, read_exactly)


def exact_env(env):
    """An assignment with each float coefficient read as the rational it is."""
    return {name: Octonion(map(read_exactly, x)) for name, x in env.items()}


@pytest.mark.parametrize("kind", ["small", "past-2^62", "float-consts"])
def test_all_rules_pass_matches_function_family(kind):
    rng = random.Random(14)
    bound = 2**62 + 5 if kind == "past-2^62" else 9
    outcomes = set()
    for _ in range(300):
        tree = _random_tree(rng, rng.randint(1, 4))
        if kind == "float-consts":
            tree = with_float_consts(tree)
        env = {name: Octonion(rng.randint(-bound, bound) for _ in range(8)) for name in "abc"}
        # the oracle reads each float literal as the rational it is, as the pass does
        fam = function_family(exact_tree(tree), env)
        value = all_rules(tree, env)
        collapsed = all(f == fam[0] for f in fam)
        outcomes.add(collapsed)
        # the program collapses a family that is the same under every rule
        assert (type(value) is tuple) is collapsed
        values = _per_rule(value)
        assert len(values) == 16
        assert [typed(v) for v in values] == [typed(f.coeffs) for f in fam]
    assert outcomes == {True, False}


def test_all_rules_pass_is_function_family_bit_for_bit():
    # the oracle gets the same inputs, each float read as the rational it is
    # (-0.0 as 0); the pass gives its values and no float
    rng = random.Random(16)
    draws = (lambda: rng.randint(-9, 9), lambda: rng.uniform(-3, 3), lambda: rng.choice((0.0, -0.0)),
             lambda: float(rng.randint(-2, 2)), lambda: 0)
    fixed = [("-1*a", {"a": (1.5, 0, 0, 0, 0, 0, 0, 0)}),
             ("0.5*a*b + 0.5*b*a", {"a": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8), "b": (1.5, -2, 0, 0.25, 0, 0, -0.0, 3)}),
             ("a*a", {"a": (0.0, -0.0, 0.0, -0.0, 1.5, 0, -0.0, 0.0)}),
             ("a*a", {"a": (-0.0,) * 8})]
    cases = [(parse(text), env) for text, env in fixed]
    for i in range(600):
        tree = _random_tree(rng, rng.randint(1, 4))
        if i % 2:
            tree = with_float_consts(tree)
        cases.append((tree, {name: tuple(rng.choice(draws)() for _ in range(8)) for name in "abc"}))
    for tree, env in cases:
        env = {name: Octonion(c) for name, c in env.items()}
        values = _per_rule(all_rules(tree, env))
        fam = function_family(exact_tree(tree), exact_env(env))
        assert len(values) == 16
        assert [rational(v) for v in values] == [rational(f.coeffs) for f in fam], to_text(tree)


def test_all_rules_pass_keeps_a_family_with_one_odd_rule():
    # 15 equal rules and one other: not the same under every rule.  b is
    # bound to the family's exact spectrum, F_k = (1/16) sum_j b[j][k] odd[j]
    env = {"a": (1, 2, 3, 4, 5, 6, 7, 8)}
    for n in range(16):
        odd = [(0,) * 8] * 16
        odd[n] = (0, 1, 0, 0, 0, 0, 0, 0)
        spectrum = {k: tuple(Fraction(c, 16) for c in g) for k, g in enumerate(walsh_sums([Octonion(v) for v in odd]))}
        value = _all_rules(_program(parse("a + b"))[0], {**env, "b": spectrum})
        assert type(value) is dict
        assert list(_per_rule(value)) == [tuple(map(sum, zip(env["a"], v))) for v in odd]


P70 = 2**70
STEP_INPUTS = {  # a, b and a real coefficient r
    "small": ((3, -1, 4, 1, -5, 9, -2, 6), (2, 7, -1, 8, 2, -8, 1, 8), 3),
    "2^70": (tuple(P70 * c + 1 for c in (3, -1, 4, 1, -5, 9, -2, 6)),
             tuple(P70 - c for c in (2, 7, -1, 8, 2, -8, 1, 8)), -P70),
    "fraction": (tuple(Fraction(c, 3) for c in (3, -1, 4, 1, -5, 9, -2, 6)),
                 tuple(Fraction(c, 7) for c in (2, 7, -1, 8, 2, -8, 1, 8)), Fraction(5, 2)),
    "mixed": ((3, Fraction(-1, 2), 4, P70, Fraction(-5, 3), 9, -2, 6),
              (Fraction(2, 5), 7, -1, 8, P70, -8, Fraction(1, 9), 8), Fraction(-7, 4)),
}
# One program per step kind, on tuple operands and on a spectrum (a*b).  r
# is real, z is r with imaginary parts Fraction(0), e is real plus one
# imaginary unit, and p and q have imaginary parts parallel and
# antiparallel to a's.
STEP_PROGRAMS = (
    "r*a", "a*r", "z*a", "a*z", "a + b", "a - b", "-a", "conj(a)", "a*p", "q*a",
    "r*(a*b)", "(a*b)*r", "z*(a*b)", "(a*b)*z", "(a*b) + b", "b - (a*b)", "(a*b) + (a*b)", "(a*b) - 2*(b*a)",
    "-(a*b)", "conj(a*b)",
)


def check_step_kinds(kind):
    """Each step kind through the all-rules pass on ``STEP_INPUTS[kind]``:
    the oracle's values and types, one tuple exactly when the oracle's 16
    values are equal.  The pass scales by a real operand, so it reads z as
    r, and skips z's Fraction(0) terms as it skips int zeros."""
    a, b, r = STEP_INPUTS[kind]
    real = (r,) + (0,) * 7
    env = {"a": a, "b": b, "r": real, "z": (r,) + (Fraction(0),) * 7,
           "p": (b[0], *[2 * c for c in a[1:]]), "q": (r, *[-r * c for c in a[1:]])}
    cases = [(text, env) for text in STEP_PROGRAMS]
    for k in range(1, 8):  # each imaginary unit, so each index of the real-operand test
        e = list(real)
        e[k] = 1
        cases += [(text, {**env, "e": tuple(e)}) for text in ("e*a", "a*e", "e*(a*b)", "(a*b)*e")]
    for text, env in cases:
        tree = parse(text)
        value = SIEVE._all_rules(_program(tree)[0], env)
        fam = function_family(tree, {name: Octonion(x) for name, x in {**env, "z": real}.items()})
        assert [typed(v) for v in _per_rule(value)] == [typed(f.coeffs) for f in fam], (text, env)
        assert (type(value) is tuple) is all(f == fam[0] for f in fam), (text, env)


@pytest.mark.parametrize("kind", STEP_INPUTS)
def test_each_step_kind_of_the_all_rules_pass_is_the_per_rule_oracle(kind):
    check_step_kinds(kind)


def mutate(monkeypatch, module, name, old, new):
    """Patch ``module``'s function ``name`` with the term ``old`` rewritten
    as ``new`` in its source, into ``module`` and into the sieve module if
    it reads the function too."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, old
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    for m in {module, SIEVE}:
        if hasattr(m, name):
            monkeypatch.setattr(m, name, namespace[name])


# One index rewritten in each unrolled term: the scaling, the tuple sum and
# difference, the conjugate, the real-operand test, and the product's dot,
# P0 and collapse test.
UNROLLED_MUTANTS = (
    [(SIEVE, "_scale", f"r * c{i}", f"r * c{(i + 1) % 8}") for i in range(8)]
    + [(SIEVE, f, f"x{i} {op} y{i}", f"x{i} {op} y{(i + 1) % 8}") for f, op in (("_add", "+"), ("_sub", "-"))
       for i in range(8)]
    + [(SIEVE, "_conj", f"-c{i}", f"-c{i % 7 + 1}") for i in range(1, 8)]
    + [(SIEVE, "_all_rules", f"{x}[{i}]", f"{x}[{i % 7 + 1}]") for x in ("left", "right") for i in range(1, 8)]
    + [(algebra, "_real_part", f"a{i}*b{i}", f"a{i}*b{i % 7 + 1}") for i in range(1, 8)]
    + [(algebra, "_real_part", f"a{i}*b0", f"a{i % 7 + 1}*b0") for i in range(1, 8)]
    + [(algebra, "_real_part", f"a0*b{i}", f"a0*b{i % 7 + 1}") for i in range(8)]
    + [(algebra, "_mul_all", f"{x}{i}*{x}{i}", f"{x}{i}*{x}{i % 7 + 1}") for x in "ab" for i in range(1, 8)]
)


@pytest.mark.parametrize("module, name, old, new", UNROLLED_MUTANTS,
                         ids=[f"{name}:{old}->{new}" for _, name, old, new in UNROLLED_MUTANTS])
def test_every_unrolled_term_of_the_pass_is_tested(monkeypatch, module, name, old, new):
    mutate(monkeypatch, module, name, old, new)
    with pytest.raises(AssertionError):
        for kind in STEP_INPUTS:
            check_step_kinds(kind)


@pytest.mark.parametrize("module, name, old, new", [
    (SIEVE, "_scale", "r * c4", "r * c5"), (SIEVE, "_add", "x4 + y4", "x4 + y5"),
    (algebra, "_mul_all", "a4*a4", "a4*a5"),
])
def test_an_index_rewritten_in_the_unrolled_pass_fails_the_oracle(monkeypatch, module, name, old, new):
    # the random-tree oracle, on its own, catches a wrong index in each
    mutate(monkeypatch, module, name, old, new)
    with pytest.raises(AssertionError):
        test_all_rules_pass_matches_function_family("small")


def per_rule_oracle(node, env, s):
    """``node`` under the rule with triplet characters ``s``, through the
    kernel ``_mul`` alone; ``env`` binds each name to its value under that rule."""
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Const):
        return (node.value,) + (0,) * 7
    if isinstance(node, Neg):
        return tuple(-c for c in per_rule_oracle(node.operand, env, s))
    if isinstance(node, Conj):
        c = per_rule_oracle(node.operand, env, s)
        return (c[0],) + tuple(-x for x in c[1:])
    left, right = per_rule_oracle(node.left, env, s), per_rule_oracle(node.right, env, s)
    if isinstance(node, Mul):
        return _mul(left, right, s)
    return tuple(map(add if isinstance(node, Add) else sub, left, right))


def spectrum_draw(rng, exact):
    """A spectrum {k: octonion} of 1-4 components, entries ints or Fractions, some zero."""
    bound = 2**70 if exact == "int" else 9

    def entry():
        x = rng.choice((0, rng.randint(-9, 9), rng.randint(-bound, bound)))
        return Fraction(x, rng.randint(1, 6)) if exact == "fraction" else x

    return {k: Octonion(entry() for _ in range(8)) for k in rng.sample(range(16), rng.randint(1, 4))}


def under_rule(x, n):
    """An octonion, or a spectrum's value sum_k chi(k, n) x_k, under rule n, as a tuple."""
    if isinstance(x, Octonion):
        return x.coeffs
    return sum((_character(k, n) * v for k, v in x.items()), Octonion.zero()).coeffs


@pytest.mark.parametrize("exact", ["int", "fraction"])
@pytest.mark.parametrize("text, collapse", [
    ("a*b", None), ("(a*b)*c", None), ("a*(b*c)", None), ("(a*b)*(b*a) + c*conj(c)", None),
    ("a*b - a*b", "to zero"), ("(a*b)*c - (a*b)*c", "to zero"),
    ("a*b + b*a", "on tuples"), ("(a*b)*conj(a*b)", "on tuples"),
])
def test_the_in_place_spectrum_product_is_the_kernel_under_every_rule(text, collapse, exact):
    # spectrum x spectrum and spectrum x tuple products accumulate into rows;
    # each rule's value is the kernel's on that rule's values of the inputs.
    # a*b + b*a and the norm of a*b are the same under every rule when the
    # inputs are, and are tuples then
    tree = parse(text)
    names, values = _evaluator(tree)
    rng = random.Random(text)
    for trial in range(6):
        env = {name: spectrum_draw(rng, exact) for name in names}
        tuples = names if trial % 3 == 2 else names[-1:] if trial % 3 == 1 else []
        for name in tuples:
            env[name] = env[name].popitem()[1]
        # the evaluator takes a spectrum as it is: exact tuples, no zero component
        value = values({name: x if isinstance(x, Octonion) else _pruned({k: v.coeffs for k, v in x.items()})
                        for name, x in env.items()})
        expected = [per_rule_oracle(tree, {name: under_rule(x, n) for name, x in env.items()}, _SIGNS[n])
                    for n in range(16)]
        assert list(_per_rule(value)) == expected
        assert (type(value) is tuple) is all(e == expected[0] for e in expected)
        if collapse == "to zero" or collapse == "on tuples" and tuples == names:
            assert type(value) is tuple
        if collapse == "to zero":
            assert value == (0,) * 8


def keys(value):
    """The keys of a value's nonzero spectrum components."""
    return set(value) if type(value) is dict else {0} if any(value) else set()


@pytest.mark.parametrize("text, support", [
    ("a*b", {0, 4, 5, 6, 7, 9, 10, 11}), ("(a*b)*c - a*(b*c)", {1, 2, 3, 12, 13, 14, 15}),
    ("a*b + b*a", {0}), ("(a*a)*b - a*(a*b)", set()),
])
def test_the_distances_supports_are_exact_key_sets(text, support):
    # a*b: key 0 and the seven triplet masks; the associator: the other
    # seven keys > 0; a*b + b*a: rule-independent; (a*a)*b - a*(a*b): zero
    names, values = _evaluator(parse(text))
    seen = set()
    for seed in range(20):
        found = keys(values(random_assignment(names, random.Random(seed))))
        assert found <= support
        seen |= found
    assert seen == support


def reference_verdict(tree, trials, seed):
    """The former is_invariant, exact: the Walsh sums of function_family(...)
    on every trial, each float literal read as the rational it is, and the
    first nonzero distance as the exact quarter of its sum."""
    tree = exact_tree(tree)
    rng = random.Random(seed)
    for trial in range(1, trials + 1):
        env = random_assignment(free_vars(tree), rng)
        sums = walsh_sums(function_family(tree, env))
        for k in range(1, 16):
            if any(sums[k]):
                return False, trial, k, [Fraction(c, 4) for c in sums[k]], env
    return True, trials, None, None, None


FIXED_EXPRS = (
    "a*b", "a*b + b*a", "(a*b)*c - a*(b*c)", "conj(a)*a", "(a*conj(a))*b", "a*(a*b) - (a*a)*b",
    "0.1*a*b + 0.1*b*a", "(0.5*a)*(0.5*a)", "3*(a*b - b*a) + 2*b",
)


def test_is_invariant_matches_the_per_trial_loop():
    rng = random.Random(15)
    trees = [parse(text) for text in FIXED_EXPRS]
    trees += [_random_tree(rng, rng.randint(1, 4)) for _ in range(150)]
    # a real factor 2*a0 that is 0 in about one trial in 19: some seeds
    # refute after trial 1, which pins where the later trials' draws come from
    trees += [parse("(a + conj(a))*(b*c)")] * 80
    seen = set()
    for i, tree in enumerate(trees):
        seed = 100 + i
        verdict = is_invariant(tree, trials=8, seed=seed)
        invariant, trials_run, index, distance, env = reference_verdict(tree, 8, seed)
        seen.add((invariant, trials_run > 1))
        assert (verdict.invariant, verdict.trials, verdict.trials_run) == (invariant, 8, trials_run)
        if invariant:
            assert verdict.witness is None
        else:
            w = verdict.witness
            assert (w.index, rational(w.distance), w.assignment) == (index, rational(distance), env)
            if exact_tree(tree) == tree:  # int literals: every sum is a multiple of 16
                assert all(type(c) is int for c in w.distance)
    assert seen == {(True, True), (False, False), (False, True)}


def test_a_witness_past_the_float_range_is_exact():
    # 1e308*1e308 is an int of 616 digits, so a float quarter of these
    # distances overflows; the verdict divides exactly
    scale = int(1e308) ** 2
    verdict, small = is_invariant("1e308*1e308*(a*b)", seed=0), is_invariant("a*b", seed=0)
    assert (verdict.invariant, verdict.trials_run) == (False, 1)
    w = verdict.witness
    assert (w.index, w.assignment) == (small.witness.index, small.witness.assignment)
    assert typed(w.distance) == typed(scale * small.witness.distance)


@pytest.mark.parametrize("text", [f"{2**1100}*a", f"a*conj(a)*{2**1100} - b"], ids=["scaled", "norm"])
def test_a_trial_the_same_under_every_rule_holds_without_a_sieve(text):
    # past 2^1024 the sieve's quarters do not fit a float; such a family
    # needs none, as every distance past g[0] is zero
    tree = parse(text)
    env = random_assignment(free_vars(tree), random.Random(1))
    with pytest.raises(OverflowError):
        sieve(function_family(tree, env))
    verdict = is_invariant(tree, trials=8, seed=1)
    assert (verdict.invariant, verdict.trials_run, verdict.witness) == (True, 8, None)


def test_trials_run_counts_the_trials_that_ran():
    refuted = is_invariant("a*b", trials=64, seed=0)
    assert (refuted.trials, refuted.trials_run) == (64, 1)
    held = is_invariant("a*b + b*a", trials=20, seed=0)
    assert (held.trials, held.trials_run) == (20, 20)


def counted_octonions(monkeypatch):
    """The argument of every ``Octonion`` built from here on."""
    built, init = [], Octonion.__init__

    def counted(self, coeffs):
        built.append(coeffs)
        init(self, coeffs)

    monkeypatch.setattr(Octonion, "__init__", counted)
    return built


def test_later_trials_build_no_octonion(monkeypatch):
    # trials 2..64 bind exact int tuples: only trial 1's two octonions are built
    built = counted_octonions(monkeypatch)
    verdict = is_invariant("a*b + b*a", trials=64)
    assert (verdict.invariant, verdict.trials_run, len(built)) == (True, 64, 2)


def test_a_later_witness_is_the_octonions_random_assignment_draws(monkeypatch):
    # 2*a0 is 0 at seed 23's first trial, so trial 2 refutes; its tuples
    # become octonions, the ones random_assignment draws for trial 2
    rng = random.Random(23)
    random_assignment("abc", rng)
    drawn = random_assignment("abc", rng)
    built = counted_octonions(monkeypatch)
    verdict = is_invariant("(a + conj(a))*(b*c)", trials=64, seed=23)
    assert (verdict.invariant, verdict.trials_run, verdict.witness.index) == (False, 2, 4)
    assignment = verdict.witness.assignment
    assert assignment == drawn and all(type(x) is Octonion for x in assignment.values())
    assert len(built) == 3 + 3 + 1  # trial 1's, the witness assignment and its distance


@pytest.mark.parametrize("text", ["1e308*a*a", "1e308*1e308*a"])
def test_float_overflow_raises_in_both_paths(text):
    # the public one-rule evaluator overflows in float arithmetic; the
    # verdict reads 1e308 as the integer it is and holds on every trial
    tree = parse(text)
    env = random_assignment(["a"], random.Random(0))
    with pytest.raises(ValueError):
        function_family(tree, env)
    fam = function_family(exact_tree(tree), env)
    assert all(f == fam[0] for f in fam)
    verdict = is_invariant(tree, seed=0)
    assert (verdict.invariant, verdict.trials_run, verdict.witness) == (True, 64, None)


@pytest.mark.parametrize("text, invariant, trials_run", [
    ("0.1*a*b + 0.1*b*a", True, 64), ("(0.1*a)*(0.1*a)", True, 64), ("1e308*a*a", True, 64),
    ("0.1*a*b", False, 1),
])
def test_float_literals_are_read_as_exact_rationals(text, invariant, trials_run):
    # in float arithmetic 0.1*(a*b) + 0.1*(b*a) rounds per rule and came out
    # rule-dependent, and (0.1*a)*(0.1*a) too
    verdict = is_invariant(text)
    assert (verdict.invariant, verdict.trials_run) == (invariant, trials_run)
    if not invariant:
        assert verdict.witness.distance == sieve(function_family(exact_tree(parse(text)),
                                                                 verdict.witness.assignment))[verdict.witness.index]


def test_trees_at_the_depth_limit_run_through_the_all_rules_pass():
    env = random_assignment(["a", "b"], random.Random(17))
    power = "*".join(["a"] * MAX_DEPTH)  # one variable: the same under every rule
    nested = "a*(" * (MAX_DEPTH - 1) + "b" + ")" * (MAX_DEPTH - 1)
    for text, invariant in ((power, True), (nested, False)):
        tree = parse(text)
        fam = function_family(tree, env)
        assert list(_per_rule(all_rules(tree, env))) == [f.coeffs for f in fam]
        assert is_invariant(tree, trials=2, seed=3).invariant is invariant
