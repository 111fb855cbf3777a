"""Property tests (Hypothesis): the compiled all-rules pass against the
one-rule reference on random trees, on ints and read exactly from
rationals and floats, and each of its rules as rule 0 in a sign-flipped
basis; the sieve on rational families; the shared product
against the kernel; both encodings of the derivation D against its literal
formula; and the parser's one error type on arbitrary text and its round
trip through to_text."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from test_algebra import phi, rational, typed  # noqa: E402
from test_derivations import literal_derive  # noqa: E402
from test_dsl import _random_tree  # noqa: E402
from test_sieve import exact_env, exact_tree, walsh_sums  # noqa: E402

from octsieve.algebra import _SIGNS, Octonion, _mul, _mul_all  # noqa: E402
from octsieve.derivations import _derive_all, derive  # noqa: E402
from octsieve.dsl import Add, Conj, Const, ExprSyntaxError, Mul, Neg, Sub, Var, _program, parse, to_text  # noqa: E402
from octsieve.sieve import (  # noqa: E402
    _all_rules,
    _evaluator,
    _per_rule,
    _trials,
    function_family,
    sieve,
    sign_entry,
    unsieve,
)

def trees(leaves):
    return st.recursive(
        st.one_of(st.sampled_from("abc").map(Var), leaves.map(Const)),
        lambda sub: st.one_of(st.builds(Add, sub, sub), st.builds(Sub, sub, sub), st.builds(Mul, sub, sub),
                              st.builds(Neg, sub), st.builds(Conj, sub)),
        max_leaves=12,
    )


def envs(coeffs):
    return st.fixed_dictionaries({name: st.lists(coeffs, min_size=8, max_size=8).map(Octonion) for name in "abc"})


def with_a_product(trees):
    """``trees`` or t*(a*b) + u of two of them: most random trees are the same
    under every rule, t*(a*b) + u seldom is, so it reaches the per-rule values."""
    return trees | st.builds(lambda t, u: Add(Mul(t, Mul(Var("a"), Var("b"))), u), trees, trees)


INT_LEAVES = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
TREES = trees(INT_LEAVES)
COEFFS = st.one_of(st.integers(-9, 9), st.integers(-(2**64), 2**64))
ENVS = envs(COEFFS)
# st.fractions draws about ten times slower
FRACTIONS = st.builds(Fraction, st.integers(-(2**40), 2**40), st.integers(1, 2**20))
FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(with_a_product(TREES), ENVS)
def test_program_family_is_function_family_on_int_leaves(tree, env):
    value = _all_rules(_program(tree)[0], {name: x.coeffs for name, x in env.items()})
    fam = function_family(tree, env)
    assert [typed(v) for v in _per_rule(value)] == [typed(f.coeffs) for f in fam]
    # one tuple exactly when the value is the same under every rule
    assert (type(value) is tuple) is all(f == fam[0] for f in fam)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(with_a_product(TREES), ENVS)
def test_each_rule_is_rule_0_in_the_basis_phi_n(tree, env):
    # f_n(x) = phi_n f_0(phi_n x): rule n is rule 0 in the basis phi_n
    steps = _program(tree)[0]
    family = _per_rule(_all_rules(steps, {name: x.coeffs for name, x in env.items()}))
    for n in range(16):
        flipped = {name: phi(n, x.coeffs) for name, x in env.items()}
        assert family[n] == phi(n, _per_rule(_all_rules(steps, flipped))[0])


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(trees(st.one_of(INT_LEAVES, FRACTIONS, FLOATS)), envs(st.one_of(COEFFS, FRACTIONS, FLOATS)))
def test_program_family_is_function_family_read_exactly(tree, env):
    # the oracle reads each float literal and coefficient as the rational it is
    value = _evaluator(tree)[1](env)
    fam = function_family(exact_tree(tree), exact_env(env))
    assert [rational(v) for v in _per_rule(value)] == [rational(f.coeffs) for f in fam]
    assert (type(value) is tuple) is all(f == fam[0] for f in fam)


INT_TREES = TREES | st.builds(_random_tree, st.randoms(use_true_random=False), st.integers(1, 4))
WITNESS_TREES = with_a_product(INT_TREES)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(WITNESS_TREES, ENVS)
def test_the_witness_is_the_first_nonzero_distance_exactly(tree, env):
    verdict = _trials(_evaluator(tree)[1], env, None, 1)[2]
    fam = function_family(tree, env)
    floats, sums = sieve(fam), walsh_sums(fam)
    k = next((k for k in range(1, 16) if not floats[k].is_zero()), None)
    assert verdict.invariant is (k is None)
    if k is not None:
        w = verdict.witness
        assert w.index == k
        # on ints every sum is a multiple of 16, so the exact quarter is an int
        assert [4 * c for c in w.distance] == sums[k] and all(type(c) is int for c in w.distance)
        # the float quarter is exact where the sum fits a float's 53 bits
        assert all(c == f for c, f, s in zip(w.distance, floats[k], sums[k]) if abs(s) <= 2**53)


FAMILIES = st.lists(st.lists(FRACTIONS, min_size=8, max_size=8).map(Octonion), min_size=16, max_size=16)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(FAMILIES, st.integers(0, 15))
def test_sieve_is_an_exact_involution_and_xor_equivariant_on_fractions(fam, m):
    distances = sieve(fam)
    assert unsieve(distances) == tuple(fam)
    assert not any(type(c) is float for g in distances for c in g)
    shifted = sieve([fam[j ^ m] for j in range(16)])
    assert all(shifted[k] == sign_entry(m, k) * distances[k] for k in range(16))


INTS = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**70), 2**70))
IMAGS = st.lists(INTS, min_size=7, max_size=7)


@st.composite
def product_pairs(draw):
    """Two 8-tuples whose imaginary parts are mostly parallel (s*v and t*v),
    sometimes off parallel in one coordinate, sometimes independent."""
    v = draw(IMAGS)
    s, t = draw(INTS), draw(INTS)
    a, b = [s * c for c in v], [t * c for c in v]
    kind = draw(st.sampled_from(("parallel", "parallel", "nudged", "free")))
    if kind == "nudged":
        b[draw(st.integers(0, 6))] += draw(st.sampled_from((-1, 1)))
    elif kind == "free":
        b = draw(IMAGS)
    return (draw(INTS), *a), (draw(INTS), *b)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(product_pairs())
def test_mul_all_collapses_iff_the_kernel_products_are_equal(pair):
    a, b = pair
    kernel = [_mul(a, b, s) for s in _SIGNS]
    value = _mul_all(a, b)
    assert (type(value) is tuple) is all(k == kernel[0] for k in kernel)
    assert [typed(v) for v in _per_rule(value)] == [typed(k) for k in kernel]


# int octonions, or ones of small fractions: an example takes ~4 ms on
# ints and ~0.1 s on fractions, whose every operation takes a gcd
EXACT_OCTONIONS = st.lists(INTS, min_size=8, max_size=8).map(Octonion) | st.lists(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)), min_size=8, max_size=8).map(Octonion)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(EXACT_OCTONIONS, EXACT_OCTONIONS, EXACT_OCTONIONS)
def test_derive_all_is_derive_is_the_literal_formula(u, v, x):
    # the all-rules expression and the one-rule kernel are two encodings of D
    outputs = _derive_all(u, v, x.coeffs)
    for n, s in enumerate(_SIGNS):
        assert outputs[n] == derive(u, v, x, n).coeffs == literal_derive(u.coeffs, v.coeffs, x.coeffs, s)


GRAMMAR = "abc conj()+-*.0123456789eE\t"
TEXTS = st.one_of(
    st.text(),
    st.text(alphabet=GRAMMAR),
    st.builds(lambda n, body: "(" * n + body + ")" * n, st.integers(0, 300), st.text(alphabet=GRAMMAR)),
)


@hypothesis.settings(max_examples=500, deadline=None)
@hypothesis.given(TEXTS)
def test_parse_raises_only_expr_syntax_error(text):
    try:
        parse(text)
    except ExprSyntaxError:
        pass


# The literals the parser makes: ints, also past 2^64, and non-negative
# finite floats (a sign is a Neg node).
PARSED_TREES = trees(st.one_of(st.integers(0, 9), st.integers(2**64, 2**200), st.floats(min_value=0, allow_infinity=False)))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(PARSED_TREES)
def test_to_text_round_trips_parser_shaped_trees(tree):
    text = to_text(tree)
    # equal trees may still differ in a literal's type (1 == 1.0); the text does not
    assert parse(text) == tree and to_text(parse(text)) == text
