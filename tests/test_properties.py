"""Property tests (Hypothesis): the compiled all-rules pass against the
one-rule reference on random trees, the shared product against the
kernel, and the parser's one error type on arbitrary text."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from test_algebra import typed  # noqa: E402

from octsieve.algebra import _SIGNS, Octonion, _mul, _mul_all  # noqa: E402
from octsieve.dsl import Add, Conj, Const, ExprSyntaxError, Mul, Neg, Sub, Var, _program, parse  # noqa: E402
from octsieve.sieve import _all_rules, _per_rule, function_family  # noqa: E402

LEAVES = st.one_of(st.sampled_from("abc").map(Var), st.integers(-3, 3).map(Const),
                   st.integers(-(2**70), 2**70).map(Const))
TREES = st.recursive(
    LEAVES,
    lambda sub: st.one_of(st.builds(Add, sub, sub), st.builds(Sub, sub, sub), st.builds(Mul, sub, sub),
                          st.builds(Neg, sub), st.builds(Conj, sub)),
    max_leaves=12,
)
COEFFS = st.one_of(st.integers(-9, 9), st.integers(-(2**64), 2**64))
OCTONIONS = st.lists(COEFFS, min_size=8, max_size=8).map(Octonion)
ENVS = st.fixed_dictionaries({name: OCTONIONS for name in "abc"})


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(TREES, ENVS)
def test_program_family_is_function_family_on_int_leaves(tree, env):
    value = _all_rules(_program(tree)[0], {name: x.coeffs for name, x in env.items()})
    fam = function_family(tree, env)
    assert [typed(v) for v in _per_rule(value)] == [typed(f.coeffs) for f in fam]
    # one tuple exactly when the value is the same under every rule
    assert (type(value) is tuple) is all(f == fam[0] for f in fam)


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
