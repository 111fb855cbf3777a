"""Property tests (Hypothesis): the compiled all-rules pass against the
one-rule reference on random trees."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from test_algebra import typed  # noqa: E402

from octsieve.algebra import Octonion  # noqa: E402
from octsieve.dsl import Add, Conj, Const, Mul, Neg, Sub, Var, _program  # noqa: E402
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
