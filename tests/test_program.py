"""The compiled program behind free_vars and the sieve's all-rules pass."""

import random
import sys
from fractions import Fraction

import pytest
from test_dsl import _random_tree

from octsieve.algebra import _rational
from octsieve.dsl import Add, Conj, Const, Mul, Neg, Sub, Var, _program, free_vars, parse
from octsieve.sieve import is_invariant


def recursive_free_vars(expr):
    """The former free_vars: a recursive walk, kept as the oracle."""
    seen = {}

    def walk(node):
        if isinstance(node, Var):
            seen.setdefault(node.name)
        elif isinstance(node, (Add, Sub, Mul)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (Neg, Conj)):
            walk(node.operand)

    walk(expr)
    return list(seen)


def test_steps_are_post_order_with_the_root_last():
    steps, names = _program(parse("a*b - conj(c)"))
    assert steps == [(Var, "a", None), (Var, "b", None), (Mul, 0, 1), (Var, "c", None),
                     (Conj, 3, 3), (Sub, 2, 4)]
    assert names == ["a", "b", "c"]


def test_equal_subtrees_share_one_step():
    lhs = "(a*b + c)"
    steps, _ = _program(parse(f"({lhs}*conj({lhs}))*{lhs}"))
    # a, b, a*b, c, L, conj(L), L*conj(L), the root: L is compiled once
    assert len(steps) == 8
    assert [op for op, _, _ in steps].count(Add) == 1
    assert steps[-1] == (Mul, 6, 4)


def test_equal_rationals_share_one_step():
    steps, _ = _program(Add(Add(Const(1), Const(1.0)), Const(Fraction(1))))
    assert steps == [(Const, 1, None), (Add, 0, 0), (Add, 1, 0)]
    assert all(type(x) is int for op, x, _ in steps if op is Const)
    steps, _ = _program(Add(Const(0.5), Const(1)))
    assert steps == [(Const, Fraction(1, 2), None), (Const, 1, None), (Add, 0, 1)]


def test_free_vars_matches_the_recursive_walk():
    rng = random.Random(40)
    trees = [parse(text) for text in ("3", "a", "conj(x)*y + x", "b*(a*b) - c*a", "-(z*y)*x")]
    trees += [_random_tree(rng, rng.randint(0, 5)) for _ in range(500)]
    for tree in trees:
        assert free_vars(tree) == recursive_free_vars(tree)


def recursive_program(expr):
    """_program as a recursive walk that compiles every occurrence: the oracle."""
    slots, names = {}, {}

    def walk(node):
        kind = type(node)
        if kind is Var:
            names.setdefault(node.name)
            step = (Var, node.name, None)
        elif kind is Const:
            step = (Const, _rational(node.value), None)
        elif kind in (Add, Sub, Mul):
            step = (kind, walk(node.left), walk(node.right))
        else:
            x = walk(node.operand)
            step = (kind, x, x)
        return slots.setdefault(step, len(slots))

    walk(expr)
    return list(slots), list(names)


def random_dag(rng, size):
    """A hand-built expression whose operands are drawn from the nodes built so far."""
    nodes = [Var("a"), Var("b"), Const(2), Const(0.5)]
    for _ in range(size):
        kind = rng.choice((Add, Sub, Mul, Neg, Conj))
        operands = [rng.choice(nodes[-6:]) for _ in range(1 if kind in (Neg, Conj) else 2)]
        nodes.append(kind(*operands))
    return nodes[-1]


def test_program_is_the_recursive_compile_on_trees_and_shared_nodes():
    rng = random.Random(41)
    for tree in [_random_tree(rng, rng.randint(0, 6)) for _ in range(300)] + [random_dag(rng, 14) for _ in range(300)]:
        assert _program(tree) == recursive_program(tree)


def test_a_shared_node_is_compiled_once():
    # walked as a tree, this chain would be 2^60 leaves
    tree = chain(60, lambda t: Mul(t, t), Var("a"))
    steps, names = _program(tree)
    assert len(steps) == 61 and steps[-1] == (Mul, 59, 59)
    assert names == free_vars(tree) == ["a"]


@pytest.mark.parametrize("leaf, invariant", [(Var("a"), True), (Mul(Var("a"), Var("b")), False)], ids=["a", "a*b"])
def test_shared_add_chains_are_decided(leaf, invariant):
    verdict = is_invariant(chain(40, lambda t: Add(t, t), leaf), trials=2, seed=5)
    assert verdict.invariant is invariant
    if not invariant:  # 2^40 (a*b) on the same draws: 2^40 times the witness of a*b
        w = is_invariant(leaf, trials=2, seed=5).witness
        assert (verdict.witness.index, verdict.witness.distance) == (w.index, 2**40 * w.distance)


def test_a_non_node_is_a_type_error():
    with pytest.raises(TypeError):
        _program(Add(Var("a"), "b"))


def chain(depth, link, leaf):
    tree = leaf
    for _ in range(depth):
        tree = link(tree)
    return tree


DEPTH = 5000
DEEP_TREES = {  # tree, its variables, invariant
    "add": (chain(DEPTH, lambda t: Add(t, Var("b")), Var("a")), ["a", "b"], True),
    "neg": (chain(DEPTH, Neg, Var("a")), ["a"], True),
    "conj": (chain(DEPTH, Conj, Var("a")), ["a"], True),
    "mul-by-a-real": (chain(DEPTH, lambda t: Mul(Const(-1), t), Var("a")), ["a"], True),
    "sum-over-a-product": (chain(DEPTH, lambda t: Add(t, Var("c")), Mul(Var("a"), Var("b"))),
                           ["a", "b", "c"], False),
}


@pytest.mark.parametrize("name", DEEP_TREES)
def test_trees_deeper_than_the_recursion_limit(name):
    tree, names, invariant = DEEP_TREES[name]
    assert DEPTH > sys.getrecursionlimit()
    assert free_vars(tree) == names
    verdict = is_invariant(tree, trials=2, seed=5)
    assert verdict.invariant is invariant
    assert (verdict.witness is None) is invariant
