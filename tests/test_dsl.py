"""Parser, printer, and evaluator of the expression language."""

import random
import sys
from fractions import Fraction

import pytest

from octsieve.algebra import Octonion, multiply, norm
from octsieve.dsl import (
    MAX_DEPTH,
    Add,
    Conj,
    Const,
    ExprSyntaxError,
    Mul,
    Neg,
    Sub,
    UnboundVariableError,
    Var,
    _number,
    evaluate,
    free_vars,
    parse,
    to_text,
)
from octsieve.sieve import _evaluator, function_family, is_invariant


def unit(k):
    return Octonion.unit(k)


def test_parse_sum_of_products():
    assert parse("a*b + b*a") == Add(Mul(Var("a"), Var("b")), Mul(Var("b"), Var("a")))


def test_star_is_left_associative():
    assert parse("a*b*c") == Mul(Mul(Var("a"), Var("b")), Var("c"))
    assert parse("a*b*c") != parse("a*(b*c)")
    assert parse("a*(b*c)") == Mul(Var("a"), Mul(Var("b"), Var("c")))


def test_parse_conj_and_neg():
    assert parse("conj(a)*a") == Mul(Conj(Var("a")), Var("a"))
    assert parse("-a*b") == Mul(Neg(Var("a")), Var("b"))
    assert parse("-(a*b)") == Neg(Mul(Var("a"), Var("b")))
    assert parse("a - -b") == Sub(Var("a"), Neg(Var("b")))


def test_parse_numbers():
    assert parse("3") == Const(3)
    assert parse("2.5") == Const(2.5)
    assert parse("2*a") == Mul(Const(2), Var("a"))


def test_integer_literals_are_exact_at_any_size():
    for value in (2**53 + 1, 10**400, 10**400 + 1):
        assert parse(f"{value}*a") == Mul(Const(value), Var("a"))
        assert type(parse(str(value)).value) is int
    # a fraction or an exponent still makes a float
    assert parse("1e3") == Const(1000.0) and type(parse("1e3").value) is float
    assert type(parse("2.0").value) is float


def test_literal_past_the_int_digit_limit_is_a_syntax_error():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int/str conversion has no digit limit in this interpreter")
    with pytest.raises(ExprSyntaxError) as err:
        parse("a + " + "7" * (limit + 1) + "*b")
    assert err.value.offset == 4
    assert f"{limit + 1} digits" in str(err.value) and f"limit of {limit} digits" in str(err.value)


@pytest.mark.parametrize("literal", ["1e400", "2.5e308", "1" + "0" * 400 + ".5"])
def test_a_float_literal_past_the_float_range_is_a_syntax_error(literal):
    # read as float it is inf, and to_text's 'inf' would reparse as a variable
    with pytest.raises(ExprSyntaxError) as err:
        parse(f"a + {literal}*b")
    assert err.value.offset == 4
    assert str(err.value) == f"float literal exceeds the largest float, {sys.float_info.max:.4g} (at offset 4)"
    # read as float, 1e-400 is 0.0: a nonzero literal read as 0 flips a verdict
    with pytest.raises(ExprSyntaxError) as err:
        parse("a + 1e-400*b")
    assert str(err.value) == "nonzero float literal is below the smallest float, 4.941e-324 (at offset 4)"
    with pytest.raises(ExprSyntaxError):
        is_invariant("1e-400*(a*b)")  # was invariant: 0*(a*b) is the same under every rule


@pytest.mark.parametrize("text", ["nan", "-NaN", "inf", "-inf", "+inf", "Infinity", " -infinity ", "INF",
                                  ".5", "5.", "1_0", "5.e3"])
def test_nan_or_infinity_spelled_out_is_not_a_number(text):
    # nor is other text that int() or float() reads but NUMBER does not
    with pytest.raises(ValueError, match="^not a number: ") as err:
        _number(text)
    assert not isinstance(err.value, OverflowError)
    word = text.strip().lstrip("+-")
    if word.isalpha():
        assert parse(f"{word}*a") == Mul(Var(word), Var("a"))  # a name
    else:
        with pytest.raises(ExprSyntaxError):
            parse(f"{word}*a")


@pytest.mark.parametrize("literal", ["0e-400", "0.0", "00.000e-999", "1e-320", "5e-324"])
def test_a_zero_or_subnormal_float_literal_is_read_as_its_float(literal):
    value = float(literal)
    assert parse(f"{literal}*a") == Mul(Const(value), Var("a"))
    _, values = _evaluator(parse(f"{literal}*a"))
    assert values({"a": Octonion.one()}) == (Fraction(value), 0, 0, 0, 0, 0, 0, 0)


DEEP = {
    "2000-deep-parens": "(" * 2000 + "a" + ")" * 2000,
    "1500-factors": "*".join(["a"] * 1500),
    "1500-terms": " + ".join(["a"] * 1500),
    "2000-minus": "-" * 2000 + "a",
    "limit+1-factors": "*".join(["a"] * (MAX_DEPTH + 1)),
    "limit+1-parens": "(" * (MAX_DEPTH + 1) + "a" + ")" * (MAX_DEPTH + 1),
}


@pytest.mark.parametrize("text", DEEP.values(), ids=DEEP.keys())
def test_nesting_past_the_limit_is_a_syntax_error(text):
    with pytest.raises(ExprSyntaxError, match=f"nested deeper than {MAX_DEPTH} levels"):
        parse(text)


def test_nesting_at_the_limit_parses_and_evaluates():
    assert parse("(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH) == Var("a")
    env = {"a": Octonion((1, 1, 0, 0, 0, 0, 0, 0))}
    power = env["a"]
    for _ in range(MAX_DEPTH - 1):
        power = multiply(power, env["a"], 0)
    # MAX_DEPTH factors of 1 + i1, grouped to the left and to the right:
    # trees of height MAX_DEPTH, the second nested in MAX_DEPTH - 1 parentheses
    for text in ("*".join(["a"] * MAX_DEPTH), "a*(" * (MAX_DEPTH - 1) + "a" + ")" * (MAX_DEPTH - 1)):
        tree = parse(text)
        assert parse(to_text(tree)) == tree
        assert free_vars(tree) == ["a"]
        for n in (0, 9):
            assert evaluate(tree, env, n) == power


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse("")
    assert err.value.offset == 0
    with pytest.raises(ExprSyntaxError) as err:
        parse("a + ")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError) as err:
        parse("a $ b")
    assert err.value.offset == 2
    with pytest.raises(ExprSyntaxError):
        parse("(a*b")
    with pytest.raises(ExprSyntaxError):
        parse("a b")
    with pytest.raises(ExprSyntaxError):
        parse("conj a")


@pytest.mark.parametrize("text, message, offset", [
    ("a $ b", "unexpected character '$'", 2),
    ("1.2.3*a", "unexpected character '.'", 3),
    ("  \u00e9", "unexpected character '\u00e9'", 2),
    ("\u0663*a", "unexpected character '\u0663'", 0),  # ARABIC-INDIC DIGIT THREE: NUMBER's digits are ASCII
    # IDENT is ASCII too, after its first character as well
    ("a\u00e9", "unexpected character '\u00e9'", 1),
    ("a\u0663", "unexpected character '\u0663'", 1),
    ("a\t#", "unexpected character '#'", 2),
    ("a +  \n", "unexpected end of input", 6),  # trailing whitespace: the end is the text's length
])
def test_a_bad_character_or_end_is_named_at_its_offset(text, message, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert (str(err.value), err.value.offset) == (f"{message} (at offset {offset})", offset)


def test_free_vars_first_occurrence_order():
    assert free_vars(parse("a*b + b*a")) == ["a", "b"]
    assert free_vars(parse("3")) == []
    assert free_vars(parse("conj(x)*y + x")) == ["x", "y"]


def test_evaluate_uses_the_selected_rule():
    env = {"a": unit(1), "b": unit(2)}
    assert evaluate(parse("a*b"), env, 0) == unit(3)
    assert evaluate(parse("a*b"), env, 4) == -unit(3)


def test_evaluate_without_multiplication_is_rule_independent():
    rng = random.Random(5)
    env = {
        "a": Octonion(rng.randint(-9, 9) for _ in range(8)),
        "b": Octonion(rng.randint(-9, 9) for _ in range(8)),
    }
    values = [evaluate(parse("a+b"), env, n) for n in range(16)]
    assert all(v == values[0] for v in values)


def test_evaluate_const_scaling_and_conj():
    a = Octonion((1, -2, 3, 0, 0, 5, 0, 0))
    assert evaluate(parse("2*a"), {"a": a}, 0) == 2 * a
    assert evaluate(parse("conj(a)"), {"a": a}, 0) == Octonion((1, 2, -3, 0, 0, -5, 0, 0))
    assert evaluate(parse("3"), {}, 11) == Octonion.real(3)


def test_unbound_variable_reports_name():
    with pytest.raises(UnboundVariableError) as err:
        evaluate(parse("a*b"), {"a": unit(1)}, 0)
    assert err.value.name == "b"


def test_nonassociativity_is_observable_in_every_rule():
    env = {
        "a": Octonion((0, 3, 1, 3, 3, 0, 0, 1)),
        "b": Octonion((3, 1, -2, -2, 3, 1, 0, 2)),
        "c": Octonion((1, 3, -2, -3, 0, -1, -2, -3)),
    }
    left = parse("(a*b)*c")
    right = parse("a*(b*c)")
    for n in range(16):
        gap = evaluate(left, env, n) - evaluate(right, env, n)
        assert norm(gap) > 0


def test_to_text_round_trips_fixed_forms():
    for text in ("a*b + b*a", "a*b*c", "a*(b*c)", "conj(a)*a", "-(a + b)*c", "a - (b - c)", "2*a - 3"):
        tree = parse(text)
        assert parse(to_text(tree)) == tree


A, B, C = Var("a"), Var("b"), Var("c")


@pytest.mark.parametrize("text, tree", [
    ("a + b + c", Add(Add(A, B), C)),
    ("a + (b + c)", Add(A, Add(B, C))),
    ("a - b - c", Sub(Sub(A, B), C)),
    ("a - (b - c)", Sub(A, Sub(B, C))),
    ("a - b + c", Add(Sub(A, B), C)),
    ("a - (b + c)", Sub(A, Add(B, C))),
    ("a*b*c", Mul(Mul(A, B), C)),
    ("a*(b*c)", Mul(A, Mul(B, C))),
    ("a + b*c", Add(A, Mul(B, C))),
    ("(a + b)*c", Mul(Add(A, B), C)),
    ("a*b - c", Sub(Mul(A, B), C)),
    ("a*(b - c)", Mul(A, Sub(B, C))),
])
def test_each_operator_parses_and_prints_as_its_class_grouped_to_the_left(text, tree):
    assert parse(text) == tree and to_text(tree) == text


@pytest.mark.parametrize("value", [Fraction(1, 2), float("nan"), float("inf"), True, -1, -0.0])
def test_to_text_refuses_a_constant_that_no_literal_reads_as(value):
    # 'a*Fraction(1, 2)' does not parse; 'nan', 'inf' and 'True' reparse as
    # names, '-1' as Neg(Const(1))
    with pytest.raises(ValueError, match="has no literal form"):
        to_text(Mul(Var("a"), Const(value)))


def test_to_text_on_a_non_node_is_a_type_error_as_in_program():
    with pytest.raises(TypeError, match="^not an expression node: 5$"):
        to_text(Mul(Var("a"), 5))
    with pytest.raises(TypeError, match="^not an expression node: 5$"):
        free_vars(Mul(Var("a"), 5))


class V(Var):
    """A subclass of a node class, which is no node class."""


def test_a_node_subclass_is_a_type_error_on_every_route():
    # every walk dispatches on the exact node class: a subclass of Var is
    # not read as a variable by one route and refused by another
    tree = Mul(V("a"), Var("b"))
    env = {"a": unit(1), "b": unit(2)}
    routes = [lambda: evaluate(tree, env, 0), lambda: function_family(tree, env), lambda: free_vars(tree),
              lambda: is_invariant(tree), lambda: to_text(tree)]
    for route in routes:
        with pytest.raises(TypeError, match=r"^not an expression node: V\(name='a'\)$"):
            route()


def _random_tree(rng, depth):
    if depth == 0:
        return rng.choice([Var(rng.choice("abc")), Const(rng.randint(0, 9))])
    kind = rng.randrange(6)
    if kind == 0:
        return Add(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if kind == 1:
        return Sub(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if kind == 2:
        return Mul(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if kind == 3:
        return Neg(_random_tree(rng, depth - 1))
    if kind == 4:
        return Conj(_random_tree(rng, depth - 1))
    return rng.choice([Var(rng.choice("abc")), Const(rng.randint(0, 9))])


def test_to_text_round_trips_random_trees():
    rng = random.Random(6)
    for _ in range(300):
        tree = _random_tree(rng, rng.randint(1, 4))
        assert parse(to_text(tree)) == tree


def test_evaluation_agrees_with_direct_multiplication():
    rng = random.Random(7)
    for n in range(16):
        a = Octonion(rng.randint(-9, 9) for _ in range(8))
        b = Octonion(rng.randint(-9, 9) for _ in range(8))
        expected = multiply(a, b, n) + multiply(b, a, n)
        assert evaluate(parse("a*b + b*a"), {"a": a, "b": b}, n) == expected
