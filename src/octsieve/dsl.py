"""A small polynomial expression language over octonion variables.

Grammar::

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := IDENT | NUMBER | '(' expr ')' | '-' factor | 'conj' '(' expr ')'

'*' associates to the left in the grammar and the parsed tree keeps that
grouping verbatim; since octonion multiplication is nonassociative,
"a*b*c" and "a*(b*c)" are different expressions.  Parenthesize whenever
the grouping matters.

Literals are real scalars only, read by :func:`_number` (as are the CLI's
coefficients): digits alone make an exact int of any size, up to Python's
int/str digit limit, and a fraction or an exponent makes a float, which
must not read as inf, nor as 0 unless it is zero.  :func:`_program` reads
every constant once, exactly, when it compiles: as the rational it is, so
1, 1.0 and Fraction(1) are one step.  Basis elements enter through
variable assignments, so the same expression can be evaluated under any of
the 16 multiplication rules.  'conj' is a reserved word.

Tree nodes are immutable ``__slots__`` classes (``algebra._Record``),
compared and hashed by value: two nodes are equal when they are of one
class with equal operands, so ``Add(a, b) != Sub(a, b)``.

:func:`_program` compiles a tree to a flat list of steps without recursion,
so :func:`free_vars` and the sieve's all-rules pass (behind every caller
that evaluates under all 16 rules) take trees of any depth.  It compiles a
node object once however often the tree reuses it, so a hand-built
``t = Mul(t, t)`` repeated n times is n + 1 steps in linear time.  The parser,
:func:`evaluate` (one rule at a time, in float arithmetic on floats; the
sieve's ``function_family`` calls it) and :func:`to_text` stay recursive;
for parsed input MAX_DEPTH covers them: expressions nest at most MAX_DEPTH
levels deep, in the tree and in parentheses, or are an ExprSyntaxError.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Mapping

from .algebra import Octonion, _check_algebra_id, _rational, _Record, conjugate, multiply

__all__ = [
    "Expr",
    "Var",
    "Const",
    "Add",
    "Sub",
    "Neg",
    "Mul",
    "Conj",
    "ExprSyntaxError",
    "UnboundVariableError",
    "MAX_DEPTH",
    "parse",
    "evaluate",
    "free_vars",
    "to_text",
]


class Var(_Record):
    """A variable, bound to an octonion when the tree is evaluated."""

    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Const(_Record):
    """A real literal: an int, a float or a rational."""

    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", value)


class _Binary(_Record):
    __slots__ = ()
    __match_args__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Add(_Binary):
    """left + right"""

    __slots__ = ("left", "right")


class Sub(_Binary):
    """left - right"""

    __slots__ = ("left", "right")


class Mul(_Binary):
    """left * right, under the rule the tree is evaluated in"""

    __slots__ = ("left", "right")


class _Unary(_Record):
    __slots__ = ()
    __match_args__ = ("operand",)

    def __init__(self, operand: Expr):
        object.__setattr__(self, "operand", operand)


class Neg(_Unary):
    """-operand"""

    __slots__ = ("operand",)


class Conj(_Unary):
    """conj(operand)"""

    __slots__ = ("operand",)


Expr = Var | Const | Add | Sub | Neg | Mul | Conj


class ExprSyntaxError(ValueError):
    """Malformed expression text; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnboundVariableError(ValueError):
    """Evaluation hit a variable with no assignment."""

    def __init__(self, name: str):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


# Every character that is not whitespace starts a token; one that starts
# no other token is "bad".
_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_]\w*)|(?P<op>[-+*()])|(?P<bad>\S)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


# The deepest expression accepted: the tree's height (the nodes on its
# longest root-to-leaf path) and the nesting of parentheses, 'conj(' and
# unary '-' both stay within it.  Parsing takes three frames per nesting
# level and each walk of the tree one per level, well inside the default
# limit of 1000 frames; the benchmark corpus nests 11 deep.
MAX_DEPTH = 200


class _Parser:
    """Recursive descent; each parse method returns a node and its height."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.nesting = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, op: str):
        kind, text, offset = self.next()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)

    @staticmethod
    def within(depth: int, offset: int) -> int:
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", offset)
        return depth

    def parse_expr(self) -> tuple[Expr, int]:
        node, height = self.parse_term()
        while True:
            kind, text, offset = self.peek()
            if kind != "op" or text not in "+-":
                return node, height
            self.next()
            right, right_height = self.parse_term()
            node = Add(node, right) if text == "+" else Sub(node, right)
            height = self.within(max(height, right_height) + 1, offset)

    def parse_term(self) -> tuple[Expr, int]:
        node, height = self.parse_factor()
        while True:
            kind, text, offset = self.peek()
            if kind != "op" or text != "*":
                return node, height
            self.next()
            right, right_height = self.parse_factor()
            node = Mul(node, right)
            height = self.within(max(height, right_height) + 1, offset)

    def parse_factor(self) -> tuple[Expr, int]:
        kind, text, offset = self.next()
        if kind == "num":
            try:
                return Const(_number(text)), 1
            except OverflowError as exc:
                raise ExprSyntaxError(str(exc), offset) from None
        if kind == "ident" and text != "conj":
            return Var(text), 1
        if kind == "end" or (kind == "op" and text not in "-("):
            raise ExprSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input", offset)
        self.nesting = self.within(self.nesting + 1, offset)
        if text == "-":
            node, height = self.parse_factor()
            node, height = Neg(node), self.within(height + 1, offset)
        elif text == "conj":
            self.expect_op("(")
            node, height = self.parse_expr()
            node, height = Conj(node), self.within(height + 1, offset)
            self.expect_op(")")
        else:
            node, height = self.parse_expr()
            self.expect_op(")")
        self.nesting -= 1
        return node, height


def _number(text: str) -> int | float:
    """An exact int when ``int()`` reads ``text``, else ``float()``'s finite
    reading; text that neither reads, NaN and infinity spelled out (``inf``,
    ``-Infinity``) raise ``ValueError``.  An ``OverflowError`` rejects an int
    past Python's int/str digit limit and a float literal read as inf, or as
    0 though a digit before its exponent is nonzero: either would stand for
    another number, and change a verdict."""
    try:
        return int(text)
    except ValueError:
        digits, limit = text.strip().lstrip("+-"), sys.get_int_max_str_digits()
        if digits.isdecimal() and 0 < limit < len(digits):
            raise OverflowError(f"integer literal of {len(digits)} digits exceeds Python's limit of "
                                f"{limit} digits for int/str conversion") from None
    value = float(text)
    if math.isnan(value) or text.strip().lstrip("+-").lower() in ("inf", "infinity"):
        raise ValueError(f"not a number: {text!r}")
    if math.isinf(value):
        raise OverflowError(f"float literal exceeds the largest float, {sys.float_info.max:.4g}")
    if value == 0 and any(c.isdecimal() and int(c) for c in text.lower().partition("e")[0]):
        raise OverflowError(f"nonzero float literal is below the smallest float, {math.ulp(0.0):.4g}")
    return value


def parse(text: str) -> Expr:
    """Parse expression text; raises ExprSyntaxError with a byte offset."""
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(text)
    node, _ = parser.parse_expr()
    kind, trailing, offset = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected {trailing!r}", offset)
    return node


def evaluate(expr: Expr, env: Mapping[str, Octonion], n: int) -> Octonion:
    """Evaluate under rule n; every Mul node multiplies with that rule."""
    if isinstance(expr, Var):  # n is checked at the leaves: every walk reaches one
        _check_algebra_id(n)
        try:
            return env[expr.name]
        except KeyError:
            raise UnboundVariableError(expr.name) from None
    if isinstance(expr, Const):
        _check_algebra_id(n)
        return Octonion.real(expr.value)
    if isinstance(expr, Add):
        return evaluate(expr.left, env, n) + evaluate(expr.right, env, n)
    if isinstance(expr, Sub):
        return evaluate(expr.left, env, n) - evaluate(expr.right, env, n)
    if isinstance(expr, Neg):
        return -evaluate(expr.operand, env, n)
    if isinstance(expr, Mul):
        return multiply(evaluate(expr.left, env, n), evaluate(expr.right, env, n), n)
    if isinstance(expr, Conj):
        return conjugate(evaluate(expr.operand, env, n))
    raise TypeError(f"not an expression node: {expr!r}")


def _program(expr: Expr) -> tuple[list[tuple], list[str]]:
    """Compile ``expr`` to a post-order list of steps, the root last, and
    its variable names in first-occurrence order.  A step is ``(Var, name,
    None)``, ``(Const, value, None)``, ``(Neg|Conj, i, i)`` or
    ``(Add|Sub|Mul, i, j)``, i and j being slots of earlier steps.  A
    constant is checked as an ``Octonion`` coefficient is, and raises as
    there, then read exactly (``algebra._rational``): its value is an int
    or a ``Fraction``.  A step is its own key: equal subtrees share one, so
    do equal constants such as 1 and 1.0, and a node object that the tree
    reuses is compiled once."""
    slots, names, done = {}, {}, {}  # step -> slot; id(node) -> its slot
    stack = [expr]
    while stack:  # a node stays on the stack until its operands are done
        node = stack[-1]
        kind = type(node)
        if kind is Add or kind is Sub or kind is Mul:
            x, y = done.get(id(node.left)), done.get(id(node.right))
            if x is None or y is None:
                if y is None:
                    stack.append(node.right)
                if x is None:
                    stack.append(node.left)  # on top: left operands first
                continue
            step = (kind, x, y)
        elif kind is Neg or kind is Conj:
            x = done.get(id(node.operand))
            if x is None:
                stack.append(node.operand)
                continue
            step = (kind, x, x)
        elif kind is Var:
            names.setdefault(node.name)
            step = (Var, node.name, None)
        elif kind is Const:
            step = (Const, _rational(Octonion.real(node.value)[0]), None)
        else:
            raise TypeError(f"not an expression node: {node!r}")
        stack.pop()
        done[id(node)] = slots.setdefault(step, len(slots))
    return list(slots), list(names)


def free_vars(expr: Expr) -> list[str]:
    """Variable names in first-occurrence order."""
    return _program(expr)[1]


# Print precedence: sums bind loosest, factors tightest.
_SUM, _TERM, _FACTOR = 0, 1, 2


def to_text(expr: Expr) -> str:
    """Canonical text form; reparsing it yields an identical tree."""

    def render(node: Expr, min_level: int) -> str:
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Const):
            return repr(node.value)
        if isinstance(node, Conj):
            return f"conj({render(node.operand, _SUM)})"
        if isinstance(node, Neg):
            return f"-{render(node.operand, _FACTOR)}"
        if isinstance(node, (Add, Sub)):
            op = "+" if isinstance(node, Add) else "-"
            # left-associative: the right operand must bind tighter
            text = f"{render(node.left, _SUM)} {op} {render(node.right, _TERM)}"
            level = _SUM
        else:  # Mul
            text = f"{render(node.left, _TERM)}*{render(node.right, _FACTOR)}"
            level = _TERM
        return f"({text})" if level < min_level else text

    return render(expr, _SUM)
