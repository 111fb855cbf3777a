"""A small polynomial expression language over octonion variables.

Grammar; ``_BINARY`` states each binary operator's symbol and level once::

    expr   := term (('+'|'-') term)*        level 0
    term   := factor ('*' factor)*          level 1
    factor := IDENT | NUMBER | '(' expr ')' | '-' factor | 'conj' '(' expr ')'
    NUMBER := digits ('.' digits)? ([eE] [+-]? digits)?    digits := [0-9]+
    IDENT  := [A-Za-z_] [A-Za-z0-9_]*

Every binary operator associates to the left and the parsed tree keeps
that grouping verbatim; since octonion multiplication is nonassociative,
"a*b*c" and "a*(b*c)" are different expressions.  Parenthesize whenever
the grouping matters.

Literals are real scalars only, spelled as NUMBER (``_NUMBER``), the one
pattern the tokenizer, :func:`_number` (the CLI's coefficients too, with a
sign) and :func:`to_text` read: digits alone make an exact int of any size,
up to Python's int/str digit limit, and a fraction or an exponent makes a
float, which must not read as inf, nor as 0 unless it is zero.
:func:`_program` reads every constant once, exactly, when it compiles: as
the rational it is, so 1, 1.0 and Fraction(1) are one step.  Basis
elements enter through variable assignments, so the same expression can
be evaluated under any of the 16 multiplication rules.  'conj' is a
reserved word.

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

# Each binary operator once: its symbol as to_text prints it and its
# level, a higher level binding tighter; all group to the left.
_BINARY = {Add: (" + ", 0), Sub: (" - ", 0), Mul: ("*", 1)}
_FACTOR = 1 + max(level for _, level in _BINARY.values())  # a factor binds tighter than all
# The parser's view of it: per level, each symbol's node class.
_LEVELS = [{s.strip(): kind for kind, (s, at) in _BINARY.items() if at == level} for level in range(_FACTOR)]


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


# The number literal, stated once: the tokenizer's "num", what _number
# reads (with a sign and surrounding whitespace) and what to_text prints.
_NUMBER = r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_NUMBER_RE, _SIGNED_NUMBER_RE = re.compile(_NUMBER), re.compile(rf"\s*[+-]?{_NUMBER}\s*")
# Every character that is not whitespace starts a token; one that starts
# no other token is "bad".
_TOKEN_RE = re.compile(rf"(?P<num>{_NUMBER})|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*()])|(?P<bad>\S)")


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
        self.tokens = _tokenize(text)
        self.index = 0
        self.nesting = 0

    def expect_op(self, op: str):
        _, text, offset = self.tokens[self.index]  # only an op token's text is an operator
        self.index += 1
        if text != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)

    @staticmethod
    def within(depth: int, offset: int) -> int:
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", offset)
        return depth

    def parse_binary(self, level: int = 0) -> tuple[Expr, int]:
        """Operands joined by the operators of ``level``, grouped to the
        left; an operand is the next level's, a factor past the last."""
        kinds, tighter = _LEVELS[level], level + 1
        node, height = self.parse_binary(tighter) if tighter < _FACTOR else self.parse_factor()
        while True:
            _, text, offset = self.tokens[self.index]
            kind = kinds.get(text)
            if kind is None:
                return node, height
            self.index += 1
            right, right_height = self.parse_binary(tighter) if tighter < _FACTOR else self.parse_factor()
            node = kind(node, right)
            height = self.within(max(height, right_height) + 1, offset)

    def parse_factor(self) -> tuple[Expr, int]:
        kind, text, offset = self.tokens[self.index]
        self.index += 1
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
            node, height = self.parse_binary()
            node, height = Conj(node), self.within(height + 1, offset)
            self.expect_op(")")
        else:
            node, height = self.parse_binary()
            self.expect_op(")")
        self.nesting -= 1
        return node, height


def _number(text: str) -> int | float:
    """``text``, a NUMBER with one optional sign and surrounding whitespace,
    read as an exact int when it is digits alone, else as a finite float;
    other text (``inf``, ``.5``, ``1_0``) raises ``ValueError``.  An
    ``OverflowError`` rejects an int past Python's int/str digit limit and a
    float read as inf, or as 0 though a digit before its exponent is
    nonzero: either would stand for another number, and change a verdict."""
    if not (text.isascii() and text.isdecimal() or _SIGNED_NUMBER_RE.fullmatch(text)):  # digits alone: a NUMBER
        raise ValueError(f"not a number: {text!r}")
    literal = text.strip().lstrip("+-")  # the pattern allows one sign
    if literal.isdecimal():
        try:
            return int(text)
        except ValueError:
            raise OverflowError(f"integer literal of {len(literal)} digits exceeds Python's limit of "
                                f"{sys.get_int_max_str_digits()} digits for int/str conversion") from None
    value = float(text)
    if math.isinf(value):
        raise OverflowError(f"float literal exceeds the largest float, {sys.float_info.max:.4g}")
    if value == 0 and any(c.isdecimal() and int(c) for c in literal.lower().partition("e")[0]):
        raise OverflowError(f"nonzero float literal is below the smallest float, {math.ulp(0.0):.4g}")
    return value


def parse(text: str) -> Expr:
    """Parse expression text; raises ExprSyntaxError with a byte offset."""
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(text)
    node, _ = parser.parse_binary()
    kind, trailing, offset = parser.tokens[parser.index]
    if kind != "end":
        raise ExprSyntaxError(f"unexpected {trailing!r}", offset)
    return node


def evaluate(expr: Expr, env: Mapping[str, Octonion], n: int) -> Octonion:
    """Evaluate under rule n; every Mul node multiplies with that rule.
    Nodes are dispatched on their exact class, as in :func:`_program`, so
    what is not one of the node classes, a subclass included, is a
    TypeError."""
    kind = type(expr)
    if kind is Mul:  # most nodes of a product tree
        return multiply(evaluate(expr.left, env, n), evaluate(expr.right, env, n), n)
    if kind is Var:  # n is checked at the leaves: every walk reaches one
        _check_algebra_id(n)
        try:
            return env[expr.name]
        except KeyError:
            raise UnboundVariableError(expr.name) from None
    if kind is Const:
        _check_algebra_id(n)
        return Octonion.real(expr.value)
    if kind is Add:
        return evaluate(expr.left, env, n) + evaluate(expr.right, env, n)
    if kind is Sub:
        return evaluate(expr.left, env, n) - evaluate(expr.right, env, n)
    if kind is Neg:
        return -evaluate(expr.operand, env, n)
    if kind is Conj:
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
        if kind in _BINARY:
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


def to_text(expr: Expr) -> str:
    """Canonical text form; reparsing it yields an identical tree.  A Const
    whose repr is no NUMBER (-1, Fraction(1, 2), nan, True) raises
    ValueError, and what is not a node TypeError."""

    def render(node: Expr, min_level: int) -> str:
        kind = type(node)
        if kind is Var:
            return node.name
        if kind in _BINARY:
            symbol, level = _BINARY[kind]
            # grouped to the left: the right operand must bind tighter
            text = f"{render(node.left, level)}{symbol}{render(node.right, level + 1)}"
            return f"({text})" if level < min_level else text
        if kind is Const:
            text = repr(node.value)
            if _NUMBER_RE.fullmatch(text) is None:
                raise ValueError(f"constant {text} has no literal form")
            return text
        if kind is Neg:
            return f"-{render(node.operand, _FACTOR)}"
        if kind is Conj:
            return f"conj({render(node.operand, 0)})"
        raise TypeError(f"not an expression node: {node!r}")

    return render(expr, 0)
