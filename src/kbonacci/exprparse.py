"""Recursive-descent parser for single-variable arithmetic expressions.

Grammar (x is the single variable; uint is a bare decimal integer):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' uint)?
    atom   := number | 'x' | '(' expr ')' | '-' atom

Numbers are decimal literals (decimal digits with an optional fractional
part, str.isdecimal, so no superscripts);
fractions such as 3/2 go through the division rule, which is equivalent
because '/' is left-associative, and constant folding in as_affine recovers
the exact rational. All literals are exact rationals, so evaluation at a
Fraction argument is exact; evaluation at a float argument is float.
evaluate walks the tree on every call and serves both; float_evaluator
compiles a tree once into closures for repeated float evaluation, with
the same results and errors. parse refuses a tree with more than 100
operators on a path from its root, or text with more than 100
parentheses and signs open at once (ExpressionSyntaxError), so that every
walker here recurses well inside the default recursion limit. It also
refuses a power of degree above 10 000, the product of the '^' exponents
on a path from the root, so that folding a constant stays fast. A number
literal with more digits than the interpreter's int-to-str limit allows is
refused at its offset too; the command line lifts that limit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .errors import DivisionByZeroError, ExpressionSyntaxError

__all__ = [
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Neg",
    "ExprNode",
    "parse",
    "evaluate",
    "float_evaluator",
    "as_affine",
    "unparse",
]


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Add:
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Sub:
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Mul:
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Div:
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Pow:
    base: "ExprNode"
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")


@dataclass(frozen=True)
class Neg:
    operand: "ExprNode"


ExprNode = Union[Const, Var, Add, Sub, Mul, Div, Pow, Neg]


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number', 'x', 'op', 'end'
    text: str
    offset: int
    value: Fraction | None = None


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                if i >= n or not text[i].isdecimal():
                    raise ExpressionSyntaxError(
                        "expected digits after decimal point", i, ("digit",)
                    )
                while i < n and text[i].isdecimal():
                    i += 1
            lit = text[start:i]
            try:
                value = Fraction(lit)
            except ValueError:  # more digits than the int-to-str limit allows
                message = f"number literal of {i - start} characters exceeds the integer digit limit"
                raise ExpressionSyntaxError(message, start, ("number",)) from None
            tokens.append(_Token("number", lit, start, value))
            continue
        if ch == "x":
            tokens.append(_Token("x", ch, i))
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ExpressionSyntaxError(
            f"unexpected character {ch!r}", i, ("number", "x", "operator", "parenthesis")
        )
    tokens.append(_Token("end", "", n))
    return tokens


# The most operators on any path from the root of a parsed tree to a leaf,
# and the most parentheses and signs open at any point of its text. Every
# tree walker recurses once per level (unparse twice) and the parser up to
# four times per open parenthesis, so all stay well inside the default
# recursion limit of 1000.
_MAX_DEPTH = 100

# The most that the '^' exponents on any path from the root to a leaf may
# multiply to: a folded constant has at most that many times the digits of
# the literals under it, where 10^100000000000000 would have 10^14 digits.
_MAX_POWER = 10_000


class _Parser:
    """Recursive descent; each method returns (node, height, power), the
    height being the most operators and the power the largest product of
    '^' exponents on a path from the node to a leaf."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0  # parentheses and signs open at pos

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        tok = self.peek()
        got = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ExpressionSyntaxError(f"unexpected {got}", tok.offset, expected)

    def deeper(self, tok: _Token, height: int) -> int:
        """height + 1, the level that tok's operator or parenthesis opens,
        refused past _MAX_DEPTH."""
        if height >= _MAX_DEPTH:
            raise ExpressionSyntaxError(
                f"expression nested deeper than {_MAX_DEPTH} levels", tok.offset, ()
            )
        return height + 1

    def parse(self) -> ExprNode:
        node, _, _ = self.expr()
        if self.peek().kind != "end":
            self.fail(("'+'", "'-'", "'*'", "'/'", "end of input"))
        return node

    def expr(self) -> tuple[ExprNode, int, int]:
        node, height, power = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.advance()
            rhs, rhs_height, rhs_power = self.term()
            node = Add(node, rhs) if tok.text == "+" else Sub(node, rhs)
            height, power = self.deeper(tok, max(height, rhs_height)), max(power, rhs_power)
        return node, height, power

    def term(self) -> tuple[ExprNode, int, int]:
        node, height, power = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            rhs, rhs_height, rhs_power = self.factor()
            node = Mul(node, rhs) if tok.text == "*" else Div(node, rhs)
            height, power = self.deeper(tok, max(height, rhs_height)), max(power, rhs_power)
        return node, height, power

    def factor(self) -> tuple[ExprNode, int, int]:
        node, height, power = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            height = self.deeper(self.advance(), height)
            tok = self.peek()
            # Exponents are bare unsigned integer literals.
            if tok.kind != "number" or tok.value is None or tok.value.denominator != 1:
                self.fail(("unsigned integer",))
            power *= tok.value.numerator
            if power > _MAX_POWER:
                raise ExpressionSyntaxError(
                    f"power of degree {power} exceeds {_MAX_POWER}", tok.offset, ()
                )
            self.advance()
            node = Pow(node, tok.value.numerator)
        return node, height, power

    def atom(self) -> tuple[ExprNode, int, int]:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Const(tok.value), 0, 1
        if tok.kind == "x":
            self.advance()
            return Var(), 0, 1
        if tok.kind != "op" or tok.text not in "(-":
            self.fail(("number", "'x'", "'('", "'-'"))
        # Refused before the descent, as each level takes parser frames.
        self.open = self.deeper(self.advance(), self.open)
        if tok.text == "(":
            node, height, power = self.expr()
            closing = self.peek()
            if closing.kind != "op" or closing.text != ")":
                self.fail(("')'",))
            self.advance()
        else:
            node, height, power = self.atom()
            node, height = Neg(node), self.deeper(tok, height)
        self.open -= 1
        return node, height, power


def parse(text: str) -> ExprNode:
    """Parse expression text into an AST; ExpressionSyntaxError on failure,
    a tree nested deeper than _MAX_DEPTH levels or with a power of degree
    above _MAX_POWER included."""
    return _Parser(text).parse()


def evaluate(node: ExprNode, x):
    """Evaluate the AST at x.

    Exact when x is a Fraction (all literals are rationals); float math when
    x is a float. Division by zero raises DivisionByZeroError naming the
    offending subtree.
    """
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Add):
        return evaluate(node.left, x) + evaluate(node.right, x)
    if isinstance(node, Sub):
        return evaluate(node.left, x) - evaluate(node.right, x)
    if isinstance(node, Mul):
        return evaluate(node.left, x) * evaluate(node.right, x)
    if isinstance(node, Div):
        denom = evaluate(node.right, x)
        if denom == 0:
            raise DivisionByZeroError(unparse(node))
        return evaluate(node.left, x) / denom
    if isinstance(node, Pow):
        return evaluate(node.base, x) ** node.exponent
    if isinstance(node, Neg):
        return -evaluate(node.operand, x)
    raise TypeError(f"not an expression node: {node!r}")


def float_evaluator(node: ExprNode) -> Callable[[float], float]:
    """The AST compiled once into a function of a float x that returns
    float(evaluate(node, x)) bit for bit and raises what it raises, in the
    same order, with one closure per node and no type dispatch per call.

    evaluate at a float x folds an x-free subtree exactly in Fractions and
    rounds it with float() where it meets a float, so each maximal x-free
    subtree is folded and rounded here once. Where that fold raises, or the
    rounding overflows or turns a nonzero value into 0.0, the subtree is
    kept as evaluate left it (a closure that raises, or the Fraction), so
    Python's mixed Fraction/float arithmetic raises at call time where
    evaluate does.
    """
    compiled = _compile(node)
    if callable(compiled):
        return compiled
    return lambda x: float(compiled)


_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _compile(node: ExprNode):
    """A float, or a Fraction (see float_evaluator), for an x-free subtree
    that folds; else a function of x."""
    if not _has_var(node):
        try:
            value = evaluate(node, None)
        except DivisionByZeroError:
            return lambda x: evaluate(node, x)
        try:
            rounded = float(value)
        except OverflowError:
            return value
        return rounded if rounded or not value else value
    if isinstance(node, Var):
        return lambda x: x
    if isinstance(node, Pow):
        base, exponent = _compile(node.base), node.exponent
        return lambda x: base(x) ** exponent
    if isinstance(node, Neg):
        operand = _compile(node.operand)
        return lambda x: -operand(x)
    left, right = _compile(node.left), _compile(node.right)
    if isinstance(node, Div):
        return _divide(left, right, unparse(node))
    op = _BINARY[type(node)]
    if not callable(left):
        return lambda x: op(left, right(x))
    if not callable(right):
        return lambda x: op(left(x), right)
    return lambda x: op(left(x), right(x))


def _divide(left, right, text: str):
    """left / right as evaluate orders it: the denominator first, its zero
    check, then the numerator."""
    if not callable(right):
        if right == 0:
            def zero(x):
                raise DivisionByZeroError(text)

            return zero
        return lambda x: left(x) / right

    def divide(x):
        denom = right(x)
        if denom == 0:
            raise DivisionByZeroError(text)
        return (left(x) if callable(left) else left) / denom

    return divide


def _has_var(node: ExprNode) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Const):
        return False
    if isinstance(node, Pow):
        return _has_var(node.base)
    if isinstance(node, Neg):
        return _has_var(node.operand)
    return _has_var(node.left) or _has_var(node.right)


def as_affine(node: ExprNode) -> tuple[Fraction, Fraction] | None:
    """Return (a, b) with the expression syntactically equal to a*x + b.

    Constant subtrees are folded exactly. Returns None when the tree is not
    affine after folding (for example any x*x, x^2 with nonzero slope, or a
    division by a non-constant).
    """
    if isinstance(node, Const):
        return Fraction(0), node.value
    if isinstance(node, Var):
        return Fraction(1), Fraction(0)
    if isinstance(node, (Add, Sub)):
        left = as_affine(node.left)
        right = as_affine(node.right)
        if left is None or right is None:
            return None
        if isinstance(node, Add):
            return left[0] + right[0], left[1] + right[1]
        return left[0] - right[0], left[1] - right[1]
    if isinstance(node, Mul):
        left = as_affine(node.left)
        right = as_affine(node.right)
        if left is None or right is None:
            return None
        if left[0] == 0:
            return left[1] * right[0], left[1] * right[1]
        if right[0] == 0:
            return left[0] * right[1], left[1] * right[1]
        return None
    if isinstance(node, Div):
        left = as_affine(node.left)
        right = as_affine(node.right)
        if left is None or right is None:
            return None
        if right[0] != 0 or right[1] == 0:
            return None
        return left[0] / right[1], left[1] / right[1]
    if isinstance(node, Pow):
        base = as_affine(node.base)
        if base is None:
            return None
        if node.exponent == 0:
            return Fraction(0), Fraction(1)
        if node.exponent == 1:
            return base
        if base[0] == 0:
            return Fraction(0), base[1] ** node.exponent
        return None
    if isinstance(node, Neg):
        inner = as_affine(node.operand)
        if inner is None:
            return None
        return -inner[0], -inner[1]
    raise TypeError(f"not an expression node: {node!r}")


def _precedence(node: ExprNode) -> int:
    if isinstance(node, (Add, Sub)):
        return 1
    if isinstance(node, (Mul, Div)):
        return 2
    if isinstance(node, Neg):
        return 3
    if isinstance(node, Pow):
        return 4
    if isinstance(node, Const) and "/" in _render_rational(node.value):
        return 2  # p/q reparses to a Div
    return 5


def _wrap(child: ExprNode, parent_prec: int, right_side: bool = False) -> str:
    text = unparse(child)
    child_prec = _precedence(child)
    if child_prec < parent_prec or (right_side and child_prec == parent_prec):
        return f"({text})"
    return text


def _render_rational(v: Fraction) -> str:
    # Denominators of the form 2^a 5^b render as exact decimal literals, so
    # the text reparses to the same Const node. Anything else has no literal
    # form and falls back to p/q, which reparses to an equal-valued Div.
    if v.denominator == 1:
        return str(v.numerator)
    d = v.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d == 1:
        places = max(twos, fives)
        scaled = v.numerator * 10**places // v.denominator
        sign = "-" if scaled < 0 else ""
        digits = str(abs(scaled)).rjust(places + 1, "0")
        return f"{sign}{digits[:-places]}.{digits[-places:]}"
    return f"{v.numerator}/{v.denominator}"


def _is_literal_text(text: str) -> bool:
    return all(c.isdigit() or c == "." for c in text)


def unparse(node: ExprNode) -> str:
    """Render the AST back to grammar-valid text with minimal parentheses."""
    if isinstance(node, Const):
        return _render_rational(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Add):
        return f"{_wrap(node.left, 1)} + {_wrap(node.right, 1, True)}"
    if isinstance(node, Sub):
        return f"{_wrap(node.left, 1)} - {_wrap(node.right, 1, True)}"
    if isinstance(node, Mul):
        return f"{_wrap(node.left, 2)}*{_wrap(node.right, 2, True)}"
    if isinstance(node, Div):
        return f"{_wrap(node.left, 2)}/{_wrap(node.right, 2, True)}"
    if isinstance(node, Pow):
        base = unparse(node.base)
        bare = isinstance(node.base, Var) or (
            isinstance(node.base, Const) and _is_literal_text(base)
        )
        if not bare:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Neg):
        inner = unparse(node.operand)
        if not (isinstance(node.operand, Neg) or _precedence(node.operand) == 5):
            inner = f"({inner})"
        return f"-{inner}"
    raise TypeError(f"not an expression node: {node!r}")
