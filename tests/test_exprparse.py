"""Expression grammar: tokenizing, parsing, evaluation, affine extraction.

The evaluation corpus freezes exact rational results; the round-trip
property generates parser-reachable trees and requires unparse/parse to be
the identity on them. The compiled float evaluator is checked against
float(evaluate(...)) on the same trees, errors included.
"""

import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from kbonacci.errors import DivisionByZeroError, ExpressionSyntaxError
from kbonacci.exprparse import (
    Add,
    Const,
    Div,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    as_affine,
    evaluate,
    float_evaluator,
    parse,
    unparse,
)

EVAL_CORPUS = [
    ("x", F(5), F(5)),
    ("2*x + 1", F(3, 2), F(4)),
    ("x^2 - x - 1", F(2), F(1)),
    ("(x + 1)*(x - 1)", F(3), F(8)),
    ("x/2 + 1/3", F(1), F(5, 6)),
    ("-x^2", F(3), F(9)),  # unary minus binds the base: (-x)^2
    ("-(x^2)", F(3), F(-9)),
    ("2^3", F(0), F(8)),
    ("1.25*x", F(4), F(5)),
    ("0.5", F(9), F(1, 2)),
    ("x*x*x", F(1, 2), F(1, 8)),
    ("3 - x - 1", F(1), F(1)),
    ("12/x/2", F(3), F(2)),
    ("2*x^2", F(3), F(18)),
    ("1/2*x", F(4), F(2)),
    ("x - -x", F(2), F(4)),
    ("-x + x^3", F(2), F(6)),
    ("10/4", F(0), F(5, 2)),
    ("((x))", F(7), F(7)),
    ("x^0", F(9), F(1)),
    ("2*(x + 1/4)", F(1, 4), F(1)),
]


class TestEvaluate:
    @pytest.mark.parametrize("text,x,expected", EVAL_CORPUS)
    def test_corpus(self, text, x, expected):
        value = evaluate(parse(text), x)
        assert isinstance(value, F)
        assert value == expected

    def test_division_by_zero_names_subtree(self):
        node = parse("(x - 1)/(x - 1)")
        assert evaluate(node, F(2)) == 1
        with pytest.raises(DivisionByZeroError) as err:
            evaluate(node, F(1))
        assert err.value.subtree_text == "(x - 1)/(x - 1)"

    def test_constant_zero_denominator(self):
        with pytest.raises(DivisionByZeroError):
            evaluate(parse("3/0"), F(1))


class TestParse:
    def test_structure(self):
        assert parse("x + 1") == Add(Var(), Const(F(1)))
        assert parse("2*x") == Mul(Const(F(2)), Var())
        assert parse("x^2") == Pow(Var(), 2)
        assert parse("-x") == Neg(Var())
        assert parse("x - 1/2") == Sub(Var(), Div(Const(F(1)), Const(F(2))))

    def test_precedence_shape(self):
        # addition splits last, power binds tightest
        assert parse("1 + 2*x^3") == Add(
            Const(F(1)), Mul(Const(F(2)), Pow(Var(), 3))
        )

    def test_error_at_end_of_input(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("x +")
        assert err.value.offset == 3

    def test_error_on_empty(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("")
        assert err.value.offset == 0

    def test_unclosed_paren_expects_close(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("(x")
        assert "')'" in err.value.expected

    def test_unexpected_token_offset(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("x x")
        assert err.value.offset == 2

    def test_bad_character_offset(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("x + y")
        assert err.value.offset == 4

    def test_exponent_must_be_literal(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("x^-2")
        with pytest.raises(ExpressionSyntaxError):
            parse("x^(2)")
        with pytest.raises(ExpressionSyntaxError):
            parse("x^2^3")
        with pytest.raises(ExpressionSyntaxError):
            parse("x^1.5")
        for literal in ("2.0", "0.0"):
            with pytest.raises(ExpressionSyntaxError) as err:
                parse(f"x^{literal}")
            assert str(err.value) == f"unexpected '{literal}' at offset 2"
            assert err.value.expected == ("unsigned integer",)

    @pytest.mark.parametrize("text,offset", [("x^²", 2), ("²", 0), ("x + 1²", 5), ("1.²", 2)])
    def test_non_decimal_digits_refused(self, text, offset):
        # str.isdigit accepts superscripts, which Fraction cannot read
        with pytest.raises(ExpressionSyntaxError) as err:
            parse(text)
        assert err.value.offset == offset

    def test_decimal_digits_of_any_script(self):
        assert parse("\u0663*x^\u0662") == Mul(Const(F(3)), Pow(Var(), 2))

    # The token pattern's space and digits are str.isspace and str.isdecimal
    # on every interpreter: space is skipped, the decimal digits of any
    # script are read, and other numeric characters are refused.
    @pytest.mark.parametrize(
        "char,tree",
        [
            ("\u00a0", Mul(Var(), Const(F(2)))),
            ("\u2003", Mul(Var(), Const(F(2)))),
            ("\x1c", Mul(Var(), Const(F(2)))),
            ("\u0663", Mul(Var(), Const(F(32)))),
            ("\uff11", Mul(Var(), Const(F(12)))),
            ("\U0001d7d8", Mul(Var(), Const(F(2)))),
            ("\u00b2", None),
            ("\u00bd", None),
            ("\u216b", None),
        ],
        ids=["nbsp", "em-space", "file-separator", "arabic-indic-three", "fullwidth-one",
             "mathematical-zero", "superscript-two", "one-half", "roman-twelve"],
    )
    def test_unicode_space_and_digits(self, char, tree):
        text = f"x*{char}2"
        if tree is not None:
            assert parse(text) == tree
            return
        with pytest.raises(ExpressionSyntaxError) as err:
            parse(text)
        assert str(err.value) == f"unexpected character {char!r} at offset 2"


class TestPowerBound:
    @pytest.mark.parametrize(
        "text", ["x^10000", "10^10000", "(x^100)^100", "((x^10)^10)^100", "(x^0)^100000", "x^9999*x^9999"]
    )
    def test_at_the_bound(self, text):
        assert unparse(parse(text)).replace(" ", "") == text.replace(" ", "")

    @pytest.mark.parametrize(
        "text,offset,degree",
        [
            ("x^10001", 2, 10001),
            ("x + 10^100000000000000", 7, 100000000000000),
            ("(x^100)^101", 8, 10100),
            ("((10^10)^10)^101", 13, 10100),
            ("(1 + (x^2 - 1)^5001)^1", 15, 10002),
        ],
    )
    def test_past_the_bound_refused(self, text, offset, degree):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse(text)
        assert str(err.value) == f"power of degree {degree} exceeds 10000 at offset {offset}"


@pytest.fixture
def digit_limit():
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
class TestDigitLimit:
    LONG = [("1" * 5000, 0, 5000), ("x + 0." + "1" * 5000, 4, 5002)]

    @pytest.mark.parametrize("text,offset,length", LONG, ids=["integer", "decimal"])
    def test_literal_past_the_limit_refused(self, digit_limit, text, offset, length):
        digit_limit(4300)
        with pytest.raises(ExpressionSyntaxError) as err:
            parse(text)
        assert str(err.value) == (
            f"number literal of {length} characters exceeds the integer digit limit at offset {offset}"
        )

    @pytest.mark.parametrize("text,offset,length", LONG, ids=["integer", "decimal"])
    def test_literal_parses_once_the_limit_is_lifted(self, digit_limit, text, offset, length):
        digit_limit(0)
        value = F("1" * 5000) / (1 if offset == 0 else 10**5000)
        assert evaluate(parse(text), F(0)) == value


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


# 100 operators on a path from the root, or 100 parentheses and signs open
AT_THE_BOUND = {
    "parentheses": "(" * 100 + "x" + ")" * 100,
    "signs": "-" * 100 + "x",
    "sum": "+".join(["x"] * 101),
    "product": "*".join(["x"] * 101),
    "quotients": "1/(" * 50 + "x" + ")" * 50,
    "signed-parentheses": "(-" * 50 + "x" + ")" * 50,
    "powers": "(" * 99 + "x" + "^1)" * 99 + "^1",
}


class TestDepthBound:
    @pytest.mark.parametrize(
        "text,offset",
        [
            ("(" * 300 + "x" + ")" * 300, 100),
            ("-" * 2000 + "x", 100),
            ("+".join(["x"] * 3000), 201),
            ("(" * 101 + "x" + ")" * 101, 100),
            ("-" * 101 + "x", 100),
            ("+".join(["x"] * 102), 201),
            ("(" * 100 + "x" + "^1)" * 100 + "^1", 401),
            ("(-" * 51 + "x" + ")" * 51, 100),
        ],
        ids=["parentheses-300", "signs-2000", "sum-3000", "parentheses", "signs", "sum",
             "powers", "signed-parentheses"],
    )
    def test_deeper_text_refused(self, text, offset):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse(text)
        assert str(err.value) == f"expression nested deeper than 100 levels at offset {offset}"
        assert err.value.offset == offset

    @pytest.mark.parametrize("text", AT_THE_BOUND.values(), ids=AT_THE_BOUND)
    def test_every_walker_runs_at_the_bound(self, text):
        # with less than half the default recursion limit left above this frame
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 450)
        try:
            tree = parse(text)
            assert parse(unparse(tree)) == tree
            exact = evaluate(tree, F(1, 2))
            assert float_evaluator(tree)(0.5) == float(evaluate(tree, 0.5)) == float(exact)
            form = as_affine(tree)
            assert form is None or form[0] * F(1, 2) + form[1] == exact
        finally:
            sys.setrecursionlimit(saved)


class TestAffine:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2*x", (F(2), F(0))),
            ("3*x + 1/2", (F(3), F(1, 2))),
            ("x", (F(1), F(0))),
            ("5", (F(0), F(5))),
            ("(x + 1)*2", (F(2), F(2))),
            ("x/2", (F(1, 2), F(0))),
            ("2^3", (F(0), F(8))),
            ("x^1", (F(1), F(0))),
            ("x^0", (F(0), F(1))),
            ("-x + x", (F(0), F(0))),
            ("1.5*x - 0.25", (F(3, 2), F(-1, 4))),
        ],
    )
    def test_affine_forms(self, text, expected):
        assert as_affine(parse(text)) == expected

    @pytest.mark.parametrize("text", ["x^2", "x*x", "x/x", "1/x", "x/0", "(x*x)^0", "(1/x)^1"])
    def test_non_affine(self, text):
        assert as_affine(parse(text)) is None

    @given(
        st.sampled_from([t for t, _, _ in EVAL_CORPUS]),
        st.fractions(min_value=-4, max_value=4, max_denominator=8),
    )
    def test_affine_matches_evaluation(self, text, x):
        node = parse(text)
        form = as_affine(node)
        if form is None:
            return
        a, b = form
        assert evaluate(node, x) == a * x + b


# Trees whose constants have 10-smooth denominators render as decimal or
# integer literals, so unparse followed by parse is the structural identity.
smooth_consts = st.builds(
    lambda n, d: Const(F(n, d)),
    st.integers(min_value=0, max_value=50),
    st.sampled_from([1, 2, 4, 5, 8, 10, 16, 20, 25, 32]),
)



def trees(consts):
    return st.recursive(
        consts | st.just(Var()),
        lambda inner: st.one_of(
            st.builds(Add, inner, inner),
            st.builds(Sub, inner, inner),
            st.builds(Mul, inner, inner),
            st.builds(Div, inner, inner),
            st.builds(Neg, inner),
            st.builds(Pow, inner, st.integers(min_value=0, max_value=4)),
        ),
        max_leaves=12,
    )


exprs = trees(smooth_consts)

# Signed constants whose denominators are not 10-smooth render as p/q.
signed_rationals = st.builds(
    lambda n, d: Const(F(n, d)),
    st.integers(min_value=-50, max_value=50),
    st.sampled_from([1, 2, 3, 7, 9, 12, 35]),
)


class TestRoundTrip:
    @pytest.mark.parametrize("text,_x,_v", EVAL_CORPUS)
    def test_corpus_reparse(self, text, _x, _v):
        node = parse(text)
        assert parse(unparse(node)) == node

    @given(exprs)
    def test_structural_identity(self, tree):
        assert parse(unparse(tree)) == tree

    # Signed constants that render as p/q must each reparse as one operand.
    @given(exprs | trees(signed_rationals), st.fractions(min_value=-3, max_value=3, max_denominator=6))
    def test_value_preserved(self, tree, x):
        try:
            expected = evaluate(tree, x)
        except DivisionByZeroError:
            return
        assert evaluate(parse(unparse(tree)), x) == expected

    @pytest.mark.parametrize(
        "tree,text",
        [
            (Div(Var(), Const(F(1, 3))), "x/(1/3)"),
            (Div(Var(), Const(F(-1, 3))), "x/(-1/3)"),
            (Div(Const(F(2)), Const(F(1, 3))), "2/(1/3)"),
            (Div(Var(), Neg(Const(F(1, 3)))), "x/-(1/3)"),
            (Mul(Var(), Const(F(2, 3))), "x*(2/3)"),
            (Mul(Const(F(2, 3)), Var()), "2/3*x"),
            (Sub(Var(), Const(F(-2, 3))), "x - -2/3"),
        ],
    )
    def test_rational_constant_operands(self, tree, text):
        assert unparse(tree) == text
        assert evaluate(parse(text), F(5)) == evaluate(tree, F(5))

    def test_fraction_const_renders_exactly(self):
        assert unparse(Const(F(3, 2))) == "1.5"
        assert unparse(Const(F(1, 3))) == "1/3"
        assert parse(unparse(Const(F(1, 3)))) == Div(Const(F(1)), Const(F(3)))
        assert unparse(parse("1.5*x")) == "1.5*x"


def outcome(call):
    """The float repr a call returns (NaN-aware), or its exception's type and message."""
    try:
        return repr(call())
    except Exception as exc:  # the comparison is over every outcome
        return type(exc), str(exc)


def assert_same_as_evaluate(tree, x):
    compiled = float_evaluator(tree)
    assert outcome(lambda: compiled(x)) == outcome(lambda: float(evaluate(tree, x)))


# Constants with any denominator round differently when folded exactly than
# when each literal is rounded on its own.
any_consts = st.builds(
    Const,
    st.fractions(min_value=-60, max_value=60, max_denominator=60)
    | st.sampled_from([F(10) ** 400, F(1, 10**400)]),
)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestFloatEvaluator:
    @settings(deadline=None, max_examples=300)
    @given(exprs, finite_floats)
    def test_matches_evaluate(self, tree, x):
        assert_same_as_evaluate(tree, x)

    @settings(deadline=None, max_examples=300)
    @given(trees(any_consts), finite_floats | st.sampled_from([0.0, 1.0, -1.0, 10.0]))
    def test_matches_evaluate_any_constants(self, tree, x):
        assert_same_as_evaluate(tree, x)

    @pytest.mark.parametrize(
        "text,x",
        [
            ("1/(x - 1)", 1.0),  # an x-subtree divides by zero
            ("x + 1/0", 2.0),  # a constant subtree does
            ("1/(x - 1) + 1/0", 1.0),  # the left operand raises first
            ("1/(x - 1) + 1/0", 2.0),
            ("x^400 + 1/0", 10.0),  # OverflowError before the later division
            ("x^400 + 1/0", 1.0),
            ("x^400/(x - 10)", 10.0),  # the denominator is checked first
            ("x + 10^400", 1.0),  # the constant overflows float() where it meets x
            ("1/(x - 1) + 10^400", 1.0),
            ("10^400*(1/(x - 1))", 1.0),
            ("x/(1/10^400)", 1.0),  # a nonzero constant rounds to 0.0
            ("(1/10^400)/x", 0.0),
            ("1/0", 1.0),
            ("10^400", 1.0),
        ],
    )
    def test_errors_in_evaluate_order(self, text, x):
        assert_same_as_evaluate(parse(text), x)

    @pytest.mark.parametrize(
        "text,value,naive",
        [
            ("(1/3*3)*x", 1.0, 1 / 3 * 3),
            ("(2/3 + 1/7)*x", 17 / 21, 2 / 3 + 1 / 7),
            ("(0.1 + 0.2)*x", 0.3, 0.1 + 0.2),
            ("1/49*49*x", 1.0, 1 / 49 * 49),
            ("1/10*3*x", 0.3, 1 / 10 * 3),
        ],
    )
    def test_constants_folded_exactly(self, text, value, naive):
        # Each x-free subtree is folded in Fractions and rounded once, as
        # evaluate does, which can differ from rounding each literal.
        tree = parse(text)
        assert float_evaluator(tree)(1.0) == float(evaluate(tree, 1.0)) == value
        if naive != value:
            assert float_evaluator(tree)(1.0) != naive
