import math

import numpy as np
import pytest
from numpy.random import PCG64, Generator

from cq_analyzer.expr import (
    ArityMismatchError,
    BinOp,
    Call,
    DomainEvaluationError,
    ExprSyntaxError,
    IntPow,
    MAX_DEPTH,
    MAX_NESTING,
    Neg,
    Num,
    Pow,
    UnknownIdentifierError,
    Var,
    parse,
)
from expr_walker import walk_value_and_gradient
from finite_diff import finite_diff_gradient


def test_parse_addition_shape():
    e = parse("x1 + x2", ["x1", "x2"])
    assert isinstance(e.root, BinOp)
    assert e.root.op == "+"
    assert e.root.left == Var("x1", 0)
    assert e.root.right == Var("x2", 1)


def test_parse_tornado_coordinate_shape():
    e = parse("x^3 * sin(1/x)", ["x"])
    root = e.root
    assert isinstance(root, BinOp) and root.op == "*"
    assert root.left == IntPow(Var("x", 0), 3)
    assert root.right == Call("sin", BinOp("/", Num(1.0), Var("x", 0)))


def test_parse_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x1+*x2", ["x1", "x2"])
    assert exc.value.position == 3


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse("x1 + y", ["x1"])
    assert exc.value.position == 5


def test_parse_arity_errors():
    with pytest.raises(ArityMismatchError):
        parse("sin", ["x"])
    with pytest.raises(ArityMismatchError):
        parse("x(2)", ["x"])


def _assert_gradient_is_walkers(e, x):
    value, grad = e.value_and_gradient(x)
    want_value, want_grad = walk_value_and_gradient(e, x)
    assert np.float64(value).view(np.int64) == np.float64(want_value).view(np.int64)
    assert grad.view(np.int64).tolist() == want_grad.view(np.int64).tolist()


def test_parse_depth_bounds():
    # Left-deep sums and right-deep powers parse without recursion; the tree
    # depth is bounded because compiling recurses once per level.  The
    # gradient code, whose partials are written inline, compiles at both
    # bounds too.
    deepest_sum = " + ".join(["x"] * MAX_DEPTH)            # MAX_DEPTH levels
    e = parse(deepest_sum, ["x"])
    assert e.evaluate([1.0]) == MAX_DEPTH
    _assert_gradient_is_walkers(e, [1.0])
    # The dataclass-generated methods recurse too, more deeply per level.
    assert e == parse(deepest_sum, ["x"]) and hash(e) and repr(e)
    # The offset is the first node found past the bound: the sum's last
    # term, at 4, and the power's last base, at the end of the text.
    deepest_power = "^".join(["x"] * (MAX_DEPTH + 1))
    for text, offset in ((deepest_sum + " + x", 4), (deepest_power, len(deepest_power) - 1)):
        with pytest.raises(ExprSyntaxError, match=f"deeper than {MAX_DEPTH} levels") as exc:
            parse(text, ["x"])
        assert exc.value.position == offset
    # Each parenthesis or function argument costs the parser several frames.
    nested = "sin(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse(nested, ["x"]).evaluate([0.0]) == 0.0
    for x in ([0.0], [-0.0], [0.7]):
        _assert_gradient_is_walkers(parse(nested, ["x"]), x)
    # The offset is the token after the parenthesis that opens one level too many.
    for text, offset in (("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), MAX_NESTING + 1),
                         ("sin(" + nested + ")", 4 * (MAX_NESTING + 1)),
                         ("-(" + nested + ")", 2 + 4 * MAX_NESTING)):
        with pytest.raises(ExprSyntaxError, match=f"deeper than {MAX_NESTING} levels") as exc:
            parse(text, ["x"])
        assert exc.value.position == offset


@pytest.mark.parametrize("text, message, offset", [
    ("x +  $", "unexpected character '$'", 5),
    ("x \t\u00a0# y", "unexpected character '#'", 4),
    (".", "unexpected character '.'", 0),
    ("x y", "unexpected token 'y'", 2),
    ("x + 2 3", "unexpected token '3'", 6),
    ("(x)(y)", "unexpected token '('", 3),
    ("1.e", "unexpected token 'e'", 2),
    ("sin(x", "expected ')'", 5),
    ("(x + 1", "expected ')'", 6),
    ("sin(x y", "expected ')'", 6),
    ("x +", "got 'end of input'", 3),
    ("x ^ ", "got 'end of input'", 4),
    ("", "got 'end of input'", 0),
    ("   ", "got 'end of input'", 3),
    ("x*(", "got 'end of input'", 3),
])
def test_parse_error_offsets(text, message, offset):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text, ["x", "y"])
    assert exc.value.position == offset
    assert message in str(exc.value) and str(exc.value).endswith(f"(offset {offset})")


def test_parse_rejects_function_named_variable():
    with pytest.raises(ValueError):
        parse("sin + 1", ["sin"])


def test_power_right_associative_and_tighter_than_unary_minus():
    # x^2^3 = x^(2^3); the exponent is an expression, so this takes the
    # exp/log path and is exact only to rounding.
    e = parse("x^2^3", ["x"])
    assert e.evaluate([2.0]) == pytest.approx(256.0, rel=1e-13)
    e = parse("-x^2", ["x"])
    assert e.evaluate([3.0]) == -9.0


def test_integer_literal_power_is_exact():
    e = parse("x^3", ["x"])
    t = 0.1
    assert e.evaluate([t]) == t * t * t


def test_parenthesized_negative_integer_power():
    e = parse("x^(-2)", ["x"])
    assert e.evaluate([2.0]) == 0.25
    with pytest.raises(DomainEvaluationError):
        e.evaluate([0.0])


def test_non_integer_power_requires_positive_base():
    e = parse("x^0.5", ["x"])
    assert e.evaluate([4.0]) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(DomainEvaluationError):
        e.evaluate([-1.0])


def test_evaluate_square():
    e = parse("x1^2", ["x1"])
    assert e.evaluate([3.0]) == 9.0


def test_evaluate_tornado_value():
    # At x = 2/pi, sin(1/x) = sin(pi/2) = 1, so the value is x^3 = 8/pi^3.
    e = parse("x^3 * sin(1/x)", ["x"])
    x = 2.0 / math.pi
    assert e.evaluate([x]) == pytest.approx(8.0 / math.pi**3, rel=1e-14)
    assert e.evaluate([x]) == pytest.approx(0.25801, abs=1e-5)


def test_evaluate_division_by_zero():
    e = parse("1/x", ["x"])
    with pytest.raises(DomainEvaluationError) as exc:
        e.evaluate([0.0])
    assert "1/x" in str(exc.value)


def test_domain_errors_name_offending_fragment():
    e = parse("x1 + log(x2)", ["x1", "x2"])
    with pytest.raises(DomainEvaluationError) as exc:
        e.evaluate([1.0, -1.0])
    assert "log(x2)" in str(exc.value)
    with pytest.raises(DomainEvaluationError):
        parse("sqrt(x)", ["x"]).evaluate([-4.0])


def test_domain_error_fragment_keeps_both_parentheses_of_a_group():
    # A parenthesized group spans its parentheses, so a fragment that ends
    # in one quotes it whole.
    cases = [
        ("1/(x1 - 1)", [1.0], "1/(x1 - 1)"),
        ("((x1 - 2))^0.5", [1.0], "((x1 - 2))^0.5"),
        ("1e308*(x1 + 1)", [1e308], "1e308*(x1 + 1)"),
    ]
    for text, x, fragment in cases:
        e = parse(text, ["x1"])
        for evaluate in (e.evaluate, e.value_and_gradient):
            with pytest.raises(DomainEvaluationError) as exc:
                evaluate(x)
            assert exc.value.fragment == fragment


def test_gradient_polynomial():
    e = parse("x1^2 + x2^2", ["x1", "x2"])
    assert np.array_equal(e.gradient([1.0, 2.0]), np.array([2.0, 4.0]))


def test_gradient_tornado_closed_form():
    # d/dx [x^3 sin(1/x)] = 3x^2 sin(1/x) - x cos(1/x) away from zero.
    e = parse("x^3 * sin(1/x)", ["x"])
    for t in (0.7, -0.3, 0.05, 1.9):
        expected = 3 * t**2 * math.sin(1 / t) - t * math.cos(1 / t)
        assert e.gradient([t])[0] == pytest.approx(expected, rel=1e-13)


def test_gradient_sqrt_not_differentiable_at_zero():
    e = parse("sqrt(x)", ["x"])
    assert e.evaluate([0.0]) == 0.0
    with pytest.raises(DomainEvaluationError):
        e.gradient([0.0])


def test_finite_diff_square():
    e = parse("x1^2", ["x1"])
    fd = finite_diff_gradient(e, [3.0], 1e-6)
    assert fd[0] == pytest.approx(6.0, abs=1e-6)


def test_finite_diff_constant_is_exactly_zero():
    e = parse("3.5", ["x1", "x2"])
    assert np.array_equal(finite_diff_gradient(e, [0.3, -0.7], 1e-6), np.zeros(2))


def test_finite_diff_exp_taylor_bound():
    # Central-difference truncation error is h^2/6 * max|f'''| ~ 1.7e-11 here.
    e = parse("exp(x1)", ["x1"])
    fd = finite_diff_gradient(e, [0.0], 1e-5)
    assert abs(fd[0] - 1.0) <= 1e-9


def test_finite_diff_requires_positive_step():
    e = parse("x1", ["x1"])
    with pytest.raises(ValueError):
        finite_diff_gradient(e, [0.0], 0.0)


def test_finite_diff_domain_error_on_probe():
    e = parse("log(x)", ["x"])
    with pytest.raises(DomainEvaluationError):
        finite_diff_gradient(e, [1e-9], 1e-6)


from conftest import random_domain_points

_PROPERTY_EXPRESSIONS = [
    ("x1^2 + x2^2", ["x1", "x2"]),
    ("x^3 * sin(1/x)", ["x"]),
    ("x^3 * cos(1/x)", ["x"]),
    ("x1*x2 - x2/x1", ["x1", "x2"]),
    ("exp(x1) * sin(x2)", ["x1", "x2"]),
    ("sqrt(x1^2 + 1) + tan(x2/4)", ["x1", "x2"]),
    ("log(x1^2 + 1) - x2^3", ["x1", "x2"]),
    ("2^x", ["x"]),
]


@pytest.mark.parametrize("text,names", _PROPERTY_EXPRESSIONS)
def test_ad_matches_finite_differences(text, names):
    e = parse(text, names)
    for i, x in enumerate(random_domain_points(e, 100, seed=42_000 + hash(text) % 1000)):
        g = e.gradient(x)
        fd = finite_diff_gradient(e, x, 1e-6)
        tol = 1e-6 * (1.0 + np.max(np.abs(g)))
        assert np.max(np.abs(g - fd)) <= tol, (text, i, x)


def test_gradient_linearity_exact():
    e1 = parse("sin(x1) * x2", ["x1", "x2"])
    e2 = parse("x1^2 - exp(x2)", ["x1", "x2"])
    rng = Generator(PCG64(7))
    for _ in range(25):
        a, b = (float(v) for v in rng.uniform(-3, 3, size=2))
        combined = parse(f"{a!r}*(sin(x1) * x2) + {b!r}*(x1^2 - exp(x2))", ["x1", "x2"])
        x = rng.uniform(-1.5, 1.5, size=2)
        expected = a * e1.gradient(x) + b * e2.gradient(x)
        assert np.array_equal(combined.gradient(x), expected)


def test_evaluate_and_gradient_deterministic():
    e = parse("x1^3 * sin(1/x1) + exp(x2)", ["x1", "x2"])
    x = [0.37, -1.2]
    assert e.evaluate(x) == e.evaluate(x)
    assert np.array_equal(e.gradient(x), e.gradient(x))


# A printer with minimal parentheses.  The program prints no expression,
# but the parser must read back every tree it writes: these tests pin the
# parser's precedence and associativity.
_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5


def unparse(node, context=_ADD) -> str:
    if isinstance(node, Num):
        return format(node.value, ".17g")
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        out = f"-{unparse(node.operand, _POW)}"
        return f"({out})" if context > _NEG else out
    if isinstance(node, BinOp):
        own = _ADD if node.op in "+-" else _MUL
        out = f"{unparse(node.left, own)} {node.op} {unparse(node.right, own + 1)}"
        return f"({out})" if context > own else out
    if isinstance(node, (IntPow, Pow)):
        if isinstance(node, IntPow):
            exponent = str(node.exponent) if node.exponent >= 0 else f"({node.exponent})"
        else:
            exponent = unparse(node.exponent, _ATOM)
        out = f"{unparse(node.base, _ATOM)}^{exponent}"
        return f"({out})" if context > _POW else out
    if isinstance(node, Call):
        return f"{node.func}({unparse(node.arg)})"
    raise AssertionError(f"unhandled node {node!r}")


@pytest.mark.parametrize(
    "text,names",
    _PROPERTY_EXPRESSIONS
    + [
        ("-(-x)", ["x"]),
        ("x - (x2 - 1)", ["x", "x2"]),
        ("(x + 1) * (x - 1)", ["x"]),
        ("x^(x + 1)", ["x"]),
        ("1 - x / (2 * x2)", ["x", "x2"]),
        ("x^(-3)", ["x"]),
    ],
)
def test_unparse_reparse_round_trip(text, names):
    e = parse(text, names)
    again = parse(unparse(e.root), names)
    assert again.root == e.root
    # A second round trip is also a fixed point of the printing.
    assert parse(unparse(again.root), names).root == again.root


def test_round_trip_preserves_structure_not_just_value():
    # a + (b - c) must not re-associate into (a + b) - c.
    e = parse("x1 + (x2 - 1)", ["x1", "x2"])
    again = parse(unparse(e.root), ["x1", "x2"])
    assert again.root == e.root
    assert isinstance(again.root.right, BinOp) and again.root.right.op == "-"


def test_point_length_mismatch():
    e = parse("x1 + x2", ["x1", "x2"])
    with pytest.raises(ValueError):
        e.evaluate([1.0])
