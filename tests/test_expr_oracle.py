"""Differential test: both evaluation paths against the former AST walker.

An expression's first call in each mode runs the code generator in value
mode, and the second runs the compiled code.  Each must reproduce the walker
bit for bit (signed zeros and the gradient components outside an
expression's support included) and raise the same exception with the same
message.  The one intended difference: the walker let
``math.sin``/``cos``/``tan`` of an infinite argument escape as a bare
``ValueError``; both paths raise ``DomainEvaluationError``.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cq_analyzer import expr
from cq_analyzer.expr import FUNCTIONS, DomainEvaluationError, parse
from cq_analyzer.model import evaluate_rows
from expr_walker import walk_value, walk_value_and_gradient

NAMES = ("x1", "x2", "x3")

# Constants that reach the awkward corners: 1e300 products overflow to inf,
# 1e-200 squares underflow to +0.0 (a zero partial denominator with a
# non-zero value), 710 overflows exp, and integers become IntPow exponents.
CONSTANTS = ("0", "1", "2", "0.5", "3.25", "1e300", "1e-170", "1e-200", "700", "710")

VALUES = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0, 1e-200, -1e-170, 1e300, 710.0,
          math.pi / 2, math.inf, -math.inf, math.nan)


def _extend(children):
    return st.one_of(
        st.builds("-({})".format, children),
        st.builds("({}) {} ({})".format, children, st.sampled_from("+-*/"), children),
        st.builds(lambda a, k: f"({a})^({k})", children, st.integers(-6, 9)),
        st.builds("({})^({})".format, children, children),
        st.builds("({})^{}".format, children, st.sampled_from(("0.5", "1.5", "2.25"))),
        st.builds("{}({})".format, st.sampled_from(FUNCTIONS), children),
    )


texts = st.recursive(st.sampled_from(NAMES + CONSTANTS), _extend, max_leaves=10)
points = st.lists(
    st.lists(st.one_of(st.sampled_from(VALUES), st.floats(-4.0, 4.0)),
             min_size=len(NAMES), max_size=len(NAMES)),
    min_size=1, max_size=6,
)


def _bits(value):
    return np.asarray(value, dtype=float).view(np.int64).tolist()


def _outcome(fn, e, x):
    with np.errstate(all="ignore"):
        try:
            result = fn(e, x)
        except (ValueError, ArithmeticError) as err:
            return type(err), str(err)
    if isinstance(result, tuple):
        value, grad = result
        assert type(value) is float and grad.dtype == np.float64
        return "ok", _bits(value), _bits(grad)
    assert type(result) is float
    return "ok", _bits(result)


def _walked(fn, e, x):
    """The walker's outcome, with its escaped trigonometric ``ValueError``
    read as the domain error the code raises."""
    want = _outcome(fn, e, x)
    if want[0] is ValueError and want[1] == "math domain error":
        return DomainEvaluationError, "of an infinite value"
    return want


def assert_matches_walker(text, x, names=NAMES):
    """Evaluate ``text`` at ``x`` twice in each mode, first in value mode and
    then with the compiled code, and compare both with the walker."""
    e = parse(text, names)
    for walked, evaluated, field in (
        (walk_value, lambda e, x: e.evaluate(x), "_value_code"),
        (walk_value_and_gradient, lambda e, x: e.value_and_gradient(x), "_grad_code"),
    ):
        want = _walked(walked, e, x)
        for path in ("value mode", "compiled"):
            got = _outcome(evaluated, e, x)
            assert callable(getattr(e, field)) == (path == "compiled"), (text, path)
            _assert_same(got, want, (text, x, path))


def _assert_same(got, want, context):
    if want == (DomainEvaluationError, "of an infinite value"):
        assert got[0] is DomainEvaluationError and want[1] in got[1], (context, got)
    else:
        assert got == want, context


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(texts, points)
@example("x1 / (1e-200 * x2)", [[1.0, 1.0, 0.0]])
@example("(x1 / (1e-200 * x2))^0", [[1.0, 1.0, 0.0]])
@example("sqrt(x1)^0", [[0.0, 1.0, 0.0], [4.0, 1.0, 0.0]])
@example("(x1 - x2)^(-3) + x3^(-1)", [[1.0, 1.0, 2.0], [2.0, 1.0, 0.0], [-0.0, 0.0, 1.0]])
@example("(x1 * x1 + 1)^(x2 / 3) - x3^0.5", [[1.0, 2.0, 4.0], [0.5, -1.0, 0.0]])
@example("log(x1) + sqrt(x2)", [[0.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [1.0, -0.0, 0.0]])
@example("exp(x1 * 700) - x2", [[1.0, 0.0, 0.0], [1.02, 0.0, 0.0], [-2.0, 0.0, 0.0]])
@example("x1 * 1e300 * 1e300 * 0 + x2^9", [[1.0, 2.0, 3.0], [0.0, -0.5, 0.0]])
@example("x2 - sin(x1^400)", [[10.0, 0.0, 0.0], [1.0, 0.5, 0.0]])
def test_compiled_code_matches_walker(text, xs):
    for x in xs:
        assert_matches_walker(text, x)


def test_long_expression_matches_walker():
    # Hundreds of statements: subtrees are compiled as separate helpers.
    text = " + ".join(f"({i % 7 + 1}) * x{i % 3 + 1}^2 * cos(x{(i + 1) % 3 + 1})"
                      for i in range(120))
    for x in ([0.3, -1.2, 2.0], [0.0, -0.0, 1e-200], [1e300, 1.0, 1.0]):
        assert_matches_walker(text, x)
    assert_matches_walker(f"sqrt(x1)^0 * ({text})", [0.0, 1.0, 1.0])


def test_manifold_family_matches_walker():
    # The shape of perfbench's analyze-manifold problems at n = 8: long sums
    # whose partials and backgrounds are carried through many additions.
    names = [f"x{i}" for i in range(1, 9)]

    def lin(coef):
        return " + ".join(f"{c!r}*{name}" for c, name in zip(coef, names))

    h1 = f"{lin([0.3, -1.2, 0.7, 2.1, -0.4, 1.5, -0.9, 0.25])} + 0.75*x3^2 + -0.5*(cos(x7) - 1)"
    h2 = f"{lin([-0.8, 0.6, 1.1, -2.3, 0.05, -0.7, 1.9, 0.4])} + -0.3*x8^2 + 0.9*(cos(x2) - 1)"
    special = [0.0, -0.0, 1e-200, 1e300, math.inf, -math.inf, math.nan, 0.5]
    points = [special[k:] + special[:k] for k in range(8)]
    points += [[v if i == k else 0.25 * (i - 3) for i in range(8)]
               for v in special for k in (1, 2, 6, 7)]
    for text in (h1, h2, f"({h1}) + ({h2})^2"):
        for x in points:
            assert_matches_walker(text, x, names)


def test_generated_code_grows_linearly_with_a_sum(monkeypatch):
    # Only what is read twice gets a local, so the k partials of a k-term
    # linear form do not each cost a statement per term.
    lines = []
    define = expr._Codegen.define

    def counting_define(self, name, args, body, tail):
        lines.append(len(body) + 2)  # the def line, the body and the return
        return define(self, name, args, body, tail)

    monkeypatch.setattr(expr._Codegen, "define", counting_define)

    def size(k):
        lines.clear()
        names = [f"x{i}" for i in range(k)]
        text = " + ".join(f"{(-1) ** i * (i + 1) * 0.25}*x{i}" for i in range(k))
        e = parse(text, names)
        e.value_and_gradient([0.5] * k)  # value mode: nothing is compiled
        assert not lines
        e.value_and_gradient([0.5] * k)
        return sum(lines)

    assert size(32) / size(16) <= 2.3


def test_inline_partials_past_the_nesting_cap_match_walker():
    # Multiplying by 1 emits no statement, so only the cap on inline nesting
    # binds these partials.
    for text in ("x1*x2" + "*1" * 248, "1*(" * 99 + "x1*x2" + ")" * 99):
        for x in ([0.5, -0.0, 2.0], [1e300, 1e-200, 0.0], [math.inf, 1.0, math.nan]):
            assert_matches_walker(text, x)


def test_compiled_functions_are_cached_and_invisible():
    e, same = parse("x1 * x2", NAMES), parse("x1 * x2", NAMES)
    before = repr(e)
    e.value_and_gradient([1.0, 2.0, 3.0])  # computed by the generator
    assert not callable(e._grad_code) and same._grad_code is None
    assert e == same and hash(e) == hash(same) and repr(e) == before
    assert pickle.loads(pickle.dumps(e))._grad_code is None
    e.value_and_gradient([1.0, 2.0, 3.0])  # compiled
    compiled = e._grad_code
    e.value_and_gradient([2.0, 2.0, 3.0])
    assert callable(compiled) and e._grad_code is compiled and same._grad_code is None
    assert e == same and hash(e) == hash(same) and repr(e) == before


@pytest.mark.parametrize("func", ["sin", "cos", "tan"])
def test_trig_of_infinite_argument_is_a_domain_error(func):
    e = parse(f"x2 - {func}(x1^400)", ["x1", "x2"])
    for fn in (e.evaluate, e.value_and_gradient):
        with pytest.raises(DomainEvaluationError, match=f"{func} of an infinite value"):
            fn([10.0, 0.0])


def test_compiled_expression_pickles():
    e = parse("x1 * sin(x2) + x3^2", NAMES)
    x = [0.5, -1.0, 2.0]
    value, grad = e.value_and_gradient(x)
    again = pickle.loads(pickle.dumps(e))
    assert again == e and again._grad_code is None
    assert again.value_and_gradient(x)[0] == value
    assert _bits(again.value_and_gradient(x)[1]) == _bits(grad)


def test_value_mode_multiplies_an_integer_power_as_floats(monkeypatch):
    # Value mode runs the compiled power loop's products over floats, not one
    # generator multiplication per factor: x1^100000 costs no mul call.
    calls = []
    mul = expr._Codegen.mul

    def counting_mul(self, a, b):
        calls.append(self.x is not None)
        return mul(self, a, b)

    monkeypatch.setattr(expr._Codegen, "mul", counting_mul)
    e = parse("x1^100000 + x2", ["x1", "x2"])
    assert e.value_and_gradient([1.0, 2.0])[0] == 3.0
    assert e.evaluate([1.0, 2.0]) == 3.0
    assert not any(calls)
    for text in ("x1^1000 + x2", "x3 * (x1 - x2)^7", "x2^5 / x1^(-6)", "(-2)^9 * x1^3"):
        for x in ([1.0001, 2.0, 0.5], [-0.9995, -0.0, 3.0], [0.0, -0.0, 1.0],
                  [1e-300, 1.0, -1.0], [math.inf, 1.0, 1.0], [math.nan, 0.0, 0.0]):
            assert_matches_walker(text, x)


def _row_outcome(values, rows, errors, p, i):
    if (p, i) in errors:
        return type(errors[p, i]), str(errors[p, i])
    return "ok", _bits(values[p, i]), _bits(rows[p, i])


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(texts, min_size=1, max_size=3), points)
@example(["x1 + -0.0", "x1 - 0.0", "-0.0 + x1"],
         [[0.0, 1.0, 1.0], [-0.0, 1.0, 1.0], [math.inf, 0.0, 0.0], [-math.inf, 0.0, 0.0],
          [math.nan, 0.0, 0.0], [-2.5, -0.0, 0.0]])
@example(["log(x1) - x2", "sqrt(x2) * x3", "x3 / x1"],
         [[1.0, 4.0, 2.0], [-1.0, 4.0, -0.0], [0.0, -1.0, 1.0], [-0.0, 0.0, math.inf]])
def test_evaluate_rows_matches_one_point_calls_and_walker(sources, xs):
    # Each (point, function) pair of a batch reads what one point gives,
    # bit for bit, in value mode, through the compiled code and in the
    # walker; a domain error sits at the same pair with the same message.
    functions = [parse(text, NAMES) for text in sources]
    with np.errstate(all="ignore"):
        values, rows, errors = evaluate_rows(functions, np.array(xs, dtype=float))
    for p, x in enumerate(xs):
        for i, f in enumerate(functions):
            got = _row_outcome(values, rows, errors, p, i)
            _assert_same(got, _walked(walk_value_and_gradient, f, x), (f.source, x))
            fresh = parse(f.source, NAMES)  # its first call runs in value mode
            for e in (fresh, f):  # f is compiled by the batch
                assert _outcome(lambda e, x: e.value_and_gradient(x), e, x) == got, (f.source, x)
            if got[0] != "ok":  # a failed pair keeps +0.0 entries
                assert _bits(values[p, i]) == 0 and _bits(rows[p, i]) == [0] * len(NAMES)
