"""Parsing, evaluation, and exact first derivatives for a small expression language.

Grammar (whitespace insignificant)::

    expr    := term (("+"|"-") term)*
    term    := factor (("*"|"/") factor)*
    factor  := ("-")? power
    power   := atom ("^" power)?          right-associative, binds tighter than unary minus
    atom    := number | identifier | identifier "(" expr ")" | "(" expr ")"

Known functions: sin, cos, tan, exp, log, sqrt.  Numbers are decimals with
an optional exponent.  Non-differentiable primitives (abs, min, max) are
deliberately absent, so every parsed expression is C1 on its natural domain.

Derivatives are computed in forward mode and are exact up to floating-point
rounding.  Each expression generates straight-line Python over float
scalars, one function for the value and one for value and gradient.  The
first call in each mode runs the generator on the point's numbers and
compiles nothing; the second compiles the code, which every later call
runs.  Integer powers are expanded into repeated multiplication, which
keeps expressions like ``t^3`` exact; a non-integer exponent falls back to
``exp(p*log(x))`` and requires a positive base.  Division by zero,
logarithms and roots outside their domain, trigonometric functions of an
infinite argument and overflow all raise :class:`DomainEvaluationError`
instead of propagating non-finite values.

Expressions are immutable after parsing (the compiled functions are a cache
outside equality, hashing and repr) and evaluation is side-effect free, so a
single :class:`Expression` may be shared across concurrent evaluators.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "ArityMismatchError",
    "DomainEvaluationError",
    "Expression",
    "ExpressionError",
    "ExprSyntaxError",
    "FUNCTIONS",
    "UnknownIdentifierError",
    "parse",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")

# Deeper input is a syntax error.  Under the default limit of 1000 Python
# frames, compiling recurses one frame per tree level (980 levels compile),
# the generated == and repr about three (330 levels), and the parser five
# per parenthesis or function argument (195 levels).  The bounds leave room
# for the callers' frames.
MAX_DEPTH = 250
MAX_NESTING = 100


class ExpressionError(ValueError):
    """Base class for every error raised by this module."""


class ExprSyntaxError(ExpressionError):
    """Malformed input text; ``position`` is the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class UnknownIdentifierError(ExpressionError):
    """An identifier that is neither a declared variable nor a known function."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier '{name}' (offset {position})")
        self.name = name
        self.position = position


class ArityMismatchError(ExpressionError):
    """A function used without an argument, or a variable applied like a function."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class DomainEvaluationError(ExpressionError):
    """Evaluation left the expression's natural domain (1/0, log(-1), ...)."""

    def __init__(self, message: str, fragment: str):
        super().__init__(f"{message} in '{fragment}'")
        self.fragment = fragment


# ---------------------------------------------------------------------------
# AST nodes.  ``span`` is the (start, end) offset range in the source text,
# for error messages; it is excluded from equality, so that two trees of the
# same structure compare equal wherever they were parsed from.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float
    span: tuple = field(compare=False, repr=False, default=(0, 0))


@dataclass(frozen=True)
class Var:
    name: str
    index: int
    span: tuple = field(compare=False, repr=False, default=(0, 0))


@dataclass(frozen=True)
class Neg:
    operand: "AstNode"
    span: tuple = field(compare=False, repr=False, default=(0, 0))


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "AstNode"
    right: "AstNode"
    span: tuple = field(compare=False, repr=False, default=(0, 0))


@dataclass(frozen=True)
class IntPow:
    base: "AstNode"
    exponent: int
    span: tuple = field(compare=False, repr=False, default=(0, 0))


@dataclass(frozen=True)
class Pow:
    base: "AstNode"
    exponent: "AstNode"
    span: tuple = field(compare=False, repr=False, default=(0, 0))


@dataclass(frozen=True)
class Call:
    func: str
    arg: "AstNode"
    span: tuple = field(compare=False, repr=False, default=(0, 0))


AstNode = Union[Num, Var, Neg, BinOp, IntPow, Pow, Call]
_NODE_TYPES = (Num, Var, Neg, BinOp, IntPow, Pow, Call)  # for isinstance, which is slow on a Union


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# One alternative per token kind, tried in this order; the search skips the
# whitespace between tokens, and any other character is unexpected.
_TOKEN_RE = re.compile(r"(?P<op>[-+*/^()])|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                       r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<bad>\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The ``(kind, text, offset)`` tokens of ``text``, kind "op", "num",
    "ident", or "end" for the one that closes the list."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ExprSyntaxError(f"unexpected character '{m.group()}'", m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent, one token of lookahead)
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0
        self.nesting = -1  # open parentheses; the top-level expr() makes it 0
        self.var_index = {name: i for i, name in enumerate(variables)}

    def accept_op(self, ops: tuple) -> Optional[tuple]:
        tok = self.tokens[self.k]
        if tok[0] == "op" and tok[1] in ops:
            self.k += 1
            return tok
        return None

    def fail(self, message: str) -> ExprSyntaxError:
        return ExprSyntaxError(message, self.tokens[self.k][2])

    def parse(self) -> AstNode:
        node = self.expr()
        kind, text, _ = self.tokens[self.k]
        if kind != "end":
            raise self.fail(f"unexpected token '{text}'")
        return node

    def expr(self) -> AstNode:
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise self.fail(f"parentheses nest deeper than {MAX_NESTING} levels")
        node = self.term()
        while True:
            tok = self.accept_op(("+", "-"))
            if tok is None:
                self.nesting -= 1
                return node
            right = self.term()
            node = BinOp(tok[1], node, right, span=(node.span[0], right.span[1]))

    def term(self) -> AstNode:
        node = self.factor()
        while True:
            tok = self.accept_op(("*", "/"))
            if tok is None:
                return node
            right = self.factor()
            node = BinOp(tok[1], node, right, span=(node.span[0], right.span[1]))

    def factor(self) -> AstNode:
        tok = self.accept_op(("-",))
        node = self.power()
        if tok is not None:
            return Neg(node, span=(tok[2], node.span[1]))
        return node

    def power(self) -> AstNode:
        operands = [self.atom()]
        while self.accept_op(("^",)) is not None:
            operands.append(self.atom())
        node = operands.pop()
        while operands:  # right-associative
            base = operands.pop()
            span = (base.span[0], node.span[1])
            p = _const_int(node)
            node = IntPow(base, p, span=span) if p is not None else Pow(base, node, span=span)
        return node

    def atom(self) -> AstNode:
        kind, text, pos = self.tokens[self.k]
        if kind == "num":
            self.k += 1
            return Num(float(text), span=(pos, pos + len(text)))
        if kind == "ident":
            self.k += 1
            if text in self.var_index:
                if self.accept_op(("(",)):
                    raise ArityMismatchError(f"'{text}' is a variable, not a function", pos)
                return Var(text, self.var_index[text], span=(pos, pos + len(text)))
            if text in FUNCTIONS:
                if self.accept_op(("(",)) is None:
                    raise ArityMismatchError(
                        f"function '{text}' requires one parenthesized argument", pos)
                arg = self.expr()
                closing = self.accept_op((")",))
                if closing is None:
                    raise self.fail("expected ')'")
                return Call(text, arg, span=(pos, closing[2] + 1))
            raise UnknownIdentifierError(text, pos)
        if text == "(":
            self.k += 1
            node = self.expr()
            closing = self.accept_op((")",))
            if closing is None:
                raise self.fail("expected ')'")
            return replace(node, span=(pos, closing[2] + 1))
        raise self.fail(f"expected a number, identifier, or '(', got '{text or 'end of input'}'")


def _check_depth(root: AstNode) -> None:
    """Raise if the tree has more than MAX_DEPTH levels (walked without recursion)."""
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels",
                                  node.span[0])
        stack.extend((child, depth + 1) for child in vars(node).values()
                     if isinstance(child, _NODE_TYPES))


def _const_int(node: AstNode) -> Optional[int]:
    """Return the integer value of a constant exponent, or None."""
    if isinstance(node, Num):
        if float(node.value).is_integer() and abs(node.value) < 2**31:
            return int(node.value)
        return None
    if isinstance(node, Neg):
        inner = _const_int(node.operand)
        return None if inner is None else -inner
    return None


# ---------------------------------------------------------------------------
# Evaluation: forward mode (Griewank & Walther, *Evaluating Derivatives*, 2nd
# ed., SIAM 2008) compiled to straight-line code.  A node carries partials for
# the variables it depends on plus one "background" operand: every other
# component of a dense pass starts at +0.0 and sees one formula applied to
# equal inputs.  Each operation is the dense pass's own, so results match it
# bit for bit, signed zeros and NaNs included.
# ---------------------------------------------------------------------------

_HOIST = 30  # a subtree of more statements is compiled as its own helper (bounds a compile's memory)
_CAP = 40  # an inline operand nested deeper than this is bound to a local

# Python precedence of an inline operand's outermost operation.
_COND, _ADD, _MUL, _NEG, _ATOM = range(5)
_PREC = {"+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL}

_GLOBALS = {"_E": DomainEvaluationError, "_inf": math.inf,
            **{f"_{name}": getattr(math, name) for name in (*FUNCTIONS, "isinf", "isfinite")}}

# Folding two constants while generating runs the IEEE operation the code
# would run.  A zero divisor reaches "/" only in a partial over a square that
# underflowed to +0.0, where numpy's x / +0.0 equals x * inf.
_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul,
         "/": lambda a, b: a / b if b else a * math.inf}

# Each domain check's test, as text over its operand and as a function of it.
_TESTS = {"{} == 0.0": lambda v: v == 0.0, "{} <= 0.0": lambda v: v <= 0.0,
          "{} < 0.0": lambda v: v < 0.0, "_isinf({})": math.isinf,
          "not _isfinite({})": lambda v: not math.isfinite(v)}

# The right operand of each operation that leaves the left one unchanged,
# bit for bit (+-0, +-inf and NaN included): x * 1.0, x + -0.0 and x - 0.0.
_UNITS = {"*": 1.0, "+": -0.0, "-": 0.0}


def _flat(r) -> list:
    return [r[0]] if r[1] is None else [r[0], *r[1].values(), r[2]]


class _Codegen:
    """Straight-line code for one expression, with or without the gradient.

    An operand is a float known while generating, the name of a local, or an
    inline ``(text, precedence, depth)``: a Python expression written into
    the one place that reads it instead of a statement of its own.  The
    checks that guard an inline operand are emitted before it, and it cannot
    raise once they have passed, so inlining only moves pure operations
    later and keeps every value and error of one statement per operation.
    A node yields ``(value, partials, background)`` with its value bound,
    since most readers read it more than once: in gradient mode ``partials``
    maps each variable index the node depends on to an operand; in value
    mode both are None.

    In value mode, given the point ``x``, every operand is a float: each
    operation runs as it is generated, as the same IEEE operation the code
    would run, a failed check raises at once, and ``function`` returns what
    the compiled code would.  Nothing is emitted, so nothing is hoisted or
    compiled.
    """

    def __init__(self, expr: "Expression", grad: bool, x: Optional[list[float]] = None):
        self.source, self.n, self.grad, self.x = expr.source, len(expr.variables), grad, x
        self.ns = dict(_GLOBALS)
        self.lines, self.loaded = [], set()  # statements, variable indices read
        self.names = (f"t{i}" for i in itertools.count(1))
        self.const = ({}, 0.0) if grad else (None, None)  # a constant's partials, background

    # -- operands -----------------------------------------------------------

    def lit(self, op) -> str:
        if isinstance(op, str):
            return op
        if isinstance(op, tuple):
            return op[0]
        if math.isfinite(op):
            return repr(op)
        name = f"_k{len(self.ns)}"
        self.ns[name] = op
        return name

    def inline_of(self, op) -> tuple:
        """``op`` as an inline operand; a negative literal reads like a negation."""
        if isinstance(op, tuple):
            return op
        text = self.lit(op)
        return text, _NEG if text[0] == "-" else _ATOM, 0

    def let(self, op):
        """Bind an inline operand to a fresh local; floats and names pass."""
        if not isinstance(op, tuple):
            return op
        name = next(self.names)
        self.lines.append(f"{name} = {op[0]}")
        return name

    def bin(self, a, sym: str, b):
        if isinstance(a, float):
            if isinstance(b, float):
                return _FOLD[sym](a, b)
            if a == 1.0 and sym == "*":  # 1.0 * x is x, bit for bit
                return b
        elif (isinstance(b, float) and b == _UNITS.get(sym)
              and math.copysign(1.0, b) == math.copysign(1.0, _UNITS[sym])):
            return a
        prec = _PREC[sym]
        x, pa, da = self.inline_of(a)
        y, pb, db = self.inline_of(b)
        # Left to right: a right operand of equal precedence keeps its parentheses.
        return self.inline(f"{x if pa >= prec else f'({x})'} {sym} {y if pb > prec else f'({y})'}",
                           prec, (da if da > db else db) + 1)

    def inline(self, text: str, prec: int, depth: int):
        """An inline operand, or a local once it nests deeper than _CAP."""
        return (text, prec, depth) if depth <= _CAP else self.let((text, prec, depth))

    def over(self, a, d):
        """``a / d`` for a square ``d``, with numpy's result where d is +0.0."""
        if isinstance(d, float):
            return self.bin(a, "/", d) if d else self.bin(a, "*", math.inf)
        a = self.lit(self.let(a))  # read in both branches
        return f"{a} / {d} if {d} else {a} * _inf", _COND, 1

    def neg(self, a):
        if isinstance(a, float):
            return -a
        x, p, d = self.inline_of(a)
        return self.inline(f"-{x}" if p == _ATOM else f"-({x})", _NEG, d + 1)

    def each(self, f, a, b=None):
        """Apply ``f`` to matching partials of ``a`` (and ``b``) and to their backgrounds.

        ``f`` reads each argument once; a background that also stands in for
        a missing partial is read more than once, so it is bound.
        """
        if not self.grad:
            return None, None
        if b is None:
            return {j: f(p) for j, p in a[1].items()}, f(a[2])
        pa, pb = a[1], b[1]
        support = sorted(pa.keys() | pb.keys())
        ba = self.let(a[2]) if len(pa) < len(support) else a[2]
        bb = self.let(b[2]) if len(pb) < len(support) else b[2]
        return {j: f(pa.get(j, ba), pb.get(j, bb)) for j in support}, f(ba, bb)

    def hold(self, r):
        """``r`` with its value bound."""
        return self.let(r[0]), r[1], r[2]

    def bind(self, r):
        """``r`` with every operand bound, for a reader that reads each more than once."""
        v, parts = self.let(r[0]), r[1] and {j: self.let(p) for j, p in r[1].items()}
        return v, parts, self.let(r[2])

    def check(self, node: AstNode, message: str, test: str, *ops) -> None:
        """Raise ``message`` where ``test`` holds for one of ``ops``: from an
        emitted statement, or at once in value mode."""
        fragment = self.source[slice(*node.span)]
        if self.x is None:
            cond = " or ".join(test.format(self.lit(op)) for op in ops)
            self.lines.append(f"if {cond}: raise _E({message!r}, {fragment!r})")
        elif any(map(_TESTS[test], ops)):
            raise DomainEvaluationError(message, fragment)

    def define(self, name: str, args: str, body: list[str], tail: str):
        text = "".join(f"    {line}\n" for line in [*body, tail])
        scope = dict(self.ns)  # globals that do not hold the function: no reference cycle
        exec(compile(f"def {name}({args}):\n{text}", f"<expression {name}>", "exec"), scope)
        return self.ns.setdefault(name, scope.pop(name))

    # -- nodes --------------------------------------------------------------

    def function(self, root: AstNode):
        v, parts, bg = self.node(root)
        if self.grad:  # each component is read by the finiteness check and the return
            parts = {j: self.let(p) for j, p in parts.items()}
            bg = self.let(bg) if len(parts) < self.n else bg
        out = [v, *(parts.get(j, bg) for j in range(self.n) if self.grad)]
        if self.x is not None:
            self.check(root, "non-finite result", "not _isfinite({})", *out)
            return tuple(out) if self.grad else v
        out = [self.lit(op) for op in out]
        unknown = [op for op in dict.fromkeys(out) if op.isidentifier()]  # not a finite literal
        if unknown:  # a - a is 0.0 where a is finite and NaN where it is not
            probe = " + ".join(f"{op} - {op}" for op in unknown) if unknown[1:] else unknown[0]
            self.check(root, "non-finite result", "not _isfinite({})", probe)
        ret = ", ".join(out) + "," if self.grad else out[0]
        return self.define("_f", "x", self.lines, f"return {ret}")

    def node(self, node: AstNode):
        """Emit ``node``, recursing in one frame per tree level; a subtree of
        more than _HOIST statements becomes a separately compiled helper."""
        outer, loaded = self.lines, self.loaded
        self.lines, self.loaded = [], set(loaded)
        if isinstance(node, Num):
            r = (float(node.value), *self.const)
        elif isinstance(node, Var):
            i = node.index
            v = f"v{i}" if self.x is None else self.x[i]
            if self.x is None and i not in self.loaded:
                self.loaded.add(i)
                self.lines.append(f"{v} = x[{i}]")
            r = (v, *(({i: 1.0}, 0.0) if self.grad else self.const))
        elif isinstance(node, Neg):
            a = self.node(node.operand)
            r = (self.neg(a[0]), *self.each(self.neg, a))
        elif isinstance(node, BinOp):
            a, b = self.node(node.left), self.node(node.right)
            av, bv = a[0], b[0]
            if node.op == "*":
                r = self.mul(a, b)
            elif node.op in "+-":
                r = (self.bin(av, node.op, bv),
                     *self.each(lambda p, q: self.bin(p, node.op, q), a, b))
            else:
                self.check(node, "division by zero", "{} == 0.0", bv)
                d = self.let(self.bin(bv, "*", bv)) if self.grad else None
                r = (self.bin(av, "/", bv), *self.each(lambda p, q: self.over(
                    self.bin(self.bin(p, "*", bv), "-", self.bin(av, "*", q)), d), a, b))
        elif isinstance(node, IntPow):
            base = self.node(node.base)
            r, p = (1.0, *self.const), abs(node.exponent)
            if p > 1:
                base = self.bind(base)  # read once per factor
            if isinstance(base[0], float):  # value mode, or a constant base
                r = self.power_floats(base, p)
            elif p > 4:
                r = self.power_loop(base, p)
            else:
                for _ in range(p):  # repeated multiplication keeps t^3 exact
                    r = self.hold(self.mul(r, base))
            if node.exponent < 0:
                self.check(node, "zero raised to a negative power", "{} == 0.0", r[0])
                d = self.let(self.bin(r[0], "*", r[0])) if self.grad else None
                r = (self.bin(1.0, "/", r[0]), *self.each(lambda q: self.over(self.neg(q), d), r))
        elif isinstance(node, Pow):
            base = self.node(node.base)
            self.check(node, "non-integer power of a non-positive base", "{} <= 0.0", base[0])
            exponent = self.node(node.exponent)
            # exp(p * log x): the chain rule supplies the derivative.
            log_base = self.hold(self.call("log", base, node))
            r = self.call("exp", self.hold(self.mul(exponent, log_base)), node)
        else:
            r = self.call(node.func, self.node(node.arg), node)
        r = self.hold(r)
        body, self.lines = self.lines, outer
        if len(body) <= _HOIST:
            outer.extend(body)
            return r
        # The helper returns every operand that is not a constant, inline ones
        # included, and the caller binds each to a name.
        self.loaded = loaded
        ops = [op for op in dict.fromkeys(_flat(r)) if not isinstance(op, float)]
        names = {op: op if isinstance(op, str) else next(self.names) for op in ops}
        helper, args = f"_h{len(self.ns)}", ", ".join(["x", *(f"v{i}" for i in sorted(loaded))])
        self.define(helper, args, body, "return " + "".join(f"{self.lit(op)}, " for op in ops))
        targets = "".join(f"{name}, " for name in names.values())
        outer.append(f"{targets}= {helper}({args})" if targets else f"{helper}({args})")
        get = names.get
        return get(r[0], r[0]), r[1] and {j: get(p, p) for j, p in r[1].items()}, get(r[2], r[2])

    def mul(self, a, b):
        return (self.bin(a[0], "*", b[0]), *self.each(
            lambda p, q: self.bin(self.bin(p, "*", b[0]), "+", self.bin(a[0], "*", q)), a, b))

    def power_loop(self, base, p: int):
        """``1.0 * base * ... * base`` with ``p`` factors, as a loop over bound ``base``."""
        k = next(self.names)
        parts = {j: f"{k}_{j}" for j in sorted(base[1])} if self.grad else None
        cur = (k, parts, f"{k}_b" if self.grad else None)
        names = ", ".join(_flat(cur))
        start = ", ".join(["1.0"] + ["0.0"] * (len(_flat(cur)) - 1))
        step = ", ".join(self.lit(op) for op in _flat(self.mul(cur, base)))
        self.lines += [f"{names} = {start}", f"for _ in range({p}):", f"    {names} = {step}"]
        return cur

    def power_floats(self, base, p: int):
        """``power_loop`` over a base of floats: the same products in the same order."""
        b, b_parts, b_bg = base

        def power(c):  # the value, and the partial along a partial c of the base
            v, q = 1.0, 0.0
            for _ in range(p):
                v, q = v * b, q * b + v * c
            return v, q

        if not self.grad:
            return power(0.0)[0], None, None
        v, bg = power(b_bg)
        return v, {j: power(c)[1] for j, c in b_parts.items()}, bg

    def apply(self, func: str, arg):
        """``func`` of a rendered argument: its float in value mode, else inline."""
        return getattr(math, func)(arg) if self.x is not None else (f"_{func}({arg})", _ATOM, 1)

    def call(self, func: str, a, node: AstNode):
        """``func`` of ``a``; partials scale by ``factor`` or divide by ``divisor``."""
        x, grad = a[0], self.grad
        arg = x if self.x is not None else self.lit(x)
        value = factor = divisor = None  # the value waits for the checks
        if func in ("sin", "cos", "tan"):
            self.check(node, f"{func} of an infinite value", "_isinf({})", arg)
        if grad and func in ("sin", "cos"):
            factor = self.let(self.apply("cos", arg) if func == "sin"
                              else self.neg(self.apply("sin", arg)))
        elif grad and func == "tan":
            c = self.let(self.apply("cos", arg))
            divisor = self.let(self.bin(c, "*", c))
        elif func == "exp":
            frag = self.source[slice(*node.span)]
            if self.x is not None:
                try:
                    factor = value = math.exp(arg)
                except OverflowError:
                    raise DomainEvaluationError("overflow in exp", frag) from None
            else:
                factor = value = next(self.names)
                self.lines += ["try:", f"    {value} = _exp({arg})", "except OverflowError:",
                               f"    raise _E('overflow in exp', {frag!r}) from None"]
        elif func == "log":
            self.check(node, "logarithm of a non-positive value", "{} <= 0.0", arg)
            divisor = x
        elif func == "sqrt":
            self.check(node, "square root of a negative value", "{} < 0.0", arg)
            if grad:
                self.check(node, "sqrt is not differentiable at zero", "{} == 0.0", arg)
            value = self.let(self.apply("sqrt", arg))
            divisor = self.let(self.bin(2.0, "*", value)) if grad else None
        if value is None:
            value = self.apply(func, arg)
        if factor is not None:
            return (value, *self.each(lambda p: self.bin(factor, "*", p), a))
        return (value, *self.each(lambda p: self.bin(p, "/", divisor), a))


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

# A code field after the first call in its mode, which the generator computed.
_ONCE = "computed once"


@dataclass(frozen=True)
class Expression:
    """An immutable parsed expression over an ordered list of variables."""

    root: AstNode
    variables: tuple[str, ...]
    source: str = field(compare=False)
    _value_code: Union[Callable, str, None] = field(default=None, init=False, repr=False,
                                                    compare=False)
    _grad_code: Union[Callable, str, None] = field(default=None, init=False, repr=False,
                                                   compare=False)

    def __getstate__(self) -> dict:
        # Compiled functions do not pickle; a copy starts over.
        return {k: v for k, v in vars(self).items() if not k.endswith("_code")}

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def _floats(self, point: Sequence[float]) -> list[float]:
        """``point`` as the list of Python floats the code reads."""
        if len(point) != len(self.variables):
            raise ValueError(
                f"point has length {len(point)}, expected {len(self.variables)}"
            )
        return [float(c) for c in point]

    def evaluate(self, point: Sequence[float]) -> float:
        """IEEE double value of the expression at ``point``."""
        point = self._floats(point)
        code = self._value_code
        if code is None or code is _ONCE:
            return self._uncompiled(False, point)
        return code(point)

    def gradient(self, point: Sequence[float]) -> np.ndarray:
        """Vector of partial derivatives, exact up to rounding."""
        return self.value_and_gradient(point)[1]

    def value_and_gradient(self, point: Sequence[float]) -> tuple[float, np.ndarray]:
        """Value and gradient from a single forward-mode pass."""
        point = self._floats(point)
        code = self._grad_code
        out = self._uncompiled(True, point) if code is None or code is _ONCE else code(point)
        return out[0], np.array(out[1:])

    def _uncompiled(self, grad: bool, point: list[float]):
        """A call in mode ``grad`` before its code is compiled: the first one
        runs the generator in value mode, the second compiles."""
        name = "_grad_code" if grad else "_value_code"
        if getattr(self, name) is None:
            object.__setattr__(self, name, _ONCE)
            return _Codegen(self, grad, point).function(self.root)
        return self._compiled(grad)(point)

    def _compiled(self, grad: bool) -> Callable:
        """The compiled code of mode ``grad``, compiled now if it is not yet.

        It takes a list of Python floats and returns the value, or in
        gradient mode the flat tuple ``(value, d_1, ..., d_n)``."""
        name = "_grad_code" if grad else "_value_code"
        code = getattr(self, name)
        if code is None or code is _ONCE:
            code = _Codegen(self, grad).function(self.root)
            object.__setattr__(self, name, code)
        return code


def parse(text: str, variables: Sequence[str]) -> Expression:
    """Parse ``text`` over the ordered variable list ``variables``.

    Raises :class:`ExprSyntaxError`, :class:`UnknownIdentifierError`, or
    :class:`ArityMismatchError` on malformed input; every error carries the
    0-based offset of the problem.  Input nested deeper than ``MAX_DEPTH``
    tree levels or ``MAX_NESTING`` parentheses is a syntax error.
    """
    for name in variables:
        if name in FUNCTIONS:
            raise ValueError(f"variable name '{name}' collides with a function name")
    if len(set(variables)) != len(tuple(variables)):
        raise ValueError("duplicate variable names")
    parser = _Parser(text, variables)
    root = parser.parse()
    # Each node takes a token of its own, so an expression of at most
    # MAX_DEPTH tokens (the end token takes none) is at most that deep.
    if len(parser.tokens) - 1 > MAX_DEPTH:
        _check_depth(root)
    return Expression(root=root, variables=tuple(variables), source=text)
