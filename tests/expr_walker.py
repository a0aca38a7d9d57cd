"""The former AST walker of ``cq_analyzer.expr``, kept as a test oracle.

Before expressions were compiled into straight-line code, every evaluation
walked the AST and built a :class:`DualNumber` at each node.  The classes
below are that evaluator, unchanged; ``tests/test_expr_oracle.py`` checks
that the compiled code reproduces it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from cq_analyzer.expr import (
    AstNode,
    BinOp,
    Call,
    DomainEvaluationError,
    Expression,
    IntPow,
    Neg,
    Num,
    Pow,
    Var,
)


@dataclass(frozen=True)
class DualNumber:
    """Value plus the vector of partial derivatives at the evaluation point."""

    value: float
    partials: Optional[np.ndarray]


class _Evaluator:
    def __init__(self, source: str, point: Sequence[float], n: int, want_grad: bool):
        self.source = source
        self.point = point
        self.n = n
        self.want_grad = want_grad

    def frag(self, node: AstNode) -> str:
        return self.source[node.span[0]:node.span[1]]

    def run(self, node: AstNode) -> DualNumber:
        d = self.eval(node)
        if not math.isfinite(d.value) or (
            d.partials is not None and not np.all(np.isfinite(d.partials))
        ):
            raise DomainEvaluationError("non-finite result", self.frag(node))
        return d

    def eval(self, node: AstNode) -> DualNumber:
        grad = self.want_grad
        if isinstance(node, Num):
            return DualNumber(node.value, np.zeros(self.n) if grad else None)
        if isinstance(node, Var):
            p = None
            if grad:
                p = np.zeros(self.n)
                p[node.index] = 1.0
            return DualNumber(float(self.point[node.index]), p)
        if isinstance(node, Neg):
            a = self.eval(node.operand)
            return DualNumber(-a.value, None if not grad else -a.partials)
        if isinstance(node, BinOp):
            a = self.eval(node.left)
            b = self.eval(node.right)
            if node.op == "+":
                return DualNumber(a.value + b.value,
                                  None if not grad else a.partials + b.partials)
            if node.op == "-":
                return DualNumber(a.value - b.value,
                                  None if not grad else a.partials - b.partials)
            if node.op == "*":
                return DualNumber(
                    a.value * b.value,
                    None if not grad else a.partials * b.value + a.value * b.partials,
                )
            if b.value == 0.0:
                raise DomainEvaluationError("division by zero", self.frag(node))
            value = a.value / b.value
            p = None
            if grad:
                p = (a.partials * b.value - a.value * b.partials) / (b.value * b.value)
            return DualNumber(value, p)
        if isinstance(node, IntPow):
            base = self.eval(node.base)
            p = abs(node.exponent)
            out = DualNumber(1.0, np.zeros(self.n) if grad else None)
            for _ in range(p):  # repeated multiplication keeps t^3 exact
                out = DualNumber(
                    out.value * base.value,
                    None if not grad else out.partials * base.value + out.value * base.partials,
                )
            if node.exponent < 0:
                if out.value == 0.0:
                    raise DomainEvaluationError(
                        "zero raised to a negative power", self.frag(node)
                    )
                value = 1.0 / out.value
                pp = None if not grad else -out.partials / (out.value * out.value)
                return DualNumber(value, pp)
            return out
        if isinstance(node, Pow):
            base = self.eval(node.base)
            if base.value <= 0.0:
                raise DomainEvaluationError(
                    "non-integer power of a non-positive base", self.frag(node)
                )
            exponent = self.eval(node.exponent)
            # exp(p * log x): the dual chain supplies the derivative.
            log_base = self.call_value("log", base, node)
            product = DualNumber(
                exponent.value * log_base.value,
                None if not grad else exponent.partials * log_base.value
                + exponent.value * log_base.partials,
            )
            return self.call_value("exp", product, node)
        if isinstance(node, Call):
            arg = self.eval(node.arg)
            return self.call_value(node.func, arg, node)
        raise AssertionError(f"unhandled node {node!r}")

    def call_value(self, func: str, arg: DualNumber, node: AstNode) -> DualNumber:
        grad = self.want_grad
        x = arg.value
        if func == "sin":
            return DualNumber(math.sin(x), None if not grad else math.cos(x) * arg.partials)
        if func == "cos":
            return DualNumber(math.cos(x), None if not grad else -math.sin(x) * arg.partials)
        if func == "tan":
            c = math.cos(x)
            return DualNumber(math.tan(x), None if not grad else arg.partials / (c * c))
        if func == "exp":
            try:
                v = math.exp(x)
            except OverflowError:
                raise DomainEvaluationError("overflow in exp", self.frag(node)) from None
            return DualNumber(v, None if not grad else v * arg.partials)
        if func == "log":
            if x <= 0.0:
                raise DomainEvaluationError(
                    "logarithm of a non-positive value", self.frag(node)
                )
            return DualNumber(math.log(x), None if not grad else arg.partials / x)
        if func == "sqrt":
            if x < 0.0:
                raise DomainEvaluationError(
                    "square root of a negative value", self.frag(node)
                )
            if grad and x == 0.0:
                raise DomainEvaluationError(
                    "sqrt is not differentiable at zero", self.frag(node)
                )
            v = math.sqrt(x)
            return DualNumber(v, None if not grad else arg.partials / (2.0 * v))
        raise AssertionError(f"unknown function {func}")


def walk_value(e: Expression, point: Sequence[float]) -> float:
    """What ``Expression.evaluate`` returned when it walked the AST."""
    point = e._floats(point)
    return _Evaluator(e.source, point, len(e.variables), want_grad=False).run(e.root).value


def walk_value_and_gradient(e: Expression, point: Sequence[float]) -> tuple[float, np.ndarray]:
    """What ``Expression.value_and_gradient`` returned when it walked the AST."""
    point = e._floats(point)
    d = _Evaluator(e.source, point, len(e.variables), want_grad=True).run(e.root)
    return d.value, d.partials
