from collections import Counter

import numpy as np
import pytest
from numpy.random import PCG64, Generator

from cq_analyzer import expr
from cq_analyzer.expr import DomainEvaluationError
from finite_diff import finite_diff_gradient


@pytest.fixture
def compiled_sources(monkeypatch):
    """The source text of each expression compiled from now on, once per
    compiled function."""
    sources = []
    define = expr._Codegen.define

    def counting_define(self, name, args, body, tail):
        sources.append(self.source)
        return define(self, name, args, body, tail)

    monkeypatch.setattr(expr._Codegen, "define", counting_define)
    return sources


@pytest.fixture
def gradient_calls(monkeypatch):
    """Calls of each expression's compiled gradient code from now on, the
    code ``evaluate_rows`` runs, per (expression source, point bytes)."""
    calls = Counter()
    compiled = expr.Expression._compiled

    def counting_compiled(self, grad):
        code = compiled(self, grad)
        if not grad:
            return code

        def counting(point):
            calls[self.source, np.array(point, dtype=float).tobytes()] += 1
            return code(point)
        return counting

    monkeypatch.setattr(expr.Expression, "_compiled", counting_compiled)
    return calls


def random_domain_points(e, count, seed, low=0.1, high=2.0):
    """Seeded points with |x_j| in [low, high]; rejects domain failures.

    The lower bound keeps points away from singular sets (1/x near 0) so the
    central-difference truncation error stays far below the comparison
    tolerance.
    """
    rng = Generator(PCG64(seed))
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        assert attempts < 50 * count, "could not find enough domain-valid points"
        x = rng.uniform(low, high, size=e.dimension)
        x *= np.where(rng.uniform(size=e.dimension) < 0.5, -1.0, 1.0)
        try:
            e.gradient(x)
            finite_diff_gradient(e, x, 1e-6)
        except DomainEvaluationError:
            continue
        points.append(x)
    return points
