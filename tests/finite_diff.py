"""Central-difference gradients: the tests' independent oracle for
:meth:`cq_analyzer.expr.Expression.gradient`, which the package itself does
not need.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from cq_analyzer.expr import Expression


def finite_diff_gradient(e: Expression, point: Sequence[float], step: float) -> np.ndarray:
    """Central-difference gradient with per-component step ``step*(1+|x_j|)``.

    Serves as the independent oracle for :meth:`Expression.gradient`; raises
    :class:`DomainEvaluationError` if any probe point leaves the domain.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    x = np.array(e._floats(point))
    out = np.zeros(len(x))
    for j in range(len(x)):
        h = step * (1.0 + abs(x[j]))
        up = x.copy()
        up[j] += h
        down = x.copy()
        down[j] -= h
        out[j] = (e.evaluate(up) - e.evaluate(down)) / (2.0 * h)
    return out
