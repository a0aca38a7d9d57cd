"""The calibration kernel that defines the benchmark's time unit ``ref``.

One call takes a few milliseconds and mirrors the analyzer's own mix of work:
a recursive forward-mode derivative walk over a small tree of Python objects,
and small dense ``svd`` and ``pinv`` calls.  It shares no code with
``cq_analyzer``, so no change to the program can move it; a time in ``ref``
is program time divided by kernel time measured in the same process, which
cancels drift of the machine's speed.

The kernel is frozen.  Changing any constant or operation here redefines the
unit and makes every recorded ``ref`` figure incomparable, so it needs a
benchmark change of its own and a new baseline.
"""

from __future__ import annotations

import math
import time

import numpy as np

_TREE_DEPTH = 7
_WALKS = 40
_MATRICES = 60


def _tree(depth: int, i: int):
    """A fixed expression tree of nested tuples: ('+'|'*'|'sin', ...) or a leaf."""
    if depth == 0:
        return ("x", i % 4) if i % 3 else ("c", 0.5 + 0.1 * (i % 7))
    op = ("+", "*", "sin")[(depth + i) % 3]
    if op == "sin":
        return (op, _tree(depth - 1, 2 * i + 1))
    return (op, _tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1))


def _walk(node, x):
    """Value and gradient (a list of 4 floats) by forward-mode recursion."""
    kind = node[0]
    if kind == "c":
        return node[1], [0.0, 0.0, 0.0, 0.0]
    if kind == "x":
        g = [0.0, 0.0, 0.0, 0.0]
        g[node[1]] = 1.0
        return x[node[1]], g
    if kind == "sin":
        v, g = _walk(node[1], x)
        c = math.cos(v)
        return math.sin(v), [c * gi for gi in g]
    lv, lg = _walk(node[1], x)
    rv, rg = _walk(node[2], x)
    if kind == "+":
        return lv + rv, [a + b for a, b in zip(lg, rg)]
    return lv * rv, [a * rv + lv * b for a, b in zip(lg, rg)]


class Kernel:
    """Fixed inputs built once; ``run()`` is the timed unit of work."""

    def __init__(self) -> None:
        self.tree = _tree(_TREE_DEPTH, 1)
        rng = np.random.default_rng(20190514)
        self.points = [list(rng.uniform(-0.5, 0.5, size=4)) for _ in range(_WALKS)]
        self.square = rng.standard_normal((_MATRICES, 6, 6))
        self.wide = rng.standard_normal((_MATRICES, 3, 6))

    def run(self) -> float:
        """One kernel call; returns a checksum so no work can be skipped."""
        total = 0.0
        for x in self.points:
            v, g = _walk(self.tree, x)
            total += v + sum(g)
        for a, b in zip(self.square, self.wide):
            total += float(np.linalg.svd(a, compute_uv=False)[0])
            total += float(np.linalg.pinv(b)[0, 0])
        return total

    def timed(self) -> float:
        """Wall seconds of one ``run()``."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0
