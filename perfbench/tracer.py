"""In-memory span tracing around calls into the analyzer's layers.

The tracer replaces every public function of each layer module, in every
module of the package that holds it by name (``from .rank import
numerical_rank`` binds a second name that must be wrapped too), and the two
evaluation methods of ``Expression``.  Nothing inside the program changes:
spans are recorded at the boundaries the benchmark can see from outside.

A span is ``[name, start_ns, end_ns, parent, op, info]``: ``parent`` is the
index of the enclosing span (-1 at the root), ``op`` the operation it belongs
to, and ``info`` what the benchmark reads off the call (an exception name, or
a few fields of the result).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict
from typing import Callable, Optional

# The analyzer's modules, which are the benchmark's layers.
LAYERS = ("expr", "model", "rank", "cones", "tangent", "kkt", "dependence",
          "analysis", "report", "problem", "corpus", "cli")

ROOT = "bench.op"


def _crc_info(report):
    return (report.total_points, report.skipped_points)


def _corrector_info(result):
    return (result.iterations, result.converged)


def _len_info(text):
    return len(text.encode("utf-8"))


# Results the per-layer metrics read: span name -> extractor.
_OBSERVE: dict[str, Callable] = {
    "rank.check_crc": _crc_info,
    "tangent.ljusternik_correct": _corrector_info,
    "report.emit_report": _len_info,
}


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.op = -1

    # -- installation -----------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observe: Optional[Callable] = _OBSERVE.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[5] = type(err).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[5] = observe(result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = self.package
        modules = [pkg] + [
            importlib.import_module(f"{pkg.__name__}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        for layer in LAYERS:
            mod = importlib.import_module(f"{pkg.__name__}.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for held, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, held, wrapped)
        expression = pkg.expr.Expression
        # gradient() delegates to value_and_gradient(), so wrapping these two
        # counts every evaluation exactly once.
        for method in ("evaluate", "value_and_gradient"):
            fn = vars(expression)[method]
            self._set(expression, method, self._wrap(f"expr.{method}", fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- operations -------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append([ROOT, time.perf_counter_ns(), 0, -1, op, None])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[list], ops: Optional[set] = None) -> dict:
    """Per span name: calls, total and self nanoseconds, errors and info list.

    ``ops`` restricts the summary to spans of those operations.  Self time is
    a span's duration minus the durations of its direct children, which tile
    the part of its interval they cover because calls nest.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    out: dict = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0,
                                     "errors": defaultdict(int), "info": []})
    for i, (name, start, end, _parent, op, info) in enumerate(spans):
        if ops is not None and op not in ops:
            continue
        row = out[name]
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += end - start - child_ns[i]
        if isinstance(info, str):
            row["errors"][info] += 1
        elif info is not None:
            row["info"].append(info)
    return dict(out)


def spans_under(spans: list[list], child: str, parent: str,
                ops: Optional[set] = None) -> list[list]:
    """Spans named ``child`` whose direct parent span is named ``parent``."""
    return [s for s in spans if s[0] == child and s[3] >= 0
            and spans[s[3]][0] == parent and (ops is None or s[4] in ops)]
