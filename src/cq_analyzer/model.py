"""Constraint systems, base-point evaluation, active sets and feasibility.

A :class:`ConstraintSystem` holds an optional objective plus equality and
inequality constraint expressions over a shared ordered variable list.
Constraints are jointly indexed starting at 1: equalities first, then
inequalities, so reports can reference constraints by a single index.

:class:`PointData` is an immutable snapshot of values and gradients at one
point (the backing arrays are marked read-only).  Constraint evaluation may
happen in any order internally but rows are always assembled in index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .expr import DomainEvaluationError, Expression, parse

__all__ = [
    "ConstraintDomainError",
    "ConstraintSystem",
    "InfeasibleBasePointError",
    "PointData",
    "active_set",
    "evaluate_point",
    "evaluate_rows",
    "feasibility_check",
]


class ConstraintDomainError(ValueError):
    """A constraint expression left its domain; carries the constraint index.

    ``constraint_index`` is the 1-based global index, or 0 for the objective.
    """

    def __init__(self, constraint_index: int, cause: DomainEvaluationError):
        label = "objective" if constraint_index == 0 else f"constraint {constraint_index}"
        super().__init__(f"{label}: {cause}")
        self.constraint_index = constraint_index
        self.cause = cause


class InfeasibleBasePointError(ValueError):
    """The base point violates the constraints beyond tolerance."""

    def __init__(self, violations: tuple[tuple[int, float], ...]):
        super().__init__(f"base point infeasible: violations {violations}")
        self.violations = violations


@dataclass(frozen=True)
class ConstraintSystem:
    """Objective plus indexed equality/inequality constraints.

    Equalities take indices ``1..n_eq`` and inequalities
    ``n_eq+1..n_eq+n_in``; either group may be empty.
    """

    name: str
    variables: tuple[str, ...]
    objective: Optional[Expression]
    equalities: tuple[Expression, ...]
    inequalities: tuple[Expression, ...]

    def __post_init__(self):
        extra = (self.objective,) if self.objective is not None else ()
        for e in self.all_constraints + extra:
            if e.variables != self.variables:
                raise ValueError(
                    f"expression over {e.variables} does not match system "
                    f"variables {self.variables}"
                )

    @classmethod
    def from_strings(
        cls,
        name: str,
        variables: Sequence[str],
        objective: Optional[str] = None,
        equalities: Sequence[str] = (),
        inequalities: Sequence[str] = (),
    ) -> "ConstraintSystem":
        names = tuple(variables)
        return cls(
            name=name,
            variables=names,
            objective=parse(objective, names) if objective is not None else None,
            equalities=tuple(parse(s, names) for s in equalities),
            inequalities=tuple(parse(s, names) for s in inequalities),
        )

    @property
    def dimension(self) -> int:
        return len(self.variables)

    @property
    def all_constraints(self) -> tuple[Expression, ...]:
        return self.equalities + self.inequalities

    @property
    def n_constraints(self) -> int:
        return len(self.equalities) + len(self.inequalities)

    @property
    def equality_indices(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.equalities) + 1))

    @property
    def inequality_indices(self) -> tuple[int, ...]:
        n_eq = len(self.equalities)
        return tuple(range(n_eq + 1, n_eq + len(self.inequalities) + 1))

    def constraint(self, index: int) -> Expression:
        """Constraint expression for a 1-based global index."""
        if not 1 <= index <= self.n_constraints:
            raise IndexError(f"constraint index {index} out of range")
        return self.all_constraints[index - 1]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PointData:
    """Values and gradients of all constraints at one point."""

    point: np.ndarray
    values: np.ndarray          # h_i(x), index order
    jacobian: np.ndarray        # row i-1 = grad h_i(x)
    equality_count: int

    @property
    def dimension(self) -> int:
        return len(self.point)

    @property
    def equality_indices(self) -> tuple[int, ...]:
        return tuple(range(1, self.equality_count + 1))

    @property
    def inequality_indices(self) -> tuple[int, ...]:
        return tuple(range(self.equality_count + 1, len(self.values) + 1))

    def row(self, index: int) -> np.ndarray:
        return self.jacobian[index - 1]

    def value(self, index: int) -> float:
        return float(self.values[index - 1])


def evaluate_rows(
    functions: Sequence[Expression], points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Values and gradient rows of ``functions`` at a (P, n) batch of points.

    This is the one place a function family is evaluated, each function once
    per point: (P, kappa) values and (P, kappa, n) rows.  Each function is
    compiled before the first point, whatever P, since a family is evaluated
    again, and its compiled code is called directly.  A function that leaves
    its domain keeps a zero value and a zero row, and ``errors`` maps its
    (point, position) pair, both 0-based, to the
    :class:`DomainEvaluationError`; the other functions are still evaluated.
    Any other exception propagates.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("expected a 2-d batch of points")
    n = points.shape[1]
    codes = []
    for f in functions:
        if f.dimension != n:
            raise ValueError(f"point has length {n}, expected {f.dimension}")
        codes.append(f._compiled(True))
    failed = (0.0,) * (n + 1)
    outs = []
    errors = {}
    for p, point in enumerate(points.tolist()):
        for i, code in enumerate(codes):
            try:
                outs.append(code(point))
            except DomainEvaluationError as err:
                errors[p, i] = err
                outs.append(failed)
    # One (value, d_1, ..., d_n) tuple per point and function, point-major.
    block = np.array(outs).reshape(len(points), len(codes), n + 1)
    return block[:, :, 0].copy(), block[:, :, 1:].copy(), errors


def evaluate_point(sys: ConstraintSystem, x: Sequence[float]) -> PointData:
    """Evaluate the constraint values and the Jacobian of ``sys`` at ``x``;
    the objective is left to the analysis that reads it.

    Domain errors propagate as :class:`ConstraintDomainError` carrying the
    lowest offending constraint index.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.dimension,):
        raise ValueError(f"point has shape {x.shape}, expected ({sys.dimension},)")
    values, rows, errors = evaluate_rows(sys.all_constraints, x[None])
    if errors:
        first = min(errors)
        raise ConstraintDomainError(first[1] + 1, errors[first]) from errors[first]
    return PointData(
        point=_read_only(x.copy()),
        values=_read_only(values[0]),
        jacobian=_read_only(rows[0]),
        equality_count=len(sys.equalities),
    )


def active_set(pd: PointData, tol_active: float) -> tuple[int, ...]:
    """Inequality indices with |h_i(x0)| <= tol_active; equalities never qualify."""
    if tol_active <= 0:
        raise ValueError("tol_active must be positive")
    return tuple(i for i in pd.inequality_indices if abs(pd.value(i)) <= tol_active)


def feasibility_check(pd: PointData, tol: float) -> tuple[tuple[int, float], ...]:
    """The (constraint index, magnitude) violations beyond ``tol``: |h_i| > tol
    on equalities, h_i > tol on inequalities; empty when the point is feasible.
    The analyses that presume a feasible point raise
    :class:`InfeasibleBasePointError` with them."""
    violations = []
    for i in pd.equality_indices:
        if abs(pd.value(i)) > tol:
            violations.append((i, abs(pd.value(i))))
    for i in pd.inequality_indices:
        if pd.value(i) > tol:
            violations.append((i, pd.value(i)))
    return tuple(violations)
