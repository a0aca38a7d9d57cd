"""Constraint systems, base-point evaluation, active sets, and criticality.

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
    "ActiveSet",
    "ConstraintDomainError",
    "ConstraintSystem",
    "CriticalSet",
    "FeasibilityResult",
    "PointData",
    "active_set",
    "critical_active_set",
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

    def is_equality(self, index: int) -> bool:
        return 1 <= index <= len(self.equalities)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PointData:
    """Values and gradients of all constraints (and objective) at one point."""

    point: np.ndarray
    values: np.ndarray          # h_i(x), index order
    jacobian: np.ndarray        # row i-1 = grad h_i(x)
    equality_count: int
    objective_value: Optional[float] = None
    objective_gradient: Optional[np.ndarray] = None

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


@dataclass(frozen=True)
class ActiveSet:
    """Inequality indices active at the base point under ``tolerance_used``."""

    indices: tuple[int, ...]
    tolerance_used: float


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    violations: tuple[tuple[int, float], ...]  # (constraint index, magnitude)
    tolerance_used: float


@dataclass(frozen=True)
class CriticalSet:
    """Active inequalities whose gradient is orthogonal to a direction d."""

    critical: tuple[int, ...]   # I(x0, d)
    j_set: tuple[int, ...]      # J(d) = I_0 union I(x0, d)
    tolerance_used: float


def evaluate_rows(
    functions: Sequence[Expression], x: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, dict[int, DomainEvaluationError]]:
    """Values and gradient rows of ``functions`` at ``x``, each evaluated once.

    This is the one place a function family is evaluated.  A function that
    leaves its domain keeps a zero value and a zero row, and ``errors`` maps
    its 0-based position to the :class:`DomainEvaluationError`; the other
    functions are still evaluated.  Any other exception propagates.
    """
    values = np.zeros(len(functions))
    rows = np.zeros((len(functions), len(x)))
    errors = {}
    for i, f in enumerate(functions):
        try:
            values[i], rows[i] = f.value_and_gradient(x)
        except DomainEvaluationError as err:
            errors[i] = err
    return values, rows, errors


def evaluate_point(sys: ConstraintSystem, x: Sequence[float]) -> PointData:
    """Evaluate values and the Jacobian of ``sys`` at ``x``.

    Domain errors propagate as :class:`ConstraintDomainError` carrying the
    lowest offending constraint index, or 0 when only the objective failed.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.dimension,):
        raise ValueError(f"point has shape {x.shape}, expected ({sys.dimension},)")
    m = sys.n_constraints
    objective = (sys.objective,) if sys.objective is not None else ()
    values, rows, errors = evaluate_rows(sys.all_constraints + objective, x)
    if errors:
        first = min(errors)
        index = 0 if first == m else first + 1  # position m is the objective
        raise ConstraintDomainError(index, errors[first]) from errors[first]
    return PointData(
        point=_read_only(x.copy()),
        values=_read_only(values[:m]),
        jacobian=_read_only(rows[:m]),
        equality_count=len(sys.equalities),
        objective_value=float(values[m]) if objective else None,
        objective_gradient=_read_only(rows[m]) if objective else None,
    )


def active_set(pd: PointData, tol_active: float) -> ActiveSet:
    """Inequality indices with |h_i(x0)| <= tol_active; equalities never qualify."""
    if tol_active <= 0:
        raise ValueError("tol_active must be positive")
    indices = tuple(
        i for i in pd.inequality_indices if abs(pd.value(i)) <= tol_active
    )
    return ActiveSet(indices=indices, tolerance_used=tol_active)


def feasibility_check(pd: PointData, tol: float) -> FeasibilityResult:
    """True iff |h_i| <= tol on equalities and h_i <= tol on inequalities."""
    violations = []
    for i in pd.equality_indices:
        if abs(pd.value(i)) > tol:
            violations.append((i, abs(pd.value(i))))
    for i in pd.inequality_indices:
        if pd.value(i) > tol:
            violations.append((i, pd.value(i)))
    return FeasibilityResult(
        feasible=not violations, violations=tuple(violations), tolerance_used=tol
    )


def critical_active_set(
    pd: PointData, aset: ActiveSet, d: Sequence[float], tol: float
) -> CriticalSet:
    """I(x0,d): active inequalities with <grad h_i, d> ~ 0, plus J(d).

    The inner-product test is scaled relative to the row and direction norms
    so large-gradient rows do not appear spuriously critical.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (pd.dimension,):
        raise ValueError(f"direction has shape {d.shape}, expected ({pd.dimension},)")
    dn = float(np.linalg.norm(d))
    critical = []
    for i in aset.indices:
        row = pd.row(i)
        bound = tol * (1.0 + float(np.linalg.norm(row)) * dn)
        if abs(float(row @ d)) <= bound:
            critical.append(i)
    j_set = tuple(sorted(set(pd.equality_indices) | set(critical)))
    return CriticalSet(critical=tuple(critical), j_set=j_set, tolerance_used=tol)
