"""Lagrange multipliers and the linearized primal/dual pair at a candidate point.

Multipliers are the coefficients expressing -grad h_0(x0) over the active
gradient rows with non-negative weights on inequalities; inactive
inequalities receive zero (complementary slackness).  When the active rows
are dependent the multiplier set is a polytope and its minimal-Euclidean-norm
element is returned, flagged as such.

The linearized primal minimizes <grad h_0(x0), d> over the linearized cone.
Its value is zero exactly when the multiplier decomposition exists (the dual
is feasible); otherwise it is unbounded below and an explicit descent
certificate d in the cone with <grad h_0, d> < 0 is produced and verified
before being reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cones import _norm, build_linearized_cone, cone_member, dual_cone_decomposition
from .config import ToolConfig
from .expr import DomainEvaluationError
from .model import (
    ConstraintDomainError, ConstraintSystem, InfeasibleBasePointError, PointData, active_set,
    evaluate_point, feasibility_check,
)
from .rank import _ranks

__all__ = [
    "CertificateVerificationError",
    "KktReport",
    "MissingObjectiveError",
    "kkt_report",
]

PRIMAL_ZERO = "zero"
PRIMAL_UNBOUNDED = "unbounded-below"


class MissingObjectiveError(ValueError):
    """The analysis needs an objective and the system has none."""


class CertificateVerificationError(RuntimeError):
    """The computed descent direction failed its own verification."""


@dataclass(frozen=True)
class KktReport:
    """Multiplier existence, stationarity residual, and the linearized LP pair."""

    multipliers: Optional[dict[int, float]]  # constraint index -> multiplier, every constraint
    stationarity_residual: float   # ||grad h0 + sum lambda_i grad h_i|| at the result
    dual_feasible: bool
    primal_value: str              # "zero" | "unbounded-below"
    descent_certificate: Optional[tuple[float, ...]]
    descent_slope: Optional[float]  # <grad h0, d> for the certificate
    minimal_norm_selected: bool
    active_indices: tuple[int, ...]


def kkt_report(sys: ConstraintSystem, x0: Sequence[float], cfg: ToolConfig,
               pd: Optional[PointData] = None) -> KktReport:
    """KKT analysis with the active set taken at cfg.tol_active.

    The multipliers cover every constraint, zero over inactive inequalities;
    they are None when the dual cone excludes -grad h0, and the report then
    carries the verified descent certificate instead.  With dependent active
    rows the minimal-norm element of the multiplier polytope is returned.
    Dual-cone membership is decided at cfg.tol_cone.  ``pd`` is the
    evaluation of ``sys`` at ``x0`` when the caller has it; a point that
    violates a constraint beyond cfg.tol_feas raises
    :class:`InfeasibleBasePointError`.  This is the one analysis that
    evaluates the objective, once, so the code generator computes its
    gradient and nothing is compiled for it: its domain error is a
    :class:`ConstraintDomainError` with index 0, raised after any of the
    constraints' and after the feasibility check.
    """
    if sys.objective is None:
        raise MissingObjectiveError("the constraint system has no objective")
    if pd is None:
        pd = evaluate_point(sys, np.asarray(x0, dtype=float))
    violations = feasibility_check(pd, cfg.tol_feas)
    if violations:
        raise InfeasibleBasePointError(violations)
    try:
        _, grad = sys.objective.value_and_gradient(pd.point)
    except DomainEvaluationError as err:
        raise ConstraintDomainError(0, err) from err
    active = active_set(pd, cfg.tol_active)
    tol = cfg.tol_cone
    cone = build_linearized_cone(pd, active)
    target = -grad
    lam, residual_dir = dual_cone_decomposition(cone, target, tol)

    if lam is None:
        norm = _norm(residual_dir)
        d = residual_dir / norm
        slope = float(grad @ d)
        # The certificate is only reported once verified explicitly.
        if not cone_member(cone, d, tol) or slope >= 0.0:
            raise CertificateVerificationError(
                "descent certificate failed verification "
                f"(member={cone_member(cone, d, tol)}, slope={slope})"
            )
        return KktReport(
            multipliers=None,
            stationarity_residual=norm,
            dual_feasible=False,
            primal_value=PRIMAL_UNBOUNDED,
            descent_certificate=tuple(float(v) for v in d),
            descent_slope=slope,
            minimal_norm_selected=False,
            active_indices=active,
        )

    rows = np.vstack([cone.eq_rows, cone.ineq_rows])
    unique = _ranks(rows[None], tol)[0][0] == rows.shape[0]
    full = {i: lam.get(i, 0.0) for i in range(1, sys.n_constraints + 1)}
    total = grad
    for i, v in full.items():
        total = total + v * pd.row(i)
    return KktReport(
        multipliers=full,
        stationarity_residual=_norm(total),
        dual_feasible=True,
        primal_value=PRIMAL_ZERO,
        descent_certificate=None,
        descent_slope=None,
        minimal_norm_selected=not unique,
        active_indices=active,
    )

