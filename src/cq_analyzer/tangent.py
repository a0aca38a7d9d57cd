"""Tangent-cone probing and the two-sided numerical Abadie verdict.

For a cone direction d the corrector seeks r(t) with the critical constraint
subset J(d) restored to zero at x0 + t*d + r(t).  A direction is numerical
evidence for membership in the tangent cone when the correction exists along
the whole shrinking t-schedule with ||r(t)||/t decreasing to (numerically)
zero; the observable signature of the o(t) requirement is a log-log decay
slope above 1.  The converse inclusion is probed by estimating tangent
directions from corrected feasible points at shrinking radii and testing
them against the linearized cone.

Verdicts are evidence, not proofs: "consistent" means no sampled direction
contradicted the Abadie equality, "violated" carries a concrete witness
(a cone direction whose correction collapses back to the base point or
stalls, or a tangent estimate that fails cone membership by a wide margin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cones import LinearizedCone, build_linearized_cone, cone_member, sample_cone_directions
from .config import (
    ANGULAR_TOL, CORRECTOR_MAX_ITER, CORRECTOR_TOL, DIRECTION_COUNT, ESTIMATE_PROBES,
    T_SCHEDULE_TAIL, TOL_CRITICAL, ToolConfig,
)
from .model import (
    ActiveSet,
    ConstraintDomainError,
    ConstraintSystem,
    PointData,
    active_set,
    critical_active_set,
    evaluate_point,
    evaluate_rows,
    feasibility_check,
)
from .rank import NeighborhoodSampler, numerical_rank

__all__ = [
    "AbadieReport",
    "CorrectionTrace",
    "InfeasibleBasePointError",
    "TangentEstimate",
    "TangentProbe",
    "abadie_verdict",
    "ljusternik_correct",
    "probe_tangent",
    "tangent_direction_estimate",
]

CONSISTENT = "consistent"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


class InfeasibleBasePointError(ValueError):
    """The base point violates the constraints beyond tolerance."""


@dataclass(frozen=True)
class CorrectionResult:
    r: Optional[np.ndarray]
    converged: bool
    iterations: int
    initial_residual: float
    final_residual: float
    pivot_indices: tuple[int, ...]
    diagnostic: Optional[str] = None


def _domain_diagnostic(indices: Sequence[int], errors: dict) -> str:
    """The domain error of the lowest failed constraint among ``indices``."""
    first = min(errors)
    return str(ConstraintDomainError(indices[first], errors[first]))


def ljusternik_correct(
    sys: ConstraintSystem,
    j_set: Sequence[int],
    x0: Sequence[float],
    d: Sequence[float],
    t: float,
    cfg: ToolConfig,
    warm_start: Optional[np.ndarray] = None,
) -> CorrectionResult:
    """Minimal-norm Gauss-Newton correction r with h_i(x0 + t d + r) = 0, i in J.

    Pivot rows are re-selected at x0 + t*d by numerical rank; every step
    solves the linearized pivot system by pseudoinverse (the minimal-norm
    update), while convergence is judged on the full J residual with
    ``||h_J||_inf <= CORRECTOR_TOL * (1 + scale)``.  Returns a non-converged
    result (r is the last iterate) instead of raising; domain errors during
    iteration are reported in the diagnostic.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    x0 = np.asarray(x0, dtype=float)
    d = np.asarray(d, dtype=float)
    j = tuple(sorted(j_set))
    base = x0 + t * d
    if not j:
        return CorrectionResult(
            r=np.zeros(sys.dimension), converged=True, iterations=0,
            initial_residual=0.0, final_residual=0.0, pivot_indices=(),
        )
    functions = [sys.constraint(i) for i in j]
    values0, rows0, errors = evaluate_rows(functions, base)
    if errors:
        return CorrectionResult(
            r=None, converged=False, iterations=0, initial_residual=math.inf,
            final_residual=math.inf, pivot_indices=(),
            diagnostic=_domain_diagnostic(j, errors),
        )
    initial_residual = float(np.max(np.abs(values0), initial=0.0))
    scale = max(1.0, initial_residual)
    residual_tol = CORRECTOR_TOL * (1.0 + scale)
    rank0 = numerical_rank(rows0, cfg.tol_rank)
    pivot = tuple(j[p - 1] for p in rank0.pivot_indices)
    pivot_pos = [p - 1 for p in rank0.pivot_indices]  # pivot rows' positions in J
    if not pivot:
        # All gradient rows vanish at the base: nothing to iterate along.
        converged = initial_residual <= residual_tol
        return CorrectionResult(
            r=np.zeros(sys.dimension), converged=converged, iterations=0,
            initial_residual=initial_residual, final_residual=initial_residual,
            pivot_indices=(), diagnostic=None if converged else "zero-gradient pivot",
        )

    def iterate(r_start: np.ndarray) -> CorrectionResult:
        r = r_start.copy()
        final = math.inf
        for it in range(CORRECTOR_MAX_ITER + 1):
            values_j, rows_j, errors = evaluate_rows(functions, base + r)
            if errors:
                return CorrectionResult(
                    r=r, converged=False, iterations=it,
                    initial_residual=initial_residual, final_residual=final,
                    pivot_indices=pivot, diagnostic=_domain_diagnostic(j, errors),
                )
            final = float(np.max(np.abs(values_j), initial=0.0))
            if final <= residual_tol:
                return CorrectionResult(
                    r=r, converged=True, iterations=it,
                    initial_residual=initial_residual, final_residual=final,
                    pivot_indices=pivot,
                )
            if it == CORRECTOR_MAX_ITER:
                break
            piv_values, piv_rows = values_j[pivot_pos], rows_j[pivot_pos]
            # Minimal-norm update: r_new = pinv(J)(J r - h) solves the
            # linearized system while discarding the null-space component
            # of the iterate, so the limit is the minimal-norm correction
            # regardless of the warm start.
            r = np.linalg.pinv(piv_rows) @ (piv_rows @ r - piv_values)
        return CorrectionResult(
            r=r, converged=False, iterations=CORRECTOR_MAX_ITER,
            initial_residual=initial_residual, final_residual=final,
            pivot_indices=pivot, diagnostic="iteration cap reached",
        )

    result = iterate(warm_start if warm_start is not None else np.zeros(sys.dimension))
    if not result.converged and warm_start is not None:
        cold = iterate(np.zeros(sys.dimension))
        if cold.converged:
            return cold
    return result


@dataclass(frozen=True)
class CorrectionTrace:
    """Correction norms along a descending t-schedule for one direction."""

    t_values: tuple[float, ...]
    r_norms: tuple[Optional[float], ...]
    ratio: tuple[Optional[float], ...]          # r_norms[i] / t_values[i]
    converged: tuple[bool, ...]
    decay_slope: Optional[float]                # log-log fit over converged, r != 0
    final_residuals: tuple[float, ...]
    initial_residuals: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "t_values": list(self.t_values),
            "r_norms": list(self.r_norms),
            "ratio": list(self.ratio),
            "converged": list(self.converged),
            "decay_slope": self.decay_slope,
            "final_residuals": list(self.final_residuals),
            "initial_residuals": list(self.initial_residuals),
        }


@dataclass(frozen=True)
class TangentProbe:
    """probe_tangent outcome: trace plus the inactive-constraint safety flags."""

    direction: np.ndarray
    j_set: tuple[int, ...]
    critical_set: tuple[int, ...]
    trace: CorrectionTrace
    inactive_ok: tuple[Optional[bool], ...]     # per t; None when not converged
    inactive_eps0: Optional[float]              # largest safe t (prefix from below)
    passed: bool
    hard_fail: bool
    fail_reason: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "direction": [float(v) for v in self.direction],
            "j_set": list(self.j_set),
            "critical_set": list(self.critical_set),
            "trace": self.trace.to_dict(),
            "inactive_ok": list(self.inactive_ok),
            "inactive_eps0": self.inactive_eps0,
            "passed": self.passed,
            "hard_fail": self.hard_fail,
            "fail_reason": self.fail_reason,
        }


def _fit_loglog_slope(ts, rs) -> Optional[float]:
    pts = [(math.log(t), math.log(r)) for t, r in zip(ts, rs)]
    if len(pts) < 2:
        return None
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    xbar, ybar = xs.mean(), ys.mean()
    denom = float(np.sum((xs - xbar) ** 2))
    if denom == 0.0:
        return None
    return float(np.sum((xs - xbar) * (ys - ybar)) / denom)


def probe_tangent(
    sys: ConstraintSystem,
    x0: Sequence[float],
    aset: ActiveSet,
    d: Sequence[float],
    t_schedule: Sequence[float],
    cfg: ToolConfig,
    pd: Optional[PointData] = None,
) -> TangentProbe:
    """Correct x0 + t*d back onto the critical constraints for each scheduled t.

    J(d) is computed once at x0 and held fixed along the schedule.  The probe
    passes when the smallest three t values converge, the ratio ||r||/t is
    non-increasing with final value at most ``ratio_tol``, and every inactive
    inequality stays strictly negative at the corrected points of that
    small-t tail (the recorded ``inactive_eps0`` is the largest safe t).  A
    hard failure (witness quality) requires the converged tail to keep
    ``||r||/t >= 10 * ratio_tol`` with decay slope <= 1.1 (the correction
    collapses back to x0), or non-convergence at every t without residual
    reduction (the corrector stalls).
    """
    x0 = np.asarray(x0, dtype=float)
    d = np.asarray(d, dtype=float)
    if pd is None:
        pd = evaluate_point(sys, x0)
    cone = build_linearized_cone(pd, aset)
    if not cone_member(cone, d, 10.0 * cfg.tol_cone):
        raise ValueError("direction is not in the linearized cone")
    t_schedule = tuple(float(t) for t in t_schedule)
    if list(t_schedule) != sorted(t_schedule, reverse=True) or min(t_schedule) <= 0:
        raise ValueError("t_schedule must be positive and strictly descending")
    crit = critical_active_set(pd, aset, d, TOL_CRITICAL)
    j = crit.j_set
    inactive = [sys.constraint(i) for i in pd.inequality_indices if i not in set(j)]

    r_norms, ratios, converged_flags = [], [], []
    final_residuals, initial_residuals, inactive_ok = [], [], []
    prev: Optional[tuple[float, np.ndarray]] = None
    zero_floor = 1e-13 * (1.0 + float(np.max(np.abs(x0), initial=0.0)))
    for t in t_schedule:
        # Warm start from the previous correction, prescaled quadratically:
        # ||r|| = O(t^2) under the theory, and an unscaled warm start would
        # seed a tangential offset of the previous magnitude.
        warm = None if prev is None else prev[1] * (t / prev[0]) ** 2
        result = ljusternik_correct(sys, j, x0, d, t, cfg, warm_start=warm)
        converged_flags.append(result.converged)
        final_residuals.append(result.final_residual)
        initial_residuals.append(result.initial_residual)
        if result.converged:
            prev = (t, result.r)
            rn = float(np.linalg.norm(result.r))
            r_norms.append(rn)
            ratios.append(rn / t)
            values, _, errors = evaluate_rows(inactive, x0 + t * d + result.r)
            inactive_ok.append(not errors and bool(np.all(values < 0.0)))
        else:
            r_norms.append(None)
            ratios.append(None)
            inactive_ok.append(None)

    slope_pts = [
        (t, r)
        for t, r, c in zip(t_schedule, r_norms, converged_flags)
        if c and r is not None and r > zero_floor
    ]
    slope = _fit_loglog_slope([p[0] for p in slope_pts], [p[1] for p in slope_pts])

    # eps0: the largest t such that every converged scheduled t' <= t is safe.
    eps0 = None
    for t, ok in sorted(zip(t_schedule, inactive_ok)):
        if ok is False:
            break
        if ok:
            eps0 = t

    tail = min(T_SCHEDULE_TAIL, len(t_schedule))
    tail_converged = all(converged_flags[-tail:])
    conv_ratios = [r for r, c in zip(ratios, converged_flags) if c]
    ratios_decreasing = all(
        b <= a + 1e-15 for a, b in zip(conv_ratios, conv_ratios[1:])
    )
    final_ratio = conv_ratios[-1] if conv_ratios else None
    # Inactive-constraint safety is an asymptotic guarantee (strict negativity
    # for all t below some eps0 > 0), so only the small-t tail is required;
    # a near-boundary cone direction may violate an inactive constraint at
    # the coarsest t and still be tangent.
    safe = all(ok is True for ok in inactive_ok[-tail:]) if inactive else True

    passed = (
        tail_converged
        and final_ratio is not None
        and final_ratio <= cfg.ratio_tol
        and ratios_decreasing
        and safe
    )

    hard_fail = False
    reason = None
    if not passed:
        if tail_converged and final_ratio is not None and final_ratio >= 10.0 * cfg.ratio_tol:
            if slope is not None and slope <= 1.1:
                hard_fail = True
                reason = (
                    f"correction collapses toward the base point: final "
                    f"||r||/t = {final_ratio:.3e} with decay slope {slope:.3f}"
                )
        if not hard_fail and not any(converged_flags):
            reduced = any(
                f <= 0.5 * i0
                for f, i0 in zip(final_residuals, initial_residuals)
                if math.isfinite(f) and math.isfinite(i0) and i0 > 0.0
            )
            if not reduced:
                hard_fail = True
                reason = "corrector stalled at every t without residual reduction"
        if reason is None:
            if not tail_converged:
                reason = "corrector did not converge on the small-t tail"
            elif final_ratio is not None and final_ratio > cfg.ratio_tol:
                reason = f"final ||r||/t = {final_ratio:.3e} above ratio_tol"
            elif not ratios_decreasing:
                reason = "||r||/t is not decreasing along the schedule"
            elif not safe:
                reason = "an inactive inequality was violated at a corrected point"

    trace = CorrectionTrace(
        t_values=t_schedule,
        r_norms=tuple(r_norms),
        ratio=tuple(ratios),
        converged=tuple(converged_flags),
        decay_slope=slope,
        final_residuals=tuple(final_residuals),
        initial_residuals=tuple(initial_residuals),
    )
    return TangentProbe(
        direction=d,
        j_set=j,
        critical_set=crit.critical,
        trace=trace,
        inactive_ok=tuple(inactive_ok),
        inactive_eps0=eps0,
        passed=passed,
        hard_fail=hard_fail,
        fail_reason=reason,
    )


@dataclass(frozen=True)
class TangentEstimate:
    """Stable tangent-direction estimates from corrected feasible probes."""

    directions: tuple[np.ndarray, ...]
    trivial: bool                      # no stable direction at all
    per_radius_counts: tuple[tuple[float, int], ...]

    def to_dict(self) -> dict:
        return {
            "directions": [[float(v) for v in d] for d in self.directions],
            "trivial": self.trivial,
            "per_radius_counts": [
                {"radius": r, "feasible_directions": c}
                for r, c in self.per_radius_counts
            ],
        }


def _cluster_directions(directions: list[np.ndarray], cos_tol: float):
    """Greedy angular clustering; returns normalized cluster means in order."""
    clusters: list[list[np.ndarray]] = []
    for d in directions:
        for members in clusters:
            if float(d @ members[0]) >= cos_tol:
                members.append(d)
                break
        else:
            clusters.append([d])
    reps = []
    for members in clusters:
        mean = np.mean(members, axis=0)
        norm = np.linalg.norm(mean)
        reps.append(members[0] if norm == 0.0 else mean / norm)
    return reps


def tangent_direction_estimate(
    sys: ConstraintSystem,
    x0: Sequence[float],
    count: int,
    radius_schedule: Sequence[float],
    seed: int,
    cfg: Optional[ToolConfig] = None,
) -> TangentEstimate:
    """Estimate tangent directions from feasible points at shrinking radii.

    Random sphere probes are corrected onto the equality constraints by
    Gauss-Newton and then filtered: the corrected point must stay at the
    probed scale (within [0.3 r, 3 r] of the base point; a probe that
    collapses onto x0 indicates no feasible direction at that scale) and
    every constraint value must be within ``tol_feas * r * (1 + |grad|)``
    (violations must vanish faster than the scale probed, mirroring the
    o(t) in the tangent-cone definition).  Directions are clustered per
    radius and only clusters that persist across the three smallest radii,
    matching within the angular tolerance link by link, are returned (taken
    at the smallest radius).  An empty result is flagged: the feasible set
    offers no stable direction, e.g. an isolated point.
    """
    cfg = cfg or ToolConfig()
    x0 = np.asarray(x0, dtype=float)
    sampler = NeighborhoodSampler(
        center=tuple(x0),
        radii=tuple(float(r) for r in radius_schedule),
        samples_per_radius=count,
        seed=seed,
    )
    eq_indices = tuple(sys.equality_indices)
    all_indices = tuple(range(1, sys.n_constraints + 1))
    gn_tol = 1e-14 * (1.0 + float(np.max(np.abs(x0), initial=0.0)))
    cos_tol = math.cos(ANGULAR_TOL)

    layers: list[tuple[float, list[np.ndarray]]] = []
    for radius, points in sampler.points_by_radius():
        kept: list[np.ndarray] = []
        for p in points:
            x = p.copy()
            if eq_indices:
                x = _correct_equalities(sys, eq_indices, x, gn_tol, cfg)
                if x is None:
                    continue
            dist = float(np.linalg.norm(x - x0))
            if not (0.3 * radius <= dist <= 3.0 * radius):
                continue
            if not _feasible_at_scale(sys, all_indices, x, radius, cfg.tol_feas):
                continue
            kept.append((x - x0) / dist)
        layers.append((radius, _cluster_directions(kept, cos_tol)))

    chain_span = min(3, len(layers))
    tail = layers[-chain_span:]
    stable: list[np.ndarray] = []
    for rep in tail[-1][1]:  # clusters at the smallest radius
        current = rep
        ok = True
        for radius, reps in reversed(tail[:-1]):
            match = next(
                (r for r in reps if float(current @ r) >= cos_tol), None
            )
            if match is None:
                ok = False
                break
            current = match
        if ok:
            stable.append(rep)
    stable = _cluster_directions(stable, cos_tol)

    return TangentEstimate(
        directions=tuple(stable),
        trivial=not stable,
        per_radius_counts=tuple((r, len(reps)) for r, reps in layers),
    )


def _correct_equalities(sys, eq_indices, x, gn_tol, cfg) -> Optional[np.ndarray]:
    """Gauss-Newton onto the equality pivot rows; None on failure."""
    values, rows, errors = evaluate_rows([sys.constraint(i) for i in eq_indices], x)
    if errors:
        return None
    pivots = [p - 1 for p in numerical_rank(rows, cfg.tol_rank).pivot_indices]
    if not pivots:
        return x if float(np.max(np.abs(values), initial=0.0)) <= gn_tol else None
    pivot_functions = [sys.constraint(eq_indices[p]) for p in pivots]
    values, rows = values[pivots], rows[pivots]
    for _ in range(CORRECTOR_MAX_ITER):
        if float(np.max(np.abs(values), initial=0.0)) <= gn_tol:
            return x
        x = x - np.linalg.pinv(rows) @ values
        values, rows, errors = evaluate_rows(pivot_functions, x)
        if errors:
            return None
    return x if float(np.max(np.abs(values), initial=0.0)) <= gn_tol else None


def _feasible_at_scale(sys, indices, x, radius, tol_feas) -> bool:
    """Constraint violations must be o(radius): <= tol * r * (1 + |grad|)."""
    values, rows, errors = evaluate_rows([sys.constraint(i) for i in indices], x)
    if errors:
        return False
    n_eq = len(sys.equalities)
    for i, value, grad in zip(indices, values, rows):
        bound = tol_feas * radius * (1.0 + float(np.linalg.norm(grad)))
        if i <= n_eq:
            if abs(value) > bound:
                return False
        elif value > bound:
            return False
    return True


@dataclass(frozen=True)
class AbadieReport:
    """Two-sided numerical evidence for the Abadie equality Gamma = T."""

    verdict: str
    cone: LinearizedCone
    probes: tuple[TangentProbe, ...]
    estimates: TangentEstimate
    estimate_memberships: tuple[tuple[tuple[float, ...], bool, bool], ...]
    trivial_cone: bool
    witness: Optional[dict]
    config: dict

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "cone": self.cone.to_dict(),
            "gamma_in_T_evidence": [p.to_dict() for p in self.probes],
            "T_in_gamma_evidence": [
                {"direction": list(d), "member": m, "hard_failure": h}
                for d, m, h in self.estimate_memberships
            ],
            "tangent_estimates": self.estimates.to_dict(),
            "trivial_cone": self.trivial_cone,
            "witness": self.witness,
            "config": dict(self.config),
        }


def abadie_verdict(sys: ConstraintSystem, x0: Sequence[float], cfg: ToolConfig) -> AbadieReport:
    """Render consistent / violated / inconclusive with two-sided evidence.

    Gamma-side: sampled cone directions must all pass :func:`probe_tangent`.
    T-side: estimated tangent directions must all pass :func:`cone_member`
    at the estimator's resolution (the finest probing radius).  ``violated``
    requires a hard witness on either side; all-pass yields ``consistent``;
    anything softer is ``inconclusive``.
    """
    x0 = np.asarray(x0, dtype=float)
    pd = evaluate_point(sys, x0)
    feas = feasibility_check(pd, cfg.tol_feas)
    if not feas.feasible:
        raise InfeasibleBasePointError(
            f"base point infeasible: violations {feas.violations}"
        )
    aset = active_set(pd, cfg.tol_active)
    cone = build_linearized_cone(pd, aset)
    sample = sample_cone_directions(cone, DIRECTION_COUNT, cfg.seed + 1, cfg.tol_cone)

    probes = tuple(
        probe_tangent(sys, x0, aset, d, cfg.t_schedule, cfg, pd=pd)
        for d in sample.directions
    )
    estimates = tangent_direction_estimate(
        sys, x0, ESTIMATE_PROBES, cfg.radii, cfg.seed + 2, cfg
    )
    # A direction estimated from feasible points at radius r carries an
    # O(r) angular resolution (curvature drift), so membership is tested at
    # the resolution of the finest radius probed, never finer.
    est_tol = max(cfg.tol_cone, min(cfg.radii))
    memberships = []
    for d in estimates.directions:
        member = cone_member(cone, d, est_tol)
        hard = not member and not cone_member(cone, d, 10.0 * est_tol)
        memberships.append((tuple(float(v) for v in d), member, hard))

    witness = None
    for p in probes:
        if p.hard_fail:
            witness = {
                "kind": "cone-direction-not-tangent",
                "direction": [float(v) for v in p.direction],
                "detail": p.fail_reason,
            }
            break
    if witness is None:
        for d, member, hard in memberships:
            if hard:
                witness = {
                    "kind": "tangent-estimate-outside-cone",
                    "direction": list(d),
                    "detail": "cone membership fails at 10x tolerance",
                }
                break

    if witness is not None:
        verdict = VIOLATED
    elif all(p.passed for p in probes) and all(m for _, m, _ in memberships):
        verdict = CONSISTENT
    else:
        verdict = INCONCLUSIVE

    return AbadieReport(
        verdict=verdict,
        cone=cone,
        probes=probes,
        estimates=estimates,
        estimate_memberships=tuple(memberships),
        trivial_cone=sample.trivial,
        witness=witness,
        config=cfg.to_dict(),
    )
