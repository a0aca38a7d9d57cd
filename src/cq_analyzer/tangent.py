"""Tangent-cone probing and the numerical Abadie verdict.

For a cone direction d the corrector seeks r(t) with the critical constraint
subset J(d) restored to zero at x0 + t*d + r(t).  A direction is numerical
evidence for membership in the tangent cone when the correction exists along
the whole shrinking t-schedule with ||r(t)||/t decreasing to (numerically)
zero; the observable signature of the o(t) requirement is a log-log decay
slope above 1.  Only the inclusion Gamma within T is probed: the tangent
cone lies in the linearized cone for any C1 constraints (Nocedal & Wright,
Numerical Optimization, 2nd ed., Lemma 12.2(i)).

Verdicts are evidence, not proofs: "consistent" means no probed direction
contradicted the Abadie inclusion, "violated" carries a concrete witness
(a cone direction whose correction collapses back to the base point or
stalls).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cones import LinearizedCone, build_linearized_cone, face_directions
from .config import (
    CORRECTOR_MAX_ITER, CORRECTOR_TOL, DIRECTION_COUNT, T_SCHEDULE_TAIL, ToolConfig,
)
from .model import (
    ConstraintSystem,
    PointData,
    active_set,
    evaluate_point,
    evaluate_rows,
    feasibility_check,
)
from .rank import numerical_rank

__all__ = [
    "AbadieReport",
    "CorrectionTrace",
    "InfeasibleBasePointError",
    "TangentProbe",
    "abadie_verdict",
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


@dataclass(frozen=True)
class _Group:
    """Corrections with one J and one pivot count, one row per (t, job)
    pair of the schedule: what their Gauss-Newton iterations hold fixed,
    namely the base points x0 + t*d, the pivot rows chosen there (as
    positions in J), the residual tolerances, and the values and rows of J
    at the base points."""

    functions: list
    keys: list[tuple[int, int]]        # row -> (t position, job)
    base: np.ndarray                   # (P, n)
    pivot_pos: np.ndarray              # (P, pivot count)
    initial_residual: list[float]
    residual_tol: list[float]
    values: np.ndarray                 # (P, |J|) at the base points
    rows: np.ndarray                   # (P, |J|, n)

    def result(self, p, r, converged, iterations, final) -> CorrectionResult:
        return CorrectionResult(
            r=r, converged=converged, iterations=iterations,
            initial_residual=self.initial_residual[p], final_residual=final,
        )


def _correct_lockstep(sys, x0, t_schedule, jobs, cfg) -> list[list[CorrectionResult]]:
    """Minimal-norm Gauss-Newton corrections r with h_i(x0 + t d + r) = 0,
    i in J, for every ``(j_set, d)`` job at each t of ``t_schedule``: one
    list of results per t, in job order.

    Every correction starts at r = 0: the Abadie argument needs an o(t)
    correction at each t, and none of them reads another.  Pivot rows are
    selected at x0 + t*d by numerical rank; every step solves the
    linearized pivot system by pseudoinverse (the minimal-norm update),
    while convergence is judged on the full J residual with
    ``||h_J||_inf <= CORRECTOR_TOL * (1 + scale)``.  A job that does not
    converge gets a non-converged result (r is the last iterate) instead of
    an exception, and so does one that leaves the domain (with r = None when
    it leaves at x0 + t*d).

    The corrections are made in lockstep: the base points x0 + t*d of each
    J, over the whole schedule, are evaluated in one call and ranked with
    one stacked SVD (:func:`_base_groups`), and the (t, job) pairs of each
    (J, pivot count) group iterate as one array, so that a Gauss-Newton
    step is one evaluation and one stacked SVD for the whole group.  The
    pseudoinverse is numpy's ``pinv`` formula written inline (singular
    values above 1e-15 times the largest are inverted, the others zeroed),
    and which pairs are live, their residuals and their exits are kept in
    Python lists, so that a step makes few numpy calls.  The first iterate
    is read from the base evaluation.  A pair leaves its group when it
    converges, leaves the domain or reaches the iteration cap.  Each result
    equals the one the pair would get alone, bit for bit.
    """
    out, groups = _base_groups(sys, x0, t_schedule, jobs, cfg)
    for group in groups:
        for (ti, k), result in zip(group.keys, _iterate_lockstep(group)):
            out[ti][k] = result
    return out


def _base_groups(sys, x0, t_schedule, jobs, cfg) -> tuple[list[list], list[_Group]]:
    """Per t, the results in job order, holding those the base points
    x0 + t*d settle alone (a base point outside the domain, or no pivot row:
    an empty J or all gradient rows zero) and None for the others, and the
    (J, pivot count) groups of the others, each over the whole schedule.

    The base points of each J over the whole schedule are one
    :func:`~cq_analyzer.model.evaluate_rows` call and one stacked
    :func:`~cq_analyzer.rank.numerical_rank`.
    """
    x0 = np.asarray(x0, dtype=float)
    n = sys.dimension
    settled: list[list] = [[None] * len(jobs) for _ in t_schedule]
    groups: list[_Group] = []
    by_j: dict = {}                        # J -> job numbers
    for k, (j_set, _) in enumerate(jobs):
        by_j.setdefault(tuple(sorted(j_set)), []).append(k)

    for j, members in by_j.items():
        functions = [sys.constraint(i) for i in j]
        keys = [(ti, k) for ti in range(len(t_schedule)) for k in members]  # row -> (t, job)
        directions = np.array([jobs[k][1] for k in members], dtype=float)
        # + 0.0 turns a -0.0 coordinate into +0.0, as x0 + t*d + r does at
        # r = 0, so that the first iterate is the base evaluation.
        base = (x0 + np.array(t_schedule)[:, None, None] * directions).reshape(len(keys), n) + 0.0
        values0, rows0, errors = evaluate_rows(functions, base)
        failed = {p for p, _ in errors}
        for p in failed:
            ti, k = keys[p]
            settled[ti][k] = CorrectionResult(
                r=None, converged=False, iterations=0, initial_residual=math.inf,
                final_residual=math.inf,
            )
        ok = [p for p in range(len(keys)) if p not in failed]
        initial = np.max(np.abs(values0), axis=1, initial=0.0)
        residual_tol = (CORRECTOR_TOL * (1.0 + np.maximum(1.0, initial))).tolist()
        initial = initial.tolist()
        by_count: dict = {}                # pivot count -> [(row, pivot positions in J)]
        for p, rank0 in zip(ok, numerical_rank(rows0[ok], cfg.tol_rank)):
            pos = [i - 1 for i in rank0.pivot_indices]
            if pos:
                by_count.setdefault(len(pos), []).append((p, pos))
                continue
            # No pivot row (J is empty or all its rows vanish): nothing to iterate along.
            ti, k = keys[p]
            settled[ti][k] = CorrectionResult(
                r=np.zeros(n), converged=initial[p] <= residual_tol[p], iterations=0,
                initial_residual=initial[p], final_residual=initial[p],
            )
        for pivots in by_count.values():
            ps = [p for p, _ in pivots]
            groups.append(_Group(functions, [keys[p] for p in ps], base[ps],
                                 np.array([pos for _, pos in pivots]),
                                 [initial[p] for p in ps], [residual_tol[p] for p in ps],
                                 values0[ps], rows0[ps]))
    return settled, groups


def _iterate_lockstep(group: _Group) -> list[CorrectionResult]:
    """Gauss-Newton iterations of every row of ``group`` from r = 0, in
    lockstep; the results in the group's row order.

    ``live`` holds the group rows still iterating, and ``final`` their
    last residuals; the arrays are filtered only at a step where a row
    leaves."""
    results: list[Optional[CorrectionResult]] = [None] * len(group.keys)
    live = list(range(len(group.keys)))
    final = [math.inf] * len(live)
    base, pos, tol = group.base, group.pivot_pos, group.residual_tol
    r = np.zeros(base.shape)
    values, rows, failed = group.values, group.rows, set()
    at = np.arange(len(live))[:, None]
    for it in range(CORRECTOR_MAX_ITER + 1):
        if it:
            values, rows, errors = evaluate_rows(group.functions, base + r)
            failed = {p for p, _ in errors}
        maxima = np.abs(values).max(axis=1, initial=0.0).tolist()
        keep, kept_final = [], []
        for p, row in enumerate(live):
            if p in failed:
                results[row] = group.result(row, r[p], False, it, final[p])
            elif maxima[p] <= tol[row]:
                results[row] = group.result(row, r[p], True, it, maxima[p])
            else:
                keep.append(p)
                kept_final.append(maxima[p])
        final = kept_final
        if len(keep) < len(live):
            live = [live[p] for p in keep]
            r, values, rows, base, pos = r[keep], values[keep], rows[keep], base[keep], pos[keep]
            at = at[:len(live)]
        if it == CORRECTOR_MAX_ITER or not live:
            break
        # Minimal-norm update: r_new = pinv(J)(J r - h) solves the linearized
        # system while discarding the null-space component of the iterate,
        # so the limit is the minimal-norm correction.  pinv(J) = V diag(1/s)
        # U^T over the singular values s above 1e-15 s_max, as numpy
        # computes it.
        piv_values, piv_rows = values[at, pos], rows[at, pos]
        rhs = np.matmul(piv_rows, r[:, :, None])[..., 0] - piv_values
        u, s, vt = np.linalg.svd(piv_rows, full_matrices=False)
        large = s > 1e-15 * s[:, :1]   # s descends: s[:, 0] is the largest
        inverse = np.divide(1.0, s, out=np.zeros(s.shape), where=large)
        pinv = np.matmul(vt.swapaxes(-1, -2), inverse[..., None] * u.swapaxes(-1, -2))
        r = np.matmul(pinv, rhs[..., None])[..., 0]
    for p, row in enumerate(live):
        results[row] = group.result(row, r[p], False, CORRECTOR_MAX_ITER, final[p])
    return results


@dataclass(frozen=True)
class CorrectionTrace:
    """Correction norms along a descending t-schedule for one direction."""

    t_values: tuple[float, ...]
    r_norms: tuple[Optional[float], ...]
    ratio: tuple[Optional[float], ...]          # r_norms[i] / t_values[i]
    converged: tuple[bool, ...]
    decay_slope: Optional[float]                # log-log fit over converged, r != 0
    final_residuals: tuple[Optional[float], ...]    # None where the base point
    initial_residuals: tuple[Optional[float], ...]  # or an iterate left the domain


@dataclass(frozen=True)
class TangentProbe:
    """One direction's probe: trace plus the inactive-constraint safety flags."""

    direction: np.ndarray
    j_set: tuple[int, ...]
    critical_set: tuple[int, ...]
    trace: CorrectionTrace
    inactive_ok: tuple[Optional[bool], ...]     # per t; None when not converged
    inactive_eps0: Optional[float]              # largest safe t (prefix from below)
    passed: bool
    hard_fail: bool
    fail_reason: Optional[str] = None


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


def _probe_directions(
    sys: ConstraintSystem,
    pd: PointData,
    faces: Sequence[tuple[tuple[int, ...], np.ndarray]],
    cfg: ToolConfig,
) -> list[TangentProbe]:
    """Correct x0 + t*d back onto the critical constraints of each face
    direction d for each t of ``cfg.t_schedule``.

    ``pd`` is the evaluation at x0 and ``faces`` holds (S, d) pairs: d lies
    in the relative interior of the face of the linearized cone on which the
    active inequalities S vanish, so J(d) = I_0 + S, fixed along the schedule.
    A probe passes when the smallest three t values converge, the ratio
    ||r||/t is non-increasing with final value at most
    ``ratio_tol``, and every inactive inequality stays strictly negative at
    the corrected points of that small-t tail (the recorded
    ``inactive_eps0`` is the largest safe t).  A hard failure (witness
    quality) requires the converged tail to keep ``||r||/t >= 10 *
    ratio_tol`` with decay slope <= 1.1 (the correction collapses back to
    x0), or non-convergence at every t without residual reduction (the
    corrector stalls).

    The directions are corrected in lockstep (:func:`_correct_lockstep`),
    the inactive inequalities are evaluated at the converged points of the
    whole schedule in one call per inactive set, and each probe equals the
    one its direction would get alone, bit for bit.
    """
    x0 = pd.point
    t_schedule = tuple(float(t) for t in cfg.t_schedule)
    directions = [d for _, d in faces]
    crits = [(s, tuple(sorted(pd.equality_indices + s))) for s, _ in faces]
    inactive = [tuple(i for i in pd.inequality_indices if i not in j) for _, j in crits]
    jobs = [(j_set, d) for (_, j_set), d in zip(crits, directions)]
    per_t = _correct_lockstep(sys, x0, t_schedule, jobs, cfg)
    by_inactive: dict = {}                 # inactive set -> [(t position, direction, point)]
    for ti, (t, results) in enumerate(zip(t_schedule, per_t)):
        for k, result in enumerate(results):
            if result.converged:
                point = x0 + t * directions[k] + result.r
                by_inactive.setdefault(inactive[k], []).append((ti, k, point))
    inactive_ok: list[list[Optional[bool]]] = [[None] * len(t_schedule) for _ in directions]
    for indices, entries in by_inactive.items():
        points = np.array([point for _, _, point in entries])
        values, _, errors = evaluate_rows([sys.constraint(i) for i in indices], points)
        failed = {p for p, _ in errors}
        for p, (ti, k, _) in enumerate(entries):
            inactive_ok[k][ti] = p not in failed and bool(np.all(values[p] < 0.0))
    zero_floor = 1e-13 * (1.0 + float(np.max(np.abs(x0), initial=0.0)))
    return [
        _judge_probe(d, crit, t_schedule, results, tuple(ok), zero_floor, cfg)
        for d, crit, results, ok in zip(directions, crits, zip(*per_t), inactive_ok)
    ]


def _judge_probe(
    d: np.ndarray,
    crit: tuple[tuple[int, ...], tuple[int, ...]],
    t_schedule: tuple[float, ...],
    corrections: Sequence[CorrectionResult],
    inactive_ok: tuple[Optional[bool], ...],
    zero_floor: float,
    cfg: ToolConfig,
) -> TangentProbe:
    """The probe verdict of one direction from its corrections along the
    schedule; ``crit`` is its (I(x0, d), J(d)) pair."""
    converged_flags = [c.converged for c in corrections]
    final_residuals = [c.final_residual for c in corrections]
    initial_residuals = [c.initial_residual for c in corrections]
    r_norms = [float(np.linalg.norm(c.r)) if c.converged else None for c in corrections]
    ratios = [None if rn is None else rn / t for rn, t in zip(r_norms, t_schedule)]

    slope_pts = [(t, r) for t, r in zip(t_schedule, r_norms) if r is not None and r > zero_floor]
    slope = _fit_loglog_slope([p[0] for p in slope_pts], [p[1] for p in slope_pts])

    # eps0: the largest t such that every converged scheduled t' <= t is safe.
    eps0 = None
    for t, ok in sorted(zip(t_schedule, inactive_ok)):
        if ok is False:
            break
        if ok:
            eps0 = t

    tail_converged = all(converged_flags[-T_SCHEDULE_TAIL:])
    conv_ratios = [r for r, c in zip(ratios, converged_flags) if c]
    ratios_decreasing = all(
        b <= a + 1e-15 for a, b in zip(conv_ratios, conv_ratios[1:])
    )
    final_ratio = conv_ratios[-1] if conv_ratios else None
    # Inactive-constraint safety is an asymptotic guarantee (strict negativity
    # for all t below some eps0 > 0), so only the small-t tail is required;
    # a near-boundary cone direction may violate an inactive constraint at
    # the coarsest t and still be tangent.
    safe = all(ok is True for ok in inactive_ok[-T_SCHEDULE_TAIL:])

    # The schedule is never empty, so a converged tail sets final_ratio.
    passed = tail_converged and final_ratio <= cfg.ratio_tol and ratios_decreasing and safe

    hard_fail = False
    reason = None
    if not passed:
        if tail_converged and final_ratio >= 10.0 * cfg.ratio_tol:
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
        final_residuals=tuple(f if math.isfinite(f) else None for f in final_residuals),
        initial_residuals=tuple(i0 if math.isfinite(i0) else None for i0 in initial_residuals),
    )
    return TangentProbe(
        direction=d,
        j_set=crit[1],
        critical_set=crit[0],
        trace=trace,
        inactive_ok=inactive_ok,
        inactive_eps0=eps0,
        passed=passed,
        hard_fail=hard_fail,
        fail_reason=reason,
    )


@dataclass(frozen=True)
class AbadieReport:
    """Numerical evidence for the Abadie inclusion Gamma within T."""

    verdict: str
    cone: LinearizedCone
    gamma_in_T_evidence: tuple[TangentProbe, ...]   # one probe per face direction
    trivial_cone: bool
    witness: Optional[dict]


def abadie_verdict(sys: ConstraintSystem, x0: Sequence[float], cfg: ToolConfig,
                   pd: Optional[PointData] = None) -> AbadieReport:
    """Render consistent / violated / inconclusive from the cone-direction probes.

    The face directions of the linearized cone, up to ``DIRECTION_COUNT``,
    must each pass their tangent probe.  A hard
    failure is the witness for ``violated``; all-pass yields ``consistent``;
    anything softer is ``inconclusive``.  The converse inclusion T within
    Gamma holds for any C1 constraints, so it is not sampled.  ``pd`` is the
    evaluation of ``sys`` at ``x0`` when the caller has it.
    """
    if pd is None:
        pd = evaluate_point(sys, x0)
    violations = feasibility_check(pd, cfg.tol_feas)
    if violations:
        raise InfeasibleBasePointError(f"base point infeasible: violations {violations}")
    cone = build_linearized_cone(pd, active_set(pd, cfg.tol_active))
    t = cfg.t_schedule
    if len(t) < T_SCHEDULE_TAIL or any(a <= b for a, b in zip(t, t[1:])) or min(t) <= 0:
        raise ValueError(f"t_schedule must hold at least {T_SCHEDULE_TAIL} values, "
                         "positive and strictly descending")
    faces = face_directions(cone, DIRECTION_COUNT, cfg.tol_cone)
    probes = tuple(_probe_directions(sys, pd, faces, cfg))

    witness = None
    for p in probes:
        if p.hard_fail:
            witness = {
                "kind": "cone-direction-not-tangent",
                "direction": [float(v) for v in p.direction],
                "detail": p.fail_reason,
            }
            break

    if witness is not None:
        verdict = VIOLATED
    elif all(p.passed for p in probes):
        verdict = CONSISTENT
    else:
        verdict = INCONCLUSIVE

    return AbadieReport(
        verdict=verdict,
        cone=cone,
        gamma_in_T_evidence=probes,
        trivial_cone=not faces,
        witness=witness,
    )
