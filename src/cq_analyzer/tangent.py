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
    """Jobs with one J and one pivot count, one row per job: what their
    Gauss-Newton iterations hold fixed, namely the base points x0 + t*d, the
    pivot rows chosen there (as positions in J) and the residual tolerances."""

    functions: list
    jobs: list[int]
    base: np.ndarray                   # (P, n)
    pivot_pos: np.ndarray              # (P, pivot count)
    initial_residual: np.ndarray       # (P,)
    residual_tol: np.ndarray           # (P,)

    def take(self, rows: list[int]) -> "_Group":
        return _Group(self.functions, [self.jobs[p] for p in rows], self.base[rows],
                      self.pivot_pos[rows], self.initial_residual[rows],
                      self.residual_tol[rows])

    def result(self, p, r, converged, iterations, final) -> CorrectionResult:
        return CorrectionResult(
            r=r, converged=converged, iterations=iterations,
            initial_residual=float(self.initial_residual[p]), final_residual=float(final),
        )


def _correct_lockstep(sys, x0, t, jobs, cfg) -> list[CorrectionResult]:
    """Minimal-norm Gauss-Newton corrections r with h_i(x0 + t d + r) = 0,
    i in J, for every ``(j_set, d, warm_start)`` job at one t.

    Pivot rows are re-selected at x0 + t*d by numerical rank; every step
    solves the linearized pivot system by pseudoinverse (the minimal-norm
    update), while convergence is judged on the full J residual with
    ``||h_J||_inf <= CORRECTOR_TOL * (1 + scale)``.  A job that does not
    converge gets a non-converged result (r is the last iterate) instead of
    an exception, and so does one that leaves the domain (with r = None
    when it leaves at x0 + t*d).  A non-converged warm start is retried from
    r = 0.

    The jobs are corrected in lockstep: the base points of each J are
    evaluated in one call and ranked with one stacked SVD, and the jobs of
    each (J, pivot count) group iterate as one array, so that a Gauss-Newton
    step is one evaluation and one stacked pinv for the whole group.  A job
    leaves its group when it converges, leaves the domain or reaches the
    iteration cap; the cold retries run in a second pass.  Each result
    equals the one the job would get alone, bit for bit.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    x0 = np.asarray(x0, dtype=float)
    n = sys.dimension
    results: list[Optional[CorrectionResult]] = [None] * len(jobs)
    by_j: dict = {}                        # J -> job numbers
    for k, (j_set, _, _) in enumerate(jobs):
        j = tuple(sorted(j_set))
        if not j:
            results[k] = CorrectionResult(
                r=np.zeros(n), converged=True, iterations=0,
                initial_residual=0.0, final_residual=0.0,
            )
            continue
        by_j.setdefault(j, []).append(k)

    for j, members in by_j.items():
        functions = [sys.constraint(i) for i in j]
        base = np.array([x0 + t * np.asarray(jobs[k][1], dtype=float) for k in members])
        values0, rows0, errors = evaluate_rows(functions, base)
        failed = {p for p, _ in errors}
        for p in failed:
            results[members[p]] = CorrectionResult(
                r=None, converged=False, iterations=0, initial_residual=math.inf,
                final_residual=math.inf,
            )
        ok = [p for p in range(len(members)) if p not in failed]
        if not ok:
            continue
        initial = np.max(np.abs(values0), axis=1, initial=0.0)
        residual_tol = CORRECTOR_TOL * (1.0 + np.maximum(1.0, initial))
        by_count: dict = {}                # pivot count -> [(p, pivot positions in J)]
        for p, rank0 in zip(ok, numerical_rank(rows0[ok], cfg.tol_rank)):
            pos = [i - 1 for i in rank0.pivot_indices]
            if pos:
                by_count.setdefault(len(pos), []).append((p, pos))
                continue
            # All gradient rows vanish at the base: nothing to iterate along.
            converged = bool(initial[p] <= residual_tol[p])
            results[members[p]] = CorrectionResult(
                r=np.zeros(n), converged=converged, iterations=0,
                initial_residual=float(initial[p]), final_residual=float(initial[p]),
            )
        for pivots in by_count.values():
            ps = [p for p, _ in pivots]
            group = _Group(functions, [members[p] for p in ps], base[ps],
                           np.array([pos for _, pos in pivots]), initial[ps], residual_tol[ps])
            warm = [jobs[k][2] for k in group.jobs]
            starts = np.array([np.zeros(n) if w is None else w for w in warm], dtype=float)
            done = _iterate_lockstep(group, starts)
            retry = [p for p, w in enumerate(warm) if w is not None and not done[p].converged]
            if retry:
                cold = _iterate_lockstep(group.take(retry), np.zeros((len(retry), n)))
                for p, result in zip(retry, cold):
                    if result.converged:
                        done[p] = result
            for k, result in zip(group.jobs, done):
                results[k] = result
    return results


def _iterate_lockstep(group: _Group, starts: np.ndarray) -> list[CorrectionResult]:
    """Gauss-Newton iterations of every job of ``group`` from its row of
    ``starts``, in lockstep; the results in the group's row order."""
    results: list[Optional[CorrectionResult]] = [None] * len(group.jobs)
    live = np.arange(len(group.jobs))      # group rows still iterating
    r = starts
    final = np.full(len(live), math.inf)
    for it in range(CORRECTOR_MAX_ITER + 1):
        values, rows, errors = evaluate_rows(group.functions, group.base[live] + r)
        failed = {p for p, _ in errors}
        for p in failed:
            results[live[p]] = group.result(live[p], r[p], False, it, final[p])
        ok = np.ones(len(live), dtype=bool)
        ok[list(failed)] = False
        final[ok] = np.max(np.abs(values[ok]), axis=1, initial=0.0)
        converged = ok & (final <= group.residual_tol[live])
        for p in np.flatnonzero(converged):
            results[live[p]] = group.result(live[p], r[p], True, it, final[p])
        keep = ok & ~converged
        live, r, final, values, rows = live[keep], r[keep], final[keep], values[keep], rows[keep]
        if it == CORRECTOR_MAX_ITER or not len(live):
            break
        # Minimal-norm update: r_new = pinv(J)(J r - h) solves the linearized
        # system while discarding the null-space component of the iterate,
        # so the limit is the minimal-norm correction regardless of the warm
        # start.
        pos = group.pivot_pos[live]
        at = np.arange(len(live))[:, None]
        piv_values, piv_rows = values[at, pos], rows[at, pos]
        rhs = np.matmul(piv_rows, r[:, :, None])[..., 0] - piv_values
        r = np.matmul(np.linalg.pinv(piv_rows), rhs[..., None])[..., 0]
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

    The directions are corrected in lockstep at each t, and each probe
    equals the one its direction would get alone, bit for bit.
    """
    x0 = pd.point
    t_schedule = tuple(float(t) for t in cfg.t_schedule)
    directions = [d for _, d in faces]
    crits = [(s, tuple(sorted(pd.equality_indices + s))) for s, _ in faces]
    inactive = [tuple(i for i in pd.inequality_indices if i not in j) for _, j in crits]
    corrections: list[list[CorrectionResult]] = [[] for _ in directions]
    inactive_ok: list[list[Optional[bool]]] = [[] for _ in directions]
    prev: list[Optional[tuple[float, np.ndarray]]] = [None] * len(directions)
    for t in t_schedule:
        # Warm start from the previous correction, prescaled quadratically:
        # ||r|| = O(t^2) under the theory, and an unscaled warm start would
        # seed a tangential offset of the previous magnitude.
        jobs = [
            (j_set, d, None if last is None else last[1] * (t / last[0]) ** 2)
            for (_, j_set), d, last in zip(crits, directions, prev)
        ]
        by_inactive: dict = {}             # inactive set -> converged directions
        for k, result in enumerate(_correct_lockstep(sys, x0, t, jobs, cfg)):
            corrections[k].append(result)
            if result.converged:
                prev[k] = (t, result.r)
                by_inactive.setdefault(inactive[k], []).append(k)
        ok_at_t: dict = {}
        for indices, ks in by_inactive.items():
            points = np.array([x0 + t * directions[k] + corrections[k][-1].r for k in ks])
            values, _, errors = evaluate_rows([sys.constraint(i) for i in indices], points)
            failed = {p for p, _ in errors}
            for p, k in enumerate(ks):
                ok_at_t[k] = p not in failed and bool(np.all(values[p] < 0.0))
        for k in range(len(directions)):
            inactive_ok[k].append(ok_at_t.get(k))
    zero_floor = 1e-13 * (1.0 + float(np.max(np.abs(x0), initial=0.0)))
    return [
        _judge_probe(d, crit, bool(inact), t_schedule, results, tuple(ok), zero_floor, cfg)
        for d, crit, inact, results, ok in zip(
            directions, crits, inactive, corrections, inactive_ok
        )
    ]


def _judge_probe(
    d: np.ndarray,
    crit: tuple[tuple[int, ...], tuple[int, ...]],
    has_inactive: bool,
    t_schedule: tuple[float, ...],
    corrections: list[CorrectionResult],
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
    safe = all(ok is True for ok in inactive_ok[-tail:]) if has_inactive else True

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
        final_residuals=tuple(final_residuals),
        initial_residuals=tuple(initial_residuals),
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
    probes: tuple[TangentProbe, ...]
    trivial_cone: bool
    witness: Optional[dict]

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "cone": self.cone.to_dict(),
            "gamma_in_T_evidence": [p.to_dict() for p in self.probes],
            "trivial_cone": self.trivial_cone,
            "witness": self.witness,
        }


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
    if any(a <= b for a, b in zip(t, t[1:])) or min(t) <= 0:
        raise ValueError("t_schedule must be positive and strictly descending")
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
        probes=probes,
        trivial_cone=not faces,
        witness=witness,
    )
