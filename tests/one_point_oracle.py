"""The former one-point rank and corrector code, and the tangent estimator,
kept as test oracles.

Before the cone-direction probes corrected their directions in lockstep
batches, every matrix was ranked on its own and every direction ran its own
Gauss-Newton loop with one ``pinv`` per step.  ``numerical_rank`` and
``ljusternik_correct`` below are that code, unchanged but for their names,
for evaluating one point as a batch of one (``_evaluate_at``), for the
exact power-of-two row scaling the pivot search now starts with, and for
the warm start and its cold retry, which the corrector no longer has;
``tests/test_lockstep_oracle.py`` checks that the stacked rank and the
lockstep corrector reproduce them bit for bit.  The oracle's results still
carry the pivot rows and the reason a correction stopped, which the
program does not report; the tests read them to see that every branch is
reached.

``tangent_direction_estimate`` estimates tangent directions from corrected
feasible points at shrinking radii.  The Abadie check no longer runs it: the
tangent cone lies in the linearized cone for any C1 constraints (Nocedal &
Wright, Numerical Optimization, 2nd ed., Lemma 12.2(i)).  The tests keep
checking that inclusion with it and ``cones.cone_member``.

``points_by_radius`` is the former sample plan, one list of points per
radius, which drew one normal vector per point;
``tests/test_sampling_oracle.py`` checks the flat plan, which draws one
array per radius layer, against it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.random import PCG64, Generator

from cq_analyzer.cones import build_linearized_cone, cone_member
from cq_analyzer.config import CORRECTOR_MAX_ITER, CORRECTOR_TOL
from cq_analyzer.model import ConstraintDomainError, active_set, evaluate_point, evaluate_rows
from cq_analyzer.rank import RankResult

ESTIMATE_PROBES = 32  # sample points per radius of the tangent estimate
ANGULAR_TOL = 1e-2  # radians within which estimated directions match


def _evaluate_at(functions, x):
    """``evaluate_rows`` at the one point ``x``: row 0 of a batch of one, with
    its (0, i) error keys turned into positions i."""
    values, rows, errors = evaluate_rows(functions, np.asarray(x, dtype=float)[None])
    return values[0], rows[0], {i: err for (_, i), err in errors.items()}


@dataclass(frozen=True)
class CorrectionResult:
    """One direction's correction, with the pivot rows and the reason it
    stopped, which show that the oracle's cases reach every branch."""

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


def numerical_rank(rows: np.ndarray, tol_rank: float) -> RankResult:
    """Rank and pivot rows of one small dense matrix."""
    rows = np.asarray(rows, dtype=float)
    rank, sigma = _rank(rows, tol_rank)
    pivots = _select_pivots(rows, rank, tol_rank * sigma.max(initial=0.0))
    return RankResult(rank, tuple(float(s) for s in sigma), pivots)


def _rank(rows: np.ndarray, tol_rank: float) -> tuple[int, np.ndarray]:
    if not 0.0 < tol_rank < 1.0:
        raise ValueError("tol_rank must lie in (0, 1)")
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("expected a 2-d array of rows")
    if rows.size == 0 or not np.any(rows):
        return 0, np.zeros(0)
    sigma = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(sigma > tol_rank * sigma[0])), sigma


def _select_pivots(rows: np.ndarray, rank: int, floor: float) -> tuple[int, ...]:
    # Each row scaled exactly by a power of two, its largest entry in
    # [0.5, 1); a row of subnormal entries, or of norm at most ``floor``,
    # counts as zero.
    peak = np.abs(rows).max(axis=1, initial=0.0)
    exponent = np.frexp(peak)[1]
    rows = np.ldexp(rows, -exponent[:, None])
    norms = np.linalg.norm(rows, axis=1)
    nonzero = (peak >= np.finfo(float).tiny) & (np.ldexp(norms, exponent) > floor)
    residual = rows.copy()
    chosen: list[int] = []
    for _ in range(rank):
        rel = np.zeros(len(rows))
        rel[nonzero] = np.linalg.norm(residual[nonzero], axis=1) / norms[nonzero]
        rel[chosen] = -1.0
        best = int(np.argmax(rel))  # argmax keeps the lowest index on ties
        chosen.append(best)
        norm = np.linalg.norm(residual[best])
        q = residual[best] / norm if norm > 0.0 else np.zeros(len(residual[best]))
        residual = residual - np.outer(residual @ q, q)
    return tuple(i + 1 for i in chosen)


def ljusternik_correct(
    sys,
    j_set: Sequence[int],
    x0: Sequence[float],
    d: Sequence[float],
    t: float,
    cfg,
) -> CorrectionResult:
    """One direction's minimal-norm Gauss-Newton correction at one t, from
    r = 0."""
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
    values0, rows0, errors = _evaluate_at(functions, base)
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
    pivot_pos = [p - 1 for p in rank0.pivot_indices]
    if not pivot:
        converged = initial_residual <= residual_tol
        return CorrectionResult(
            r=np.zeros(sys.dimension), converged=converged, iterations=0,
            initial_residual=initial_residual, final_residual=initial_residual,
            pivot_indices=(), diagnostic=None if converged else "zero-gradient pivot",
        )

    r = np.zeros(sys.dimension)
    final = math.inf
    for it in range(CORRECTOR_MAX_ITER + 1):
        values_j, rows_j, errors = _evaluate_at(functions, base + r)
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
        r = np.linalg.pinv(piv_rows) @ (piv_rows @ r - piv_values)
    return CorrectionResult(
        r=r, converged=False, iterations=CORRECTOR_MAX_ITER,
        initial_residual=initial_residual, final_residual=final,
        pivot_indices=pivot, diagnostic="iteration cap reached",
    )


def correct_equalities(sys, eq_indices, x, gn_tol, cfg) -> Optional[np.ndarray]:
    """Gauss-Newton of one point onto the equality pivot rows; None on failure."""
    values, rows, errors = _evaluate_at([sys.constraint(i) for i in eq_indices], x)
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
        values, rows, errors = _evaluate_at(pivot_functions, x)
        if errors:
            return None
    return x if float(np.max(np.abs(values), initial=0.0)) <= gn_tol else None


def feasible_at_scale(sys, indices, x, radius, tol_feas) -> bool:
    """Are one point's constraint violations at most tol * r * (1 + |grad|)?"""
    values, rows, errors = _evaluate_at([sys.constraint(i) for i in indices], x)
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
class TangentEstimate:
    """Stable tangent-direction estimates from corrected feasible probes."""

    directions: tuple[np.ndarray, ...]
    trivial: bool                      # no stable direction at all
    per_radius_counts: tuple[tuple[float, int], ...]


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


def tangent_direction_estimate(sys, x0, count, radius_schedule, seed, cfg) -> TangentEstimate:
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
    offers no stable direction, e.g. an isolated point.  A direction
    estimated at radius r carries an O(r) angular resolution, so cone
    membership is tested at ``max(tol_cone, min(radii))``.
    """
    x0 = np.asarray(x0, dtype=float)
    eq_indices = tuple(sys.equality_indices)
    all_indices = tuple(range(1, sys.n_constraints + 1))
    gn_tol = 1e-14 * (1.0 + float(np.max(np.abs(x0), initial=0.0)))
    cos_tol = math.cos(ANGULAR_TOL)

    layers = []
    for radius, points in points_by_radius(x0, radius_schedule, count, seed):
        kept = []
        for p in points:
            x = p.copy()
            if eq_indices:
                x = correct_equalities(sys, eq_indices, x, gn_tol, cfg)
                if x is None:
                    continue
            dist = float(np.linalg.norm(x - x0))
            if not (0.3 * radius <= dist <= 3.0 * radius):
                continue
            if not feasible_at_scale(sys, all_indices, x, radius, cfg.tol_feas):
                continue
            kept.append((x - x0) / dist)
        layers.append((radius, _cluster_directions(kept, cos_tol)))

    chain_span = min(3, len(layers))
    tail = layers[-chain_span:]
    stable = []
    for rep in tail[-1][1]:
        current = rep
        ok = True
        for radius, reps in reversed(tail[:-1]):
            match = next((r for r in reps if float(current @ r) >= cos_tol), None)
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


def estimate_memberships(sys, x0, cfg) -> list[tuple[tuple[float, ...], bool, bool]]:
    """``(direction, member, hard_failure)`` per tangent estimate.

    A direction is a member when it lies in the linearized cone at the
    estimate's resolution ``max(tol_cone, min(radii))``, and a hard failure
    when it lies outside it even at 10x that tolerance.
    """
    x0 = np.asarray(x0, dtype=float)
    estimates = tangent_direction_estimate(
        sys, x0, ESTIMATE_PROBES, cfg.radii, cfg.seed + 2, cfg
    )
    if not estimates.directions:
        return []
    pd = evaluate_point(sys, x0)
    cone = build_linearized_cone(pd, active_set(pd, cfg.tol_active))
    est_tol = max(cfg.tol_cone, min(cfg.radii))
    memberships = []
    for d in estimates.directions:
        member = cone_member(cone, d, est_tol)
        hard = not member and not cone_member(cone, d, 10.0 * est_tol)
        memberships.append((tuple(float(v) for v in d), member, hard))
    return memberships


def points_by_radius(center, radii, samples_per_radius,
                     seed) -> list[tuple[float, list[np.ndarray]]]:
    """``rank.sample_plan(center, radii, samples_per_radius, seed)`` drawn
    one normal vector per point, as a list of (radius, points) layers."""
    rng = Generator(PCG64(int(seed)))
    center = np.array([float(c) for c in center])
    n = len(center)
    out = []
    for r in (float(r) for r in radii):
        layer = []
        for _ in range(samples_per_radius):
            g = rng.standard_normal(n)
            norm = np.linalg.norm(g)
            while norm == 0.0:  # essentially impossible, but deterministic
                g = rng.standard_normal(n)
                norm = np.linalg.norm(g)
            layer.append(center + (r / norm) * g)
        out.append((r, layer))
    return out
