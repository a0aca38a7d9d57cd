"""Numerical rank analysis and constant-rank certification by sampling.

The rank of a gradient family is decided by singular values with a relative
cutoff: k = #{sigma_i > tol_rank * sigma_max}.  Neighborhood quantifiers
("there exists a neighbourhood ...") are replaced by a deterministic, seeded
sampler over a descending radius schedule; positive verdicts are therefore
labeled ``certified-by-sampling``, never proved.  A refutation, by contrast,
always carries a concrete witness point whose rank differs from the rank at
the center.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.random import PCG64, Generator

from .expr import Expression
from .model import ActiveSet, ConstraintSystem, evaluate_rows

__all__ = [
    "CrcReport",
    "DEFAULT_RADII",
    "NeighborhoodSampler",
    "RankResult",
    "RcrcqReport",
    "SampleJacobian",
    "SubsetGuardError",
    "check_crc",
    "check_rcrcq",
    "numerical_rank",
    "sample_jacobian",
]

DEFAULT_RADII = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)

CERTIFIED = "certified-by-sampling"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


class SubsetGuardError(ValueError):
    """Too many active constraints for exhaustive 2^|I(x0)| subset enumeration."""


@dataclass(frozen=True)
class RankResult:
    """Numerical rank of a row set with the pivot rows that realize it."""

    rank: int
    singular_values: tuple[float, ...]   # descending
    pivot_indices: tuple[int, ...]       # 1-based row indices, exactly `rank` of them
    tolerance_used: float


def numerical_rank(rows: np.ndarray, tol_rank: float) -> RankResult:
    """Rank and pivot rows of a small dense matrix.

    The rank is the number of singular values exceeding
    ``tol_rank * sigma_max`` (zero for an all-zero or empty matrix).  Pivot
    rows are chosen greedily by largest residual norm relative to the
    original row norm, projecting out each chosen row; ties keep the lowest
    index.  The relative normalization makes the selection invariant under
    row scaling, matching the scale invariance of the rank itself.
    """
    rows = np.asarray(rows, dtype=float)
    rank, sigma = _rank(rows, tol_rank)
    pivots = _select_pivots(rows, rank)
    return RankResult(rank, tuple(float(s) for s in sigma), pivots, tol_rank)


def _rank(rows: np.ndarray, tol_rank: float) -> tuple[int, np.ndarray]:
    """Numerical rank and descending singular values, without pivots."""
    if not 0.0 < tol_rank < 1.0:
        raise ValueError("tol_rank must lie in (0, 1)")
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("expected a 2-d array of rows")
    if rows.size == 0 or not np.any(rows):
        return 0, np.zeros(0)
    sigma = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(sigma > tol_rank * sigma[0])), sigma


def _select_pivots(rows: np.ndarray, rank: int) -> tuple[int, ...]:
    norms = np.linalg.norm(rows, axis=1)
    residual = rows.copy()
    chosen: list[int] = []
    for _ in range(rank):
        rel = np.zeros(len(rows))
        nonzero = norms > 0.0
        rel[nonzero] = np.linalg.norm(residual[nonzero], axis=1) / norms[nonzero]
        rel[chosen] = -1.0
        best = int(np.argmax(rel))  # argmax keeps the lowest index on ties
        chosen.append(best)
        q = residual[best] / np.linalg.norm(residual[best])
        residual = residual - np.outer(residual @ q, q)
    return tuple(i + 1 for i in chosen)


@dataclass(frozen=True)
class NeighborhoodSampler:
    """Deterministic seeded sphere samples around a center, per radius.

    Identical fields always produce the identical point sequence; every
    emitted point lies within the largest radius of the center.  Points are
    ordered by (radius descending, sample index).
    """

    center: tuple[float, ...]
    radii: tuple[float, ...] = DEFAULT_RADII
    samples_per_radius: int = 32
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        radii = tuple(float(r) for r in self.radii)
        if not radii or any(r <= 0 for r in radii):
            raise ValueError("radii must be positive")
        if list(radii) != sorted(radii, reverse=True):
            raise ValueError("radii must be strictly descending")
        object.__setattr__(self, "radii", radii)

    @property
    def dimension(self) -> int:
        return len(self.center)

    def points_by_radius(self) -> list[tuple[float, list[np.ndarray]]]:
        """[(radius, [point, ...]), ...] with radii descending."""
        rng = Generator(PCG64(int(self.seed)))
        center = np.asarray(self.center)
        n = len(center)
        out = []
        for r in self.radii:
            layer = []
            for _ in range(self.samples_per_radius):
                g = rng.standard_normal(n)
                norm = np.linalg.norm(g)
                while norm == 0.0:  # essentially impossible, but deterministic
                    g = rng.standard_normal(n)
                    norm = np.linalg.norm(g)
                layer.append(center + (r / norm) * g)
            out.append((r, layer))
        return out

    def points(self) -> list[np.ndarray]:
        return [p for _, layer in self.points_by_radius() for p in layer]

    def to_dict(self) -> dict:
        return {
            "radii": list(self.radii),
            "samples_per_radius": self.samples_per_radius,
            "seed": int(self.seed),
        }


@dataclass(frozen=True)
class CrcReport:
    """Outcome of a constant-rank check for one function family."""

    verdict: str                       # certified-by-sampling | refuted | inconclusive
    kappa: int
    rank_at_center: Optional[int]
    pivot_indices: tuple[int, ...]
    singular_values_at_center: tuple[float, ...]
    rank_counts_by_radius: tuple[tuple[float, tuple[tuple[int, int], ...]], ...]
    witness: Optional[dict] = None     # {"point": [...], "rank": int}
    skipped_points: int = 0
    total_points: int = 0
    center_unevaluable_rows: tuple[int, ...] = ()
    tolerance_used: float = 1e-8
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "kappa": self.kappa,
            "rank_at_center": self.rank_at_center,
            "pivot_indices": list(self.pivot_indices),
            "singular_values_at_center": list(self.singular_values_at_center),
            "rank_counts_by_radius": [
                {"radius": r, "rank_counts": {str(k): c for k, c in counts}}
                for r, counts in self.rank_counts_by_radius
            ],
            "witness": self.witness,
            "skipped_points": self.skipped_points,
            "total_points": self.total_points,
            "center_unevaluable_rows": list(self.center_unevaluable_rows),
            "tolerance_used": self.tolerance_used,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class SampleJacobian:
    """Values and gradient rows of one function family at a sampler's center
    and points.

    ``layers`` holds ``(radius, points, values, rows, failed)`` per sample
    radius: ``values[p]`` and ``rows[p]`` are the (kappa,) values and the
    (kappa, n) gradient matrix at ``points[p]``, and ``failed[p, i]`` marks a
    function that could not be evaluated there (its value and row are zero).
    :meth:`select` restricts every array to a subfamily without evaluating
    anything again.  The points are the sample plan of ``sampler``, drawn
    once: every consumer reads them here.
    """

    sampler: NeighborhoodSampler
    center_values: np.ndarray             # (kappa,)
    center_rows: np.ndarray               # (kappa, n)
    center_failed: np.ndarray             # (kappa,) bool
    layers: tuple[
        tuple[float, tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray], ...
    ]

    @property
    def kappa(self) -> int:
        return self.center_rows.shape[0]

    def select(self, cols: Sequence[int]) -> "SampleJacobian":
        """The subfamily of the 0-based rows ``cols``, in that order."""
        cols = list(cols)
        return SampleJacobian(
            sampler=self.sampler,
            center_values=self.center_values[cols],
            center_rows=self.center_rows[cols],
            center_failed=self.center_failed[cols],
            layers=tuple(
                (radius, points, values[:, cols], rows[:, cols], failed[:, cols])
                for radius, points, values, rows, failed in self.layers
            ),
        )


def sample_jacobian(
    functions: Sequence[Expression], sampler: NeighborhoodSampler
) -> SampleJacobian:
    """Evaluate every function once at the sampler's center and at each of its points."""
    kappa, n = len(functions), sampler.dimension
    center_values, center_rows, errors = evaluate_rows(functions, sampler.center)
    center_failed = np.zeros(kappa, dtype=bool)
    center_failed[list(errors)] = True
    layers = []
    for radius, points in sampler.points_by_radius():
        values = np.zeros((len(points), kappa))
        rows = np.zeros((len(points), kappa, n))
        failed = np.zeros((len(points), kappa), dtype=bool)
        for p, point in enumerate(points):
            values[p], rows[p], errors = evaluate_rows(functions, point)
            failed[p, list(errors)] = True
        layers.append((radius, tuple(points), values, rows, failed))
    return SampleJacobian(sampler, center_values, center_rows, center_failed, tuple(layers))


def check_crc(jacobian: SampleJacobian, tol_rank: float) -> CrcReport:
    """Certify or refute constant rank of the gradient family near the center.

    ``jacobian`` holds the family's gradients, evaluated once per point by
    :func:`sample_jacobian` (or a :meth:`SampleJacobian.select` view of a
    larger family), so no gradient is evaluated here.  Certified-by-sampling
    means the numerical rank at every sampled point equals the rank at the
    center; pivots are selected at the center only.  A sample point is
    skipped and counted when a row of this family failed to evaluate there;
    failures of rows outside the family do not count.  No sample points,
    more than 20% skipped points, or an unevaluable gradient at the center
    itself yields ``inconclusive`` (a refutation witness still dominates).
    """
    kappa = jacobian.kappa
    if kappa == 0:
        # Zero functions: rank 0 everywhere, the degenerate certified case.
        return CrcReport(
            verdict=CERTIFIED, kappa=0, rank_at_center=0, pivot_indices=(),
            singular_values_at_center=(), rank_counts_by_radius=(),
            tolerance_used=tol_rank, notes=("empty function family",),
        )
    center_failed = tuple(int(i) + 1 for i in np.flatnonzero(jacobian.center_failed))
    notes: list[str] = []
    if center_failed:
        center_rank = None
        center_result = None
        notes.append(
            "gradient rows unevaluable at the center: "
            + ", ".join(str(i) for i in center_failed)
        )
    else:
        center_result = numerical_rank(jacobian.center_rows, tol_rank)
        center_rank = center_result.rank

    witness = None
    skipped = 0
    total = 0
    by_radius = []
    for radius, points, _, rows, failed in jacobian.layers:
        counts: dict[int, int] = {}
        for point, point_rows, point_failed in zip(points, rows, failed.any(axis=1)):
            total += 1
            if point_failed:
                skipped += 1
                continue
            rank_here = _rank(point_rows, tol_rank)[0]
            counts[rank_here] = counts.get(rank_here, 0) + 1
            if center_rank is not None and rank_here != center_rank and witness is None:
                witness = {"point": [float(v) for v in point], "rank": rank_here}
        by_radius.append((radius, tuple(sorted(counts.items()))))

    if witness is not None:
        verdict = REFUTED
    elif center_rank is None:
        verdict = INCONCLUSIVE
    elif total == 0:
        verdict = INCONCLUSIVE
        notes.append("no sample points: constant rank was not tested")
    elif skipped > 0.2 * total:
        verdict = INCONCLUSIVE
        notes.append(f"{skipped}/{total} sample points skipped")
    else:
        verdict = CERTIFIED

    return CrcReport(
        verdict=verdict,
        kappa=kappa,
        rank_at_center=center_rank,
        pivot_indices=center_result.pivot_indices if center_result else (),
        singular_values_at_center=(
            center_result.singular_values if center_result else ()
        ),
        rank_counts_by_radius=tuple(by_radius),
        witness=witness,
        skipped_points=skipped,
        total_points=total,
        center_unevaluable_rows=center_failed,
        tolerance_used=tol_rank,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class RcrcqReport:
    """Per-subset constant-rank evidence for all J with I_0 <= J <= I_0 + I(x0)."""

    verdict: str
    base_ranks: tuple[tuple[tuple[int, ...], Optional[int]], ...]
    subsets: tuple[tuple[tuple[int, ...], CrcReport], ...]
    active_indices: tuple[int, ...]
    equality_indices: tuple[int, ...]
    tolerance_used: float
    sampler_config: dict = field(default_factory=dict)

    @property
    def subset_count(self) -> int:
        return len(self.subsets)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "equality_indices": list(self.equality_indices),
            "active_indices": list(self.active_indices),
            "subset_count": self.subset_count,
            "base_ranks": [
                {"subset": list(j), "rank": r} for j, r in self.base_ranks
            ],
            "subsets": [
                {"subset": list(j), **report.to_dict()} for j, report in self.subsets
            ],
            "tolerance_used": self.tolerance_used,
            "sampler": dict(self.sampler_config),
        }


def check_rcrcq(
    sys: ConstraintSystem,
    aset: ActiveSet,
    jacobian: SampleJacobian,
    tol_rank: float,
    max_active: int = 20,
) -> RcrcqReport:
    """Run the constant-rank check for every J with I_0 <= J <= I_0 + I(x0).

    ``jacobian`` holds every constraint of ``sys`` in index order, from
    :func:`sample_jacobian`.  Every subset is ranked from row slices of it,
    so no gradient is evaluated here, and a point is skipped for J only when
    a row in J failed there.  The verdict aggregates per-subset verdicts with
    refuted dominating, then inconclusive, then certified.
    """
    active = tuple(sorted(aset.indices))
    if len(active) > max_active:
        raise SubsetGuardError(
            f"|I(x0)| = {len(active)} active constraints would require "
            f"2^{len(active)} subset checks; raise the activity tolerance or "
            "analyze an explicit subset list instead"
        )
    eq = tuple(sys.equality_indices)

    subsets = []
    base_ranks = []
    verdicts = []
    for size in range(len(active) + 1):
        for extra in itertools.combinations(active, size):
            j = tuple(sorted(set(eq) | set(extra)))
            report = check_crc(jacobian.select([i - 1 for i in j]), tol_rank)
            subsets.append((j, report))
            base_ranks.append((j, report.rank_at_center))
            verdicts.append(report.verdict)

    if REFUTED in verdicts:
        verdict = REFUTED
    elif INCONCLUSIVE in verdicts:
        verdict = INCONCLUSIVE
    else:
        verdict = CERTIFIED
    return RcrcqReport(
        verdict=verdict,
        base_ranks=tuple(base_ranks),
        subsets=tuple(subsets),
        active_indices=active,
        equality_indices=eq,
        tolerance_used=tol_rank,
        sampler_config=jacobian.sampler.to_dict(),
    )
