"""Numerical rank analysis and constant-rank certification by sampling.

The rank of a gradient family is decided by singular values with a relative
cutoff: k = #{sigma_i > tol_rank * sigma_max}.  Neighborhood quantifiers
("there exists a neighbourhood ...") are replaced by a deterministic, seeded
sampler over a descending radius schedule; positive verdicts are therefore
labeled ``certified-by-sampling``, never proved.  A refutation, by contrast,
always carries a concrete witness point whose rank rises above the rank at
the center; a lower rank refutes nothing, since the rank cannot fall below
its center value near the center.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.random import PCG64, Generator

from .config import ToolConfig
from .expr import Expression
from .model import ConstraintSystem, evaluate_rows

__all__ = [
    "CrcReport",
    "RankResult",
    "RcrcqReport",
    "SampleJacobian",
    "SubsetGuardError",
    "check_crc",
    "check_rcrcq",
    "numerical_rank",
    "sample_jacobian",
    "sample_plan",
]

CERTIFIED = "certified-by-sampling"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"
# check_rcrcq refuses more active constraints than this (2^20 subsets).
MAX_ACTIVE = 20


class SubsetGuardError(ValueError):
    """Too many active constraints for exhaustive 2^|I(x0)| subset enumeration."""


@dataclass(frozen=True)
class RankResult:
    """Numerical rank of a row set with the pivot rows that realize it."""

    rank: int
    singular_values: tuple[float, ...]   # descending
    pivot_indices: tuple[int, ...]       # 1-based row indices, exactly `rank` of them


def numerical_rank(rows: np.ndarray, tol_rank: float) -> RankResult | tuple[RankResult, ...]:
    """Rank and pivot rows of a small dense matrix, or of each matrix of a stack.

    ``rows`` is one (m, n) matrix, which gives one :class:`RankResult`, or a
    (P, m, n) stack, which gives a tuple of P results from one stacked SVD
    and one pivot selection run for all P matrices at once; a matrix is
    ranked bit for bit alike either way.  The rank is the number of singular
    values exceeding ``tol_rank * sigma_max`` (zero for an all-zero or empty
    matrix).  Pivot rows are chosen greedily by largest residual norm
    relative to the original row norm, projecting out each chosen row; ties
    keep the lowest index.  The relative normalization makes the selection
    invariant under row scaling, matching the scale invariance of the rank
    itself.  A row whose norm is at most ``tol_rank * sigma_max``, which the
    rank counts as zero, is picked only when too few other rows remain.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim not in (2, 3):
        raise ValueError("expected a 2-d array of rows or a 3-d stack of them")
    stack = rows[None] if rows.ndim == 2 else rows
    ranks, sigma = _ranks(stack, tol_rank)
    nonzero = stack.any(axis=(1, 2)).tolist()
    floor = tol_rank * sigma.max(axis=1, initial=0.0)
    results = tuple(
        RankResult(k, tuple(sig) if nz else (), piv)
        for k, sig, nz, piv in zip(ranks.tolist(), sigma.tolist(), nonzero,
                                   _select_pivots(stack, ranks, floor))
    )
    return results[0] if rows.ndim == 2 else results


def _ranks(stack: np.ndarray, tol_rank: float) -> tuple[np.ndarray, np.ndarray]:
    """Numerical ranks (P,) and descending singular values (P, min(m, n)) of a
    (P, m, n) stack, from one stacked SVD, without pivots."""
    if not 0.0 < tol_rank < 1.0:
        raise ValueError("tol_rank must lie in (0, 1)")
    if stack.size == 0:
        return np.zeros(len(stack), dtype=int), np.zeros((len(stack), 0))
    sigma = np.linalg.svd(stack, compute_uv=False)
    return np.sum(sigma > tol_rank * sigma[:, :1], axis=1), sigma


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, each equal bit for bit to
    ``np.linalg.norm`` of that one vector (a dot product, which
    ``np.linalg.norm(..., axis=-1)`` is not)."""
    return np.sqrt(np.matmul(vectors[..., None, :], vectors[..., :, None]))[..., 0, 0]


def _row_norms(stack: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(stack, axis=-1)`` for real input, by its own formula,
    without the checks around it."""
    return np.sqrt(np.add.reduce(stack * stack, axis=-1))


_TINY = np.finfo(float).tiny  # the smallest normal double


def _select_pivots(stack: np.ndarray, ranks: np.ndarray,
                   floor: np.ndarray) -> list[tuple[int, ...]]:
    """Greedy pivot rows of every matrix of a (P, m, n) stack, one step for
    all matrices that still need a pivot at a time.  While every matrix
    needs one, a step works on the whole stack in place; after that it
    gathers the matrices that do.

    Each row is first scaled by the power of two that brings its largest
    entry into [0.5, 1).  That is exact, and the choice is invariant under
    row scaling, so no square under- or overflows for rows far from 1.  A
    row whose entries are all subnormal still counts as zero: the
    pseudoinverse of a pivot on it would overflow.  So does a row whose norm
    is at most its matrix's ``floor`` (P,), ``tol_rank * sigma_max``: the
    rank counts it as zero.  A zero row is picked only when no other row has
    a residual left, the lowest index first."""
    count, m, _ = stack.shape
    peak = np.abs(stack).max(axis=-1, initial=0.0)
    exponent = np.frexp(peak)[1]
    residual = np.ldexp(stack, -exponent[..., None])
    norms = _row_norms(residual)
    nonzero = (peak >= _TINY) & (np.ldexp(norms, exponent) > floor[:, None])
    chosen = np.zeros((count, int(ranks.max(initial=0))), dtype=int)
    taken = np.zeros((count, m), dtype=bool)
    every, everyone = np.arange(count), (ranks.min() if count else 0)
    for step in range(chosen.shape[1]):
        whole = step < everyone
        live = every if whole else np.flatnonzero(ranks > step)
        part = slice(None) if whole else live
        res = residual[part]
        rel = np.zeros((len(live), m))
        np.divide(_row_norms(res), norms[part], out=rel, where=nonzero[part])
        rel[taken[part]] = -1.0
        best = np.argmax(rel, axis=1)  # argmax keeps the lowest index on ties
        picked = res[every[:len(live)], best]
        norm = _norms(picked)[:, None]   # a zero pick projects nothing out
        q = np.divide(picked, norm, out=np.zeros(picked.shape), where=norm > 0.0)
        residual[part] = res - np.matmul(res, q[:, :, None]) * q[:, None, :]
        chosen[live, step] = best
        taken[live, best] = True
    return [tuple(row[:k]) for row, k in zip((chosen + 1).tolist(), ranks.tolist())]


def _nonzero_normal(rng: Generator, n: int) -> np.ndarray:
    """A standard normal n-vector, redrawn while it is zero."""
    g = rng.standard_normal(n)
    while _norms(g) == 0.0:
        g = rng.standard_normal(n)
    return g


def sample_plan(center: Sequence[float], radii: Sequence[float], samples_per_radius: int,
                seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic seeded sphere samples around ``center``, per radius.

    Returns ``(radius, points)``, shaped (1+P,) and (1+P, n): row 0 is the
    center at radius 0, then ``samples_per_radius`` points per radius,
    radii descending.  Identical arguments always give the identical points,
    and every point lies within the largest radius of the center.

    Each radius layer is one draw of ``samples_per_radius`` normal vectors,
    the same stream as one draw per point.  A zero vector, which is
    essentially impossible, is redrawn: the layer is then drawn again one
    point at a time from the state it started from.
    """
    center = np.array([float(c) for c in center])
    radii = tuple(float(r) for r in radii)
    if not radii or any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if any(a <= b for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly descending")
    if not len(center):
        # A zero-dimensional normal vector is always zero: it could never be redrawn.
        raise ValueError("the center needs at least one coordinate")
    rng = Generator(PCG64(int(seed)))
    shape = (samples_per_radius, len(center))
    points = [center[None]]
    for r in radii:
        state = rng.bit_generator.state
        g = rng.standard_normal(shape)
        norms = _norms(g)
        if not norms.all():
            rng.bit_generator.state = state
            g = np.array([_nonzero_normal(rng, shape[1]) for _ in range(shape[0])])
            norms = _norms(g)
        points.append(center + (r / norms)[:, None] * g)
    radius = np.repeat((0.0,) + radii, [1] + [shape[0]] * len(radii))
    return radius, np.concatenate(points)


@dataclass(frozen=True)
class CrcReport:
    """Outcome of a constant-rank check for one function family."""

    verdict: str                       # certified-by-sampling | refuted | inconclusive
    kappa: int
    rank_at_center: Optional[int]
    pivot_indices: tuple[int, ...]
    singular_values_at_center: tuple[float, ...]
    rank_counts_by_radius: tuple[dict, ...]   # {"radius": r, "rank_counts": {rank: points}}
    witness: Optional[dict] = None     # {"point": [...], "rank": int}
    skipped_points: int = 0
    total_points: int = 0
    center_unevaluable_rows: tuple[int, ...] = ()
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class SampleJacobian:
    """Values and gradient rows of one function family at every point of a
    sample plan: row 0 is the center, at radius 0, then the sample points,
    radii descending.

    ``values[p]`` and ``rows[p]`` are the (kappa,) values and the (kappa, n)
    gradient matrix at ``points[p]``, and ``failed[p, i]`` marks a function
    that could not be evaluated there (its value and row are zero).
    :meth:`select` restricts the family without evaluating anything again.
    The plan is drawn once: every consumer reads its points and radii here.
    """

    radius: np.ndarray                    # (1+P,)
    points: np.ndarray                    # (1+P, n)
    values: np.ndarray                    # (1+P, kappa)
    rows: np.ndarray                      # (1+P, kappa, n)
    failed: np.ndarray                    # (1+P, kappa) bool

    @property
    def kappa(self) -> int:
        return self.values.shape[1]

    @property
    def evaluable(self) -> np.ndarray:
        """(1+P,) mask of the points where every function of the family
        evaluated.  A sample point outside it is skipped, by the rank check
        and by every reader of the values alike."""
        return ~self.failed.any(axis=1)

    def select(self, cols: Sequence[int]) -> "SampleJacobian":
        """The subfamily of the 0-based rows ``cols``, in that order."""
        cols = list(cols)
        return dataclasses.replace(self, values=self.values[:, cols], rows=self.rows[:, cols],
                                   failed=self.failed[:, cols])


def sample_jacobian(
    functions: Sequence[Expression], center: Sequence[float], cfg: ToolConfig
) -> SampleJacobian:
    """Evaluate every function once at each point of the sample plan of
    ``cfg`` around ``center`` (:func:`sample_plan`), the center included, in
    one :func:`~cq_analyzer.model.evaluate_rows` call."""
    radius, points = sample_plan(center, cfg.radii, cfg.samples_per_radius, cfg.seed)
    values, rows, errors = evaluate_rows(functions, points)
    failed = np.zeros(values.shape, dtype=bool)
    for p, i in errors:
        failed[p, i] = True
    return SampleJacobian(radius, points, values, rows, failed)


def check_crc(jacobian: SampleJacobian, tol_rank: float) -> CrcReport:
    """Certify or refute constant rank of the gradient family near the center.

    ``jacobian`` holds the family's gradients, evaluated once per point by
    :func:`sample_jacobian` (or a :meth:`SampleJacobian.select` view of a
    larger family), so no gradient is evaluated here.  Certified-by-sampling
    means the numerical rank at no sampled point exceeds the rank at the
    center; pivots are selected at the center only.  Only a rise refutes:
    near the center the rank of a continuous gradient family cannot fall
    below its rank there (lower semicontinuity), so a point of lower rank
    only shows that the sampled ball is wider than the neighbourhood in
    question.  Such points are counted in ``notes`` and decide nothing.  A
    sample point outside :attr:`SampleJacobian.evaluable`, where a row of
    this family failed to evaluate, is skipped and counted; failures of rows
    outside the family do not count.  No sample points,
    more than 20% skipped points, or an unevaluable gradient at the center
    itself yields ``inconclusive`` (a refutation witness still dominates).
    """
    kappa = jacobian.kappa
    if kappa == 0:
        # Zero functions: rank 0 everywhere, the degenerate certified case.
        return CrcReport(
            verdict=CERTIFIED, kappa=0, rank_at_center=0, pivot_indices=(),
            singular_values_at_center=(), rank_counts_by_radius=(),
            notes=("empty function family",),
        )
    center_unevaluable = tuple(int(i) + 1 for i in np.flatnonzero(jacobian.failed[0]))
    notes: list[str] = []
    center = None
    if center_unevaluable:
        notes.append("gradient rows unevaluable at the center: "
                     + ", ".join(str(i) for i in center_unevaluable))
    else:
        center = numerical_rank(jacobian.rows[0], tol_rank)

    # The rank of each evaluable sample point, in plan order.
    radius = jacobian.radius.tolist()
    kept = (np.flatnonzero(jacobian.evaluable[1:]) + 1).tolist()
    ranks = [int(_ranks(jacobian.rows[p][None], tol_rank)[0][0]) for p in kept]
    by_radius: dict[float, list[int]] = {r: [] for r in radius[1:]}
    for p, k in zip(kept, ranks):
        by_radius[radius[p]].append(k)
    rises, drops = [], []
    if center is not None:
        rises = [(p, k) for p, k in zip(kept, ranks) if k > center.rank]
        drops = [p for p, k in zip(kept, ranks) if k < center.rank]
    if drops:
        notes.append(
            f"sample points of rank below the center rank: {len(drops)}, the largest "
            f"at radius {radius[drops[0]]:g}; a drop does not refute constant rank"
        )
    total = len(radius) - 1
    skipped = total - len(kept)

    if rises:
        verdict = REFUTED
    elif center is None:
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
        rank_at_center=center.rank if center else None,
        pivot_indices=center.pivot_indices if center else (),
        singular_values_at_center=center.singular_values if center else (),
        rank_counts_by_radius=tuple(
            {"radius": r, "rank_counts": {k: ks.count(k) for k in sorted(set(ks))}}
            for r, ks in by_radius.items()
        ),
        witness=({"point": jacobian.points[rises[0][0]].tolist(), "rank": rises[0][1]}
                 if rises else None),
        skipped_points=skipped,
        total_points=total,
        center_unevaluable_rows=center_unevaluable,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class RcrcqReport:
    """Per-subset constant-rank evidence for all J with I_0 <= J <= I_0 + I(x0)."""

    verdict: str
    subsets: tuple[tuple[tuple[int, ...], CrcReport], ...]
    active_indices: tuple[int, ...]
    equality_indices: tuple[int, ...]

    @property
    def subset_count(self) -> int:
        return len(self.subsets)


def check_rcrcq(
    sys: ConstraintSystem,
    active: Sequence[int],
    jacobian: SampleJacobian,
    tol_rank: float,
) -> RcrcqReport:
    """Run the constant-rank check for every J with I_0 <= J <= I_0 + I(x0).

    ``active`` is I(x0), and ``jacobian`` holds the rows of I_0 + I(x0) in
    index order, from :func:`sample_jacobian` or a
    :meth:`SampleJacobian.select` of a larger plan.  Every subset is ranked
    from row slices of it, so no gradient is evaluated here, and a point is
    skipped for J only when a row in J failed there.  The verdict aggregates
    per-subset verdicts with refuted dominating, then inconclusive, then
    certified.
    """
    active = tuple(sorted(active))
    if len(active) > MAX_ACTIVE:
        raise SubsetGuardError(
            f"|I(x0)| = {len(active)} active constraints, more than the "
            f"{MAX_ACTIVE} whose 2^|I(x0)| subsets RCRCQ checks; a lower "
            "tol_active (--tol-active) leaves out inequalities that are only "
            "nearly active"
        )
    eq = tuple(sys.equality_indices)
    if jacobian.kappa != len(eq + active):
        raise ValueError(
            f"the sample Jacobian has {jacobian.kappa} rows; expected "
            f"|I_0 + I(x0)| = {len(eq + active)}"
        )
    row = {index: k for k, index in enumerate(eq + active)}

    subsets = []
    verdicts = []
    for size in range(len(active) + 1):
        for extra in itertools.combinations(active, size):
            j = tuple(sorted(set(eq) | set(extra)))
            report = check_crc(jacobian.select([row[i] for i in j]), tol_rank)
            subsets.append((j, report))
            verdicts.append(report.verdict)

    if REFUTED in verdicts:
        verdict = REFUTED
    elif INCONCLUSIVE in verdicts:
        verdict = INCONCLUSIVE
    else:
        verdict = CERTIFIED
    return RcrcqReport(
        verdict=verdict,
        subsets=tuple(subsets),
        active_indices=active,
        equality_indices=eq,
    )
