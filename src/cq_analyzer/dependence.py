"""Functional dependence and independence of a function family at a point.

Classification runs the constant-rank check first.  With certified constant
rank k over kappa functions, k = kappa means the family is functionally
independent at the point; k < kappa means each non-pivot function is (locally)
a C1 function of the pivot values, and that map is reconstructed as a local
least-squares polynomial with held-out validation.  A refuted or inconclusive
rank check leaves the classification inconclusive, but the rank-at-a-point
test and the image-dimension probe are still reported.

The rank-at-a-point test (gradient rank < kappa) and the witness check
(max |F(f_1(x), ..., f_kappa(x))| over samples for an explicitly supplied F)
implement the alternative dependence notions that are decidable numerically.
Existential definitions quantifying over all C1 relations F are out of
scope: only user-supplied witnesses are ever verified.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .expr import DomainEvaluationError, Expression
from .rank import (
    CERTIFIED,
    CrcReport,
    NeighborhoodSampler,
    check_crc,
    numerical_rank,
    sample_jacobian,
)

__all__ = [
    "DependenceVerdict",
    "FitConfig",
    "FittedMap",
    "ReconstructionError",
    "classify_dependence",
    "image_dimension_probe",
    "laszlo_test",
    "reconstruct_dependent",
    "witness_check",
]

INDEPENDENT = "independent"
DEPENDENT = "dependent-with-relation"
CRC_FAILED = "crc-failed-inconclusive"


class ReconstructionError(ValueError):
    """The polynomial surrogate failed its held-out residual bound.

    Signals either a too-small fit degree or a misjudged constant rank; the
    achieved residual is attached.
    """

    def __init__(self, target_index: int, residual: float, bound: float):
        super().__init__(
            f"reconstruction failed for function {target_index}: held-out "
            f"residual {residual:.3e} exceeds bound {bound:.3e}"
        )
        self.target_index = target_index
        self.residual = residual
        self.bound = bound


@dataclass(frozen=True)
class FitConfig:
    degree: int = 3
    tolerance_rel: float = 1e-6   # bound is tolerance_rel * value scale
    ridge: float = 1e-12

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "tolerance_rel": self.tolerance_rel,
            "ridge": self.ridge,
        }


@dataclass(frozen=True)
class FittedMap:
    """Local polynomial map from pivot values to one dependent function value."""

    target_index: int
    input_indices: tuple[int, ...]
    exponents: tuple[tuple[int, ...], ...]   # monomial exponent tuples
    coefficients: tuple[float, ...]
    center: tuple[float, ...]                # pivot values at the base point
    base_value: float                        # f_target at the base point
    training_radius: float
    cross_validated_residual: float

    def predict(self, pivot_values: Sequence[float]) -> float:
        z = np.asarray(pivot_values, dtype=float) - np.asarray(self.center)
        total = self.base_value
        for e, coef in zip(self.exponents, self.coefficients):
            term = coef
            for zj, ej in zip(z, e):
                term *= zj**ej
            total += term
        return float(total)

    def to_dict(self) -> dict:
        return {
            "target_index": self.target_index,
            "input_indices": list(self.input_indices),
            "exponents": [list(e) for e in self.exponents],
            "coefficients": list(self.coefficients),
            "center": list(self.center),
            "base_value": self.base_value,
            "training_radius": self.training_radius,
            "cross_validated_residual": self.cross_validated_residual,
        }


@dataclass(frozen=True)
class DependenceVerdict:
    sense: str                               # independent | dependent-with-relation | crc-failed-inconclusive
    rank_k: Optional[int]
    kappa: int
    pivot_indices: tuple[int, ...]
    laszlo_at_point: bool
    crc: CrcReport
    reconstructions: tuple[FittedMap, ...] = ()
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "sense": self.sense,
            "rank_k": self.rank_k,
            "kappa": self.kappa,
            "pivot_indices": list(self.pivot_indices),
            "laszlo_at_point": self.laszlo_at_point,
            "crc": self.crc.to_dict(),
            "reconstructions": [m.to_dict() for m in self.reconstructions],
            "notes": list(self.notes),
        }


def laszlo_test(
    functions: Sequence[Expression], x: Sequence[float], tol_rank: float
) -> bool:
    """True iff the gradient rank at ``x`` is below the function count.

    Never raises: a gradient row that cannot be evaluated at ``x`` is treated
    as absent, which can only lower the computed rank.  (With fewer than
    kappa evaluable rows the answer is necessarily True; for families whose
    unevaluable rows genuinely vanish at the point, such as curves with
    oscillating coordinates at the origin, this reproduces the exact rank.)
    """
    kappa = len(functions)
    if kappa == 0:
        return False
    rows = []
    for f in functions:
        try:
            rows.append(f.gradient(x))
        except DomainEvaluationError:
            continue
    if len(rows) < kappa:
        return True
    return numerical_rank(np.array(rows), tol_rank).rank < kappa


def image_dimension_probe(
    functions: Sequence[Expression],
    x0: Sequence[float],
    sampler: NeighborhoodSampler,
    tol_rank: float = 1e-8,
) -> int:
    """Heuristic dimension of the local image of f near x0.

    Principal-component count of {f(x) - f(x0)} over the smallest-radius
    samples; when f(x0) itself is unevaluable the samples are centered on
    their mean instead.  An estimate of kappa is evidence for independence
    (interior image); always returns.
    """
    if not functions:
        return 0
    by_radius = sampler.points_by_radius()
    _, layer = by_radius[-1]  # smallest radius
    values = []
    for p in layer:
        try:
            values.append([f.evaluate(p) for f in functions])
        except DomainEvaluationError:
            continue
    if not values:
        return 0
    y = np.array(values)
    try:
        center = np.array([f.evaluate(np.asarray(x0, dtype=float)) for f in functions])
    except DomainEvaluationError:
        center = y.mean(axis=0)
    return numerical_rank(y - center, tol_rank).rank


def witness_check(
    relation: Expression,
    functions: Sequence[Expression],
    sampler: NeighborhoodSampler,
) -> float:
    """Max over samples of |F(f_1(x), ..., f_kappa(x))| for a supplied F.

    Verifies an explicit dependence witness; domain errors propagate.
    """
    if relation.dimension != len(functions):
        raise ValueError(
            f"relation has {relation.dimension} inputs but {len(functions)} "
            "functions were supplied"
        )
    worst = 0.0
    for p in sampler.points():
        y = [f.evaluate(p) for f in functions]
        worst = max(worst, abs(relation.evaluate(y)))
    return worst


def _poly_exponents(k: int, degree: int) -> list[tuple[int, ...]]:
    """Monomial exponent tuples over k inputs with 1 <= total degree <= degree."""
    out = []
    for total in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(k), total):
            e = [0] * k
            for j in combo:
                e[j] += 1
            out.append(tuple(e))
    return out


def _design_matrix(z: np.ndarray, exponents: Sequence[tuple[int, ...]]) -> np.ndarray:
    cols = [np.prod(z**np.array(e), axis=1) for e in exponents]
    return np.column_stack(cols) if cols else np.zeros((len(z), 0))


def reconstruct_dependent(
    functions: Sequence[Expression],
    x0: Sequence[float],
    pivot_indices: Sequence[int],
    target_index: int,
    sampler: NeighborhoodSampler,
    fit_config: FitConfig = FitConfig(),
) -> FittedMap:
    """Fit f_target as a polynomial in the pivot function values near x0.

    Training uses the even-indexed sampler points, validation the odd-indexed
    ones; the recorded residual is the max held-out error.  Exceeding
    ``tolerance_rel`` times the value scale raises
    :class:`ReconstructionError`.
    """
    if target_index in pivot_indices:
        raise ValueError("target function is itself a pivot")
    x0 = np.asarray(x0, dtype=float)
    pivots = [functions[i - 1] for i in pivot_indices]
    target = functions[target_index - 1]
    points = sampler.points()
    y = np.array([[f.evaluate(p) for f in pivots] for p in points])
    w = np.array([target.evaluate(p) for p in points])
    center = np.array([f.evaluate(x0) for f in pivots])
    base_value = float(target.evaluate(x0))

    train = slice(0, None, 2)
    test = slice(1, None, 2)
    exponents = _poly_exponents(len(pivots), fit_config.degree)
    a = _design_matrix(y[train] - center, exponents)
    rhs = w[train] - base_value
    # Column equilibration keeps the ridge penalty scale-free.
    col_norms = np.linalg.norm(a, axis=0)
    col_norms[col_norms == 0.0] = 1.0
    a_scaled = a / col_norms
    k_cols = a.shape[1]
    augmented = np.vstack([a_scaled, np.sqrt(fit_config.ridge) * np.eye(k_cols)])
    rhs_aug = np.concatenate([rhs, np.zeros(k_cols)])
    coef_scaled, *_ = np.linalg.lstsq(augmented, rhs_aug, rcond=None)
    coefficients = coef_scaled / col_norms

    fitted = FittedMap(
        target_index=target_index,
        input_indices=tuple(pivot_indices),
        exponents=tuple(exponents),
        coefficients=tuple(float(cf) for cf in coefficients),
        center=tuple(float(v) for v in center),
        base_value=base_value,
        training_radius=max(sampler.radii),
        cross_validated_residual=0.0,
    )
    held_out = [abs(fitted.predict(yy) - ww) for yy, ww in zip(y[test], w[test])]
    residual = float(max(held_out, default=0.0))
    scale = max(1.0, float(np.max(np.abs(w[train]), initial=0.0)))
    bound = fit_config.tolerance_rel * scale
    if residual > bound:
        raise ReconstructionError(target_index, residual, bound)
    return FittedMap(
        target_index=fitted.target_index,
        input_indices=fitted.input_indices,
        exponents=fitted.exponents,
        coefficients=fitted.coefficients,
        center=fitted.center,
        base_value=fitted.base_value,
        training_radius=fitted.training_radius,
        cross_validated_residual=residual,
    )


def classify_dependence(
    functions: Sequence[Expression],
    x0: Sequence[float],
    sampler: NeighborhoodSampler,
    tol_rank: float,
    fit_config: FitConfig = FitConfig(),
) -> DependenceVerdict:
    """Classify the family as independent / dependent-with-relation / inconclusive.

    Requires a certified constant-rank check for either definite sense; with
    k < kappa every non-pivot function must reconstruct within tolerance.
    Reconstruction failures propagate as :class:`ReconstructionError`.
    """
    if not functions:
        raise ValueError("functions must be nonempty")
    crc = check_crc(sample_jacobian(functions, x0, sampler.points_by_radius()), tol_rank)
    laszlo = laszlo_test(functions, x0, tol_rank)
    kappa = len(functions)
    if crc.verdict != CERTIFIED:
        return DependenceVerdict(
            sense=CRC_FAILED,
            rank_k=crc.rank_at_center,
            kappa=kappa,
            pivot_indices=crc.pivot_indices,
            laszlo_at_point=laszlo,
            crc=crc,
            notes=(f"constant-rank check: {crc.verdict}",),
        )
    k = crc.rank_at_center
    if k == kappa:
        return DependenceVerdict(
            sense=INDEPENDENT,
            rank_k=k,
            kappa=kappa,
            pivot_indices=crc.pivot_indices,
            laszlo_at_point=laszlo,
            crc=crc,
        )
    reconstructions = []
    for l in range(1, kappa + 1):
        if l in crc.pivot_indices:
            continue
        reconstructions.append(
            reconstruct_dependent(
                functions, x0, crc.pivot_indices, l, sampler, fit_config
            )
        )
    return DependenceVerdict(
        sense=DEPENDENT,
        rank_k=k,
        kappa=kappa,
        pivot_indices=crc.pivot_indices,
        laszlo_at_point=laszlo,
        crc=crc,
        reconstructions=tuple(reconstructions),
    )
