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

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import FIT_TOLERANCE_REL
from .expr import Expression
from .rank import CERTIFIED, CrcReport, SampleJacobian, _ranks, check_crc

__all__ = [
    "DependenceVerdict",
    "FittedMap",
    "ReconstructionError",
    "classify_dependence",
    "image_dimension_probe",
    "reconstruct_dependent",
    "witness_check",
]

INDEPENDENT = "independent"
DEPENDENT = "dependent-with-relation"
CRC_FAILED = "crc-failed-inconclusive"

# Ridge weight on the equilibrated polynomial fit: selects the minimal-norm
# coefficients when monomial columns are dependent.
_RIDGE = 1e-12


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


def _power(base: float, exponent: int) -> float:
    """``base ** exponent``, with an overflow giving the signed infinity a
    numpy float64 scalar gives instead of raising :class:`OverflowError`."""
    try:
        return base**exponent
    except OverflowError:
        return math.copysign(math.inf, base) if exponent % 2 else math.inf


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
        """The map at ``pivot_values``, in Python floats with the IEEE
        operations numpy scalars would do: libm ``pow``, whose overflow is
        a signed infinity here as there, then products and sums in order."""
        z = (np.asarray(pivot_values, dtype=float) - np.asarray(self.center)).tolist()
        total = self.base_value
        for e, coef in zip(self.exponents, self.coefficients):
            term = coef
            for zj, ej in zip(z, e):
                term *= _power(zj, ej)
            total += term
        return total

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


def image_dimension_probe(jacobian: SampleJacobian, tol_rank: float = 1e-8) -> int:
    """Heuristic dimension of the local image of f near the center x0.

    Principal-component count of {f(x) - f(x0)} over the smallest-radius
    samples of ``jacobian``'s plan, read from its values; when f(x0) itself
    is unevaluable the samples are centered on their mean instead.  An
    estimate of kappa is evidence for independence (interior image); always
    returns.
    """
    y = jacobian.values[jacobian.evaluable & (jacobian.radius == jacobian.radius[-1])]
    if not len(y):
        return 0
    center = jacobian.values[0] if jacobian.evaluable[0] else y.mean(axis=0)
    return int(_ranks((y - center)[None], tol_rank)[0][0])


def witness_check(relation: Expression, jacobian: SampleJacobian) -> float:
    """Max over samples of |F(f_1(x), ..., f_kappa(x))| for a supplied F.

    Verifies an explicit dependence witness at the sample points of
    ``jacobian``'s plan, reading the function values from it: nothing but F
    is evaluated here.  A point where a function of the family failed to
    evaluate is skipped, as the rank check skips it; domain errors of F
    propagate.
    """
    if relation.dimension != jacobian.kappa:
        raise ValueError(
            f"relation has {relation.dimension} inputs but {jacobian.kappa} "
            "functions were supplied"
        )
    worst = 0.0
    for y in jacobian.values[1:][jacobian.evaluable[1:]].tolist():
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
    jacobian: SampleJacobian,
    pivot_indices: Sequence[int],
    target_index: int,
    degree: int = 3,
) -> FittedMap:
    """Fit f_target as a polynomial of total degree <= ``degree`` in the pivot
    function values near the center x0 of ``jacobian``'s sample plan.

    The values are read from ``jacobian``; a sample point where any function
    of the family failed to evaluate is skipped, as the rank check skips it.
    Training uses the even-indexed remaining points, validation the
    odd-indexed ones; the recorded residual is the max held-out error.
    Exceeding ``FIT_TOLERANCE_REL`` times the value scale raises
    :class:`ReconstructionError`.
    """
    if target_index in pivot_indices:
        raise ValueError("target function is itself a pivot")
    if not jacobian.evaluable[0]:
        raise ValueError("the family is unevaluable at the center")
    cols = [i - 1 for i in pivot_indices]
    values = jacobian.values[1:][jacobian.evaluable[1:]]
    y, w = values[:, cols], values[:, target_index - 1]
    center = jacobian.values[0, cols]
    base_value = float(jacobian.values[0, target_index - 1])

    train = slice(0, None, 2)
    test = slice(1, None, 2)
    exponents = _poly_exponents(len(cols), degree)
    a = _design_matrix(y[train] - center, exponents)
    rhs = w[train] - base_value
    # Column equilibration keeps the ridge penalty scale-free.
    col_norms = np.linalg.norm(a, axis=0)
    col_norms[col_norms == 0.0] = 1.0
    a_scaled = a / col_norms
    k_cols = a.shape[1]
    augmented = np.vstack([a_scaled, np.sqrt(_RIDGE) * np.eye(k_cols)])
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
        training_radius=float(jacobian.radius.max()),
        cross_validated_residual=0.0,
    )
    held_out = [abs(fitted.predict(yy) - ww) for yy, ww in zip(y[test], w[test])]
    residual = float(max(held_out, default=0.0))
    scale = max(1.0, float(np.max(np.abs(w[train]), initial=0.0)))
    bound = FIT_TOLERANCE_REL * scale
    if residual > bound:
        raise ReconstructionError(target_index, residual, bound)
    return dataclasses.replace(fitted, cross_validated_residual=residual)


def classify_dependence(
    jacobian: SampleJacobian,
    tol_rank: float,
    fit_degree: int = 3,
    crc: Optional[CrcReport] = None,
) -> DependenceVerdict:
    """Classify the family as independent / dependent-with-relation / inconclusive.

    ``jacobian`` holds the values and gradients of the family from
    :func:`~cq_analyzer.rank.sample_jacobian`; nothing is evaluated here.
    ``crc`` is the family's constant-rank report when the caller has already
    ranked these rows of this Jacobian, as RCRCQ does for I_0 + I(x0) when
    every inequality is active; without it the family is ranked here.
    Requires a certified constant-rank check for either definite sense; with
    k < kappa every non-pivot function must reconstruct within tolerance.
    Reconstruction failures propagate as :class:`ReconstructionError`.  The
    point test ``laszlo_at_point`` holds when the gradient rank at the center
    is below kappa; a row unevaluable there counts as absent, so it holds as
    well.
    """
    if not jacobian.kappa:
        raise ValueError("the function family must be nonempty")
    if crc is None:
        crc = check_crc(jacobian, tol_rank)
    kappa, k, pivots = jacobian.kappa, crc.rank_at_center, crc.pivot_indices
    reconstructions, notes = (), ()
    if crc.verdict != CERTIFIED:
        sense, notes = CRC_FAILED, (f"constant-rank check: {crc.verdict}",)
    elif k == kappa:
        sense = INDEPENDENT
    else:
        sense = DEPENDENT
        reconstructions = tuple(
            reconstruct_dependent(jacobian, pivots, l, fit_degree)
            for l in range(1, kappa + 1) if l not in pivots
        )
    return DependenceVerdict(
        sense=sense,
        rank_k=k,
        kappa=kappa,
        pivot_indices=pivots,
        laszlo_at_point=k is None or k < kappa,
        crc=crc,
        reconstructions=reconstructions,
        notes=notes,
    )
