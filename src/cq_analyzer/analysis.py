"""Run the individual analyses over one system, capturing per-section errors.

Each section is rendered here, and only here, to a plain dict (the single
representation both report formats consume) by one rule: fields become
keys, dict keys become strings, and arrays, tuples and lists become lists.
The result classes carry the report's names and shapes and no serializer,
so a section is its result rendered, plus the few keys this module adds.
Numerical failures inside one analysis do not abort the others: the section
becomes ``{"error": ..., "error_kind": ...}`` and the exit-code mapping
treats it as inconclusive.

When a run has both an ``rcrcq`` and a ``kkt`` section, the ``kkt`` section
also carries the asserted-minimum check: a certified constant-rank
qualification at a local minimum implies that multipliers exist, so their
absence under ``assert_local_min`` is flagged as a contradiction.  Likewise,
when a run has both an ``rcrcq`` and an ``abadie`` section, the ``abadie``
section carries the theorem check: RCRCQ implies the Abadie condition, so a
certified RCRCQ next to a violated Abadie check is flagged as a
contradiction.

The ``rcrcq`` and ``dependence`` analyses read one sample plan and one
:class:`~cq_analyzer.rank.SampleJacobian`, built once per run, so each
(constraint, sample point) value and gradient is evaluated at most once.
The plan covers every constraint when ``dependence`` runs; for ``rcrcq``
alone it covers only the equalities and the active inequalities, the rows
RCRCQ ranks.  Each row set is ranked once per run: when every inequality is
active, the dependence family is one of RCRCQ's subsets, and the
``dependence`` section reads that subset's report.  The base point is
evaluated once per run, for every section that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional, Sequence

import numpy as np

from .config import ToolConfig
from .dependence import (
    CRC_FAILED, DEPENDENT, INDEPENDENT, ReconstructionError, classify_dependence,
    image_dimension_probe, witness_check,
)
from .expr import parse
from .kkt import CertificateVerificationError, MissingObjectiveError, kkt_report
from .model import ConstraintDomainError, ConstraintSystem, PointData, active_set, evaluate_point
from .rank import (
    CERTIFIED, INCONCLUSIVE, REFUTED, SampleJacobian, SubsetGuardError, check_rcrcq,
    sample_jacobian,
)
from .tangent import CONSISTENT, VIOLATED, InfeasibleBasePointError, abadie_verdict

__all__ = ["exit_code_for", "run_analyses", "section_verdict", "summary_line"]

ERROR = "error"
MULTIPLIERS_EXIST = "multipliers-exist"
DUAL_INFEASIBLE = "dual-infeasible"

# The exit code of each word section_verdict can return: 0 certified or
# consistent, 1 refuted or violated, 2 inconclusive.  rank and tangent share
# the word "inconclusive".
_VERDICT_CODES = {
    CERTIFIED: 0, REFUTED: 1, INCONCLUSIVE: 2,
    CONSISTENT: 0, VIOLATED: 1,
    INDEPENDENT: 0, DEPENDENT: 0, CRC_FAILED: 2,
    MULTIPLIERS_EXIST: 0, DUAL_INFEASIBLE: 1,
    ERROR: 2,
}

_SCALARS = frozenset({float, int, bool, str, type(None)})
_FIELDS: dict = {}                         # dataclass -> its field names

_CAPTURED = (
    ConstraintDomainError,
    ReconstructionError,
    SubsetGuardError,
    InfeasibleBasePointError,
    MissingObjectiveError,
    CertificateVerificationError,
)


@dataclass
class _Run:
    """What the sections of one run share: the sample Jacobian when
    ``dependence`` runs, RCRCQ's subset reports once ``rcrcq`` has run, and
    the base-point evaluation, made on first use."""

    sys: ConstraintSystem
    x0: np.ndarray
    cfg: ToolConfig
    jacobian: Optional[SampleJacobian]
    witness_relation: Optional[str]
    subsets: dict = field(default_factory=dict)    # J -> CrcReport
    _point: object = field(default=None, init=False)  # PointData or its domain error

    def point(self) -> PointData:
        """The evaluation of the system at x0; its domain error is raised to
        every section that reads it."""
        if self._point is None:
            try:
                self._point = evaluate_point(self.sys, self.x0)
            except ConstraintDomainError as err:
                self._point = err
        if isinstance(self._point, ConstraintDomainError):
            raise self._point
        return self._point


def _render(value):
    """``value`` as plain data: a dataclass as the dict of its fields, a dict
    with ``str`` keys, an array, tuple or list as a list, else ``value``."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is tuple or kind is list:
        # Most tuples hold scalars only: copying them whole costs a third as much.
        for v in value:
            if type(v) not in _SCALARS:
                return [_render(v) for v in value]
        return list(value)
    if kind is np.ndarray:
        return value.tolist()
    if is_dataclass(value):
        names = _FIELDS.get(kind)
        if names is None:
            names = _FIELDS[kind] = tuple(f.name for f in fields(value))
        return {name: _render(getattr(value, name)) for name in names}
    if kind is dict:
        return {str(k): _render(v) for k, v in value.items()}
    return value


def _run_rcrcq(run: _Run) -> dict:
    sys, cfg, jacobian = run.sys, run.cfg, run.jacobian
    active = active_set(run.point(), cfg.tol_active)
    rows = sys.equality_indices + active
    if jacobian is None:
        # No other analysis reads the plan: sample only the rows RCRCQ ranks.
        jacobian = sample_jacobian([sys.constraint(i) for i in rows], run.x0, cfg)
    else:
        jacobian = jacobian.select([i - 1 for i in rows])
    report = check_rcrcq(sys, active, jacobian, cfg.tol_rank)
    run.subsets = dict(report.subsets)
    section = _render(report)
    section["subset_count"] = report.subset_count
    section["subsets"] = [{"subset": j, **crc} for j, crc in section["subsets"]]
    return section


def _run_abadie(run: _Run) -> dict:
    return _render(abadie_verdict(run.sys, run.x0, run.cfg, run.point()))


def _run_dependence(run: _Run) -> dict:
    sys, cfg, jacobian = run.sys, run.cfg, run.jacobian
    if not sys.all_constraints:
        return {"error": "the system has no constraint functions", "error_kind": "empty"}
    # With every inequality active, RCRCQ has ranked this family already.
    crc = run.subsets.get(tuple(range(1, sys.n_constraints + 1)))
    verdict = classify_dependence(jacobian, cfg.tol_rank, cfg.fit_degree, crc)
    section = _render(verdict)
    section["image_dimension"] = image_dimension_probe(jacobian, cfg.tol_rank)
    if run.witness_relation is not None:
        names = [f"y{i}" for i in range(1, jacobian.kappa + 1)]
        section["witness_relation"] = run.witness_relation
        section["witness_residual"] = witness_check(parse(run.witness_relation, names), jacobian)
    return section


def _run_kkt(run: _Run) -> dict:
    # A missing objective is reported before the base point is read.
    point = run.point() if run.sys.objective is not None else None
    return _render(kkt_report(run.sys, run.x0, run.cfg, point))


_RUNNERS = {
    "rcrcq": _run_rcrcq,
    "abadie": _run_abadie,
    "dependence": _run_dependence,
    "kkt": _run_kkt,
}


def run_analyses(
    sys: ConstraintSystem,
    x0: Sequence[float],
    cfg: ToolConfig,
    which: Sequence[str],
    witness_relation: Optional[str] = None,
) -> dict:
    """The report sections of the analyses ``which``.  A ``witness_relation``
    F(y1, ..., y_kappa) over the constraint values is reported in the
    ``dependence`` section with its largest residual over the sample plan."""
    x0 = np.asarray(x0, dtype=float)
    jacobian = None
    if "dependence" in which:
        jacobian = sample_jacobian(list(sys.all_constraints), x0, cfg)
    run = _Run(sys, x0, cfg, jacobian, witness_relation)
    sections: dict = {}
    for name in which:
        if name not in _RUNNERS:
            raise ValueError(f"unknown analysis '{name}'")
        try:
            sections[name] = _RUNNERS[name](run)
        except _CAPTURED as err:
            sections[name] = {"error": str(err), "error_kind": type(err).__name__}
    rcrcq, abadie, kkt = sections.get("rcrcq"), sections.get("abadie"), sections.get("kkt")
    if rcrcq and "error" not in rcrcq:
        if abadie and "error" not in abadie:
            _check_theorem(abadie, rcrcq["verdict"])
        if kkt and "error" not in kkt:
            _check_asserted_minimum(kkt, rcrcq["verdict"], cfg.assert_local_min)
    return sections


def _check_theorem(abadie: dict, rcrcq_verdict: str) -> None:
    """Add ``contradiction`` to an abadie section, and a note when it is true.

    Under RCRCQ the Abadie condition holds, so a certified RCRCQ next to a
    violated Abadie check indicts the sampling or the tolerances.
    """
    contradiction = rcrcq_verdict == CERTIFIED and abadie["verdict"] == VIOLATED
    abadie["contradiction"] = contradiction
    if contradiction:
        abadie["notes"] = [
            "constant rank certified, yet a cone direction is not tangent: "
            "RCRCQ implies the Abadie condition, so the sampling or the "
            "tolerances must be wrong"
        ]


def _check_asserted_minimum(kkt: dict, rcrcq_verdict: str, assert_local_min: bool) -> None:
    """Add ``contradiction`` and ``notes`` to a kkt section.

    The local-minimum property itself is never verified: a contradiction
    indicts the assertion, the sampling, or the tolerances.
    """
    no_multipliers = not kkt["dual_feasible"]
    contradiction = assert_local_min and rcrcq_verdict == CERTIFIED and no_multipliers
    notes = []
    if contradiction:
        notes.append(
            "constant rank certified and the point is asserted to be a "
            "local minimum, yet no multipliers exist: the assertion, the "
            "sampling, or the tolerances must be wrong"
        )
    if no_multipliers and rcrcq_verdict == REFUTED:
        notes.append(
            "no multipliers and the constant-rank qualification is refuted: "
            "multiplier existence is not implied for this point"
        )
    kkt["contradiction"] = contradiction
    kkt["notes"] = notes


def section_verdict(name: str, section: dict) -> str:
    """The word that the summary line and the text header show for section
    ``name``: ``error`` for an error section, the dual-feasibility word for
    ``kkt``, the sense for ``dependence``, and the verdict otherwise."""
    if "error" in section:
        return ERROR
    if name == "kkt":
        return MULTIPLIERS_EXIST if section["dual_feasible"] else DUAL_INFEASIBLE
    if name == "dependence":
        return section["sense"]
    return section["verdict"]


def exit_code_for(sections: dict) -> int:
    """1 if any section is refuted or violated, else 2 if any is
    inconclusive, else 0."""
    codes = {_VERDICT_CODES[section_verdict(name, s)] for name, s in sections.items()}
    return 1 if 1 in codes else 2 if 2 in codes else 0


def summary_line(sections: dict) -> str:
    return " ".join(f"{name}={section_verdict(name, s)}" for name, s in sections.items())
