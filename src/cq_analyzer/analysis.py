"""Run the individual analyses over one system, capturing per-section errors.

Each section is rendered to a plain dict (the single representation both
report formats consume).  Numerical failures inside one analysis do not
abort the others: the section becomes ``{"error": ..., "error_kind": ...}``
and the exit-code mapping treats it as inconclusive.

When a run has both an ``rcrcq`` and a ``kkt`` section, the ``kkt`` section
also carries the asserted-minimum check: a certified constant-rank
qualification at a local minimum implies that multipliers exist, so their
absence under ``assert_local_min`` is flagged as a contradiction.

The ``rcrcq`` and ``dependence`` analyses read one sample plan and one
:class:`~cq_analyzer.rank.SampleJacobian` over every constraint, built once
per run, so each (constraint, sample point) value and gradient is evaluated
once.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .config import ToolConfig
from .dependence import ReconstructionError, classify_dependence, image_dimension_probe
from .kkt import CertificateVerificationError, MissingObjectiveError, kkt_report
from .model import ConstraintDomainError, ConstraintSystem, active_set, evaluate_point
from .rank import (
    CERTIFIED, REFUTED, SampleJacobian, SubsetGuardError, check_rcrcq, sample_jacobian,
)
from .tangent import InfeasibleBasePointError, abadie_verdict

__all__ = ["ALL_ANALYSES", "exit_code_for", "run_analyses", "summary_line"]

ALL_ANALYSES = ("rcrcq", "abadie", "dependence", "kkt")

_CAPTURED = (
    ConstraintDomainError,
    ReconstructionError,
    SubsetGuardError,
    InfeasibleBasePointError,
    MissingObjectiveError,
    CertificateVerificationError,
)


def _run_rcrcq(sys: ConstraintSystem, x0: np.ndarray, cfg: ToolConfig,
               jacobian: SampleJacobian) -> dict:
    aset = active_set(evaluate_point(sys, x0), cfg.tol_active)
    return check_rcrcq(sys, aset, jacobian, cfg.tol_rank).to_dict()


def _run_abadie(sys: ConstraintSystem, x0: np.ndarray, cfg: ToolConfig, _jacobian) -> dict:
    return abadie_verdict(sys, x0, cfg).to_dict()


def _run_dependence(sys: ConstraintSystem, x0: np.ndarray, cfg: ToolConfig,
                    jacobian: SampleJacobian) -> dict:
    if not sys.all_constraints:
        return {"error": "the system has no constraint functions", "error_kind": "empty"}
    verdict = classify_dependence(jacobian, cfg.tol_rank, cfg.fit_degree, cfg.fit_tolerance_rel)
    section = verdict.to_dict()
    section["image_dimension"] = image_dimension_probe(jacobian, cfg.tol_rank)
    return section


def _run_kkt(sys: ConstraintSystem, x0: np.ndarray, cfg: ToolConfig, _jacobian) -> dict:
    return kkt_report(sys, x0, cfg).to_dict()


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
) -> dict:
    x0 = np.asarray(x0, dtype=float)
    jacobian = None
    if {"rcrcq", "dependence"} & set(which):
        jacobian = sample_jacobian(list(sys.all_constraints), cfg.sampler(x0))
    sections: dict = {}
    for name in which:
        if name not in _RUNNERS:
            raise ValueError(f"unknown analysis '{name}'")
        try:
            sections[name] = _RUNNERS[name](sys, x0, cfg, jacobian)
        except _CAPTURED as err:
            sections[name] = {"error": str(err), "error_kind": type(err).__name__}
    rcrcq, kkt = sections.get("rcrcq"), sections.get("kkt")
    if rcrcq and kkt and "error" not in rcrcq and "error" not in kkt:
        _check_asserted_minimum(kkt, rcrcq["verdict"], cfg.assert_local_min)
    return sections


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


def _section_code(name: str, section: Optional[dict]) -> int:
    if section is None:
        return 0
    if "error" in section:
        return 2
    if name == "rcrcq":
        return {"certified-by-sampling": 0, "refuted": 1, "inconclusive": 2}[
            section["verdict"]
        ]
    if name == "abadie":
        return {"consistent": 0, "violated": 1, "inconclusive": 2}[section["verdict"]]
    if name == "dependence":
        return {
            "independent": 0,
            "dependent-with-relation": 0,
            "crc-failed-inconclusive": 2,
        }[section["sense"]]
    if name == "kkt":
        return 0 if section["dual_feasible"] else 1
    return 0


def exit_code_for(sections: dict) -> int:
    """0 = certified/consistent, 1 = refuted/violated, 2 = inconclusive."""
    codes = [_section_code(name, section) for name, section in sections.items()]
    if 1 in codes:
        return 1
    if 2 in codes:
        return 2
    return 0


def summary_line(sections: dict) -> str:
    parts = []
    for name, section in sections.items():
        if section is None:
            continue
        if "error" in section:
            parts.append(f"{name}=error")
        elif name == "kkt":
            parts.append(
                f"kkt={'multipliers-exist' if section['dual_feasible'] else 'dual-infeasible'}"
            )
        elif name == "dependence":
            parts.append(f"dependence={section['sense']}")
        else:
            parts.append(f"{name}={section['verdict']}")
    return " ".join(parts)
