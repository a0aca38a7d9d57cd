"""Numerical toolkit for constraint qualifications, tangent cones, and multipliers.

Analyzes a finite system of smooth equality/inequality constraints at a base
point: certifies or refutes constant-rank constraint qualifications by
seeded neighborhood sampling, probes the tangent cone against the linearized
cone for an Abadie verdict with numerical evidence, classifies functional
dependence of the constraint family, and computes Lagrange multipliers
together with the linearized primal/dual pair.
"""

__version__ = "0.1.0"

from .analysis import run_analyses
from .config import ToolConfig
from .cones import (
    LinearizedCone,
    build_linearized_cone,
    cone_member,
    dual_cone_member,
    kernel_basis,
    sample_cone_directions,
)
from .dependence import (
    DependenceVerdict,
    classify_dependence,
    image_dimension_probe,
    laszlo_test,
    reconstruct_dependent,
    witness_check,
)
from .expr import Expression, finite_diff_gradient, parse
from .kkt import (
    KktReport,
    kkt_report,
    stationarity_residual,
)
from .model import (
    ConstraintSystem,
    PointData,
    active_set,
    critical_active_set,
    evaluate_point,
    feasibility_check,
)
from .problem import ProblemFile, load_problem_file
from .rank import (
    NeighborhoodSampler,
    check_crc,
    check_rcrcq,
    numerical_rank,
)
from .tangent import (
    AbadieReport,
    abadie_verdict,
    ljusternik_correct,
    probe_tangent,
    tangent_direction_estimate,
)

__all__ = [
    "AbadieReport",
    "ConstraintSystem",
    "DependenceVerdict",
    "Expression",
    "KktReport",
    "LinearizedCone",
    "NeighborhoodSampler",
    "PointData",
    "ProblemFile",
    "ToolConfig",
    "__version__",
    "abadie_verdict",
    "active_set",
    "build_linearized_cone",
    "check_crc",
    "check_rcrcq",
    "classify_dependence",
    "cone_member",
    "critical_active_set",
    "dual_cone_member",
    "evaluate_point",
    "feasibility_check",
    "finite_diff_gradient",
    "image_dimension_probe",
    "kernel_basis",
    "kkt_report",
    "laszlo_test",
    "ljusternik_correct",
    "load_problem_file",
    "numerical_rank",
    "parse",
    "probe_tangent",
    "reconstruct_dependent",
    "run_analyses",
    "sample_cone_directions",
    "stationarity_residual",
    "tangent_direction_estimate",
    "witness_check",
]
