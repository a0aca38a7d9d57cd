"""Numerical toolkit for constraint qualifications, tangent cones, and multipliers.

Analyzes a finite system of smooth equality/inequality constraints at a base
point: certifies or refutes constant-rank constraint qualifications by
seeded neighborhood sampling, probes the tangent cone against the linearized
cone for an Abadie verdict with numerical evidence, classifies functional
dependence of the constraint family, and computes Lagrange multipliers
together with the linearized primal/dual pair.

The package exports what README's library use needs, plus ``run_analyses``;
everything else is imported from its module (``cq_analyzer.rank``, ...).
"""

__version__ = "0.1.0"

from .analysis import run_analyses
from .config import ToolConfig
from .kkt import kkt_report
from .model import ConstraintSystem
from .tangent import abadie_verdict

__all__ = [
    "ConstraintSystem",
    "ToolConfig",
    "__version__",
    "abadie_verdict",
    "kkt_report",
    "run_analyses",
]
