"""Shared analysis configuration with the documented defaults.

Every tolerance and schedule that influences a verdict lives here so that
reports can snapshot the exact configuration they ran under.  The
:class:`ToolConfig` fields are the settings a problem file or a flag can
change; the module constants below are fixed, and the snapshot lists them
too.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = [
    "CORRECTOR_MAX_ITER", "CORRECTOR_TOL", "DEFAULT_RADII", "DEFAULT_T_SCHEDULE",
    "DIRECTION_COUNT", "FIT_TOLERANCE_REL", "T_SCHEDULE_TAIL", "ToolConfig",
]

DEFAULT_RADII = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
DEFAULT_T_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
# The tangent probe judges convergence and safety on this many smallest t.
T_SCHEDULE_TAIL = 3
DIRECTION_COUNT = 16  # face directions probed for gamma in T
CORRECTOR_TOL = 1e-12  # corrector stops at ||h_J||_inf <= CORRECTOR_TOL * (1 + scale)
CORRECTOR_MAX_ITER = 50
FIT_TOLERANCE_REL = 1e-6  # dependence fit bound, relative to the value scale

_FIXED = {
    "direction_count": DIRECTION_COUNT, "corrector_tol": CORRECTOR_TOL,
    "corrector_max_iter": CORRECTOR_MAX_ITER, "fit_tolerance_rel": FIT_TOLERANCE_REL,
}


@dataclass(frozen=True)
class ToolConfig:
    tol_rank: float = 1e-8
    tol_active: float = 1e-8
    tol_feas: float = 1e-8
    tol_cone: float = 1e-8
    seed: int = 42
    radii: tuple[float, ...] = DEFAULT_RADII
    samples_per_radius: int = 32
    t_schedule: tuple[float, ...] = DEFAULT_T_SCHEDULE
    ratio_tol: float = 1e-3
    fit_degree: int = 3
    assert_local_min: bool = False

    def to_dict(self) -> dict:
        """The settings and the fixed constants, as the report snapshots them."""
        out = {**asdict(self), **_FIXED}
        out["radii"], out["t_schedule"] = list(self.radii), list(self.t_schedule)
        return out
