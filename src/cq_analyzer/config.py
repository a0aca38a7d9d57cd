"""Shared analysis configuration with the documented defaults.

Every tolerance and schedule that influences a verdict lives here so that
reports can snapshot the exact configuration they ran under.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rank import DEFAULT_RADII, NeighborhoodSampler

__all__ = ["DEFAULT_T_SCHEDULE", "T_SCHEDULE_TAIL", "ToolConfig"]

DEFAULT_T_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
# The tangent probe judges convergence and safety on this many smallest t.
T_SCHEDULE_TAIL = 3


@dataclass(frozen=True)
class ToolConfig:
    tol_rank: float = 1e-8
    tol_active: float = 1e-8
    tol_feas: float = 1e-8
    tol_cone: float = 1e-8
    tol_critical: float = 1e-8
    seed: int = 42
    radii: tuple[float, ...] = DEFAULT_RADII
    samples_per_radius: int = 32
    t_schedule: tuple[float, ...] = DEFAULT_T_SCHEDULE
    ratio_tol: float = 1e-3
    direction_count: int = 16
    estimate_probes: int = 32
    angular_tol: float = 1e-2
    corrector_tol: float = 1e-12
    corrector_max_iter: int = 50
    fit_degree: int = 3
    fit_tolerance_rel: float = 1e-6
    assert_local_min: bool = False

    def sampler(self, center) -> NeighborhoodSampler:
        return NeighborhoodSampler(
            center=tuple(float(c) for c in center),
            radii=self.radii,
            samples_per_radius=self.samples_per_radius,
            seed=self.seed,
        )

    def to_dict(self) -> dict:
        return {
            "tol_rank": self.tol_rank,
            "tol_active": self.tol_active,
            "tol_feas": self.tol_feas,
            "tol_cone": self.tol_cone,
            "tol_critical": self.tol_critical,
            "seed": int(self.seed),
            "radii": list(self.radii),
            "samples_per_radius": self.samples_per_radius,
            "t_schedule": list(self.t_schedule),
            "ratio_tol": self.ratio_tol,
            "direction_count": self.direction_count,
            "estimate_probes": self.estimate_probes,
            "angular_tol": self.angular_tol,
            "corrector_tol": self.corrector_tol,
            "corrector_max_iter": self.corrector_max_iter,
            "fit_degree": self.fit_degree,
            "fit_tolerance_rel": self.fit_tolerance_rel,
            "assert_local_min": self.assert_local_min,
        }
