"""Problem files: a small JSON schema serializing one constraint system.

Keys: name, variables, objective (optional), equalities, inequalities,
point, options (tolerance/sampler overrides), assert_local_min.  Expression
strings use the expression-language grammar.  Option keys are restricted to
the documented set below; anything else is rejected so that typos cannot
silently change an analysis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ToolConfig
from .expr import ExpressionError
from .model import ConstraintSystem

__all__ = [
    "FLOAT_OPTIONS",
    "OPTION_KEYS",
    "ProblemFile",
    "ProblemFileError",
    "check_float_option",
    "load_problem_file",
    "parse_problem_dict",
    "parse_schedule",
    "serialize_problem",
]

OPTION_KEYS = (
    "tol_rank",
    "tol_active",
    "tol_feas",
    "tol_cone",
    "seed",
    "radii",
    "samples",
    "t_schedule",
    "ratio_tol",
    "fit_degree",
)

FLOAT_OPTIONS = ("tol_rank", "tol_active", "tol_feas", "tol_cone", "ratio_tol")

# Integer options and their least admissible value.
_INT_OPTIONS = {"seed": 0, "samples": 1, "fit_degree": 1}

_TOP_LEVEL_KEYS = (
    "name",
    "variables",
    "objective",
    "equalities",
    "inequalities",
    "point",
    "options",
    "assert_local_min",
)


class ProblemFileError(ValueError):
    """A malformed problem file, with location diagnostics where available."""


def _finite(value) -> Optional[float]:
    """``value`` as a float if it is a finite number (not a bool), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def check_float_option(key: str, value) -> None:
    """Reject a value of the float option ``key`` that no analysis can use.

    Every float option must be a finite number; ``tol_rank`` is a relative
    singular-value cutoff and must lie in (0, 1).
    """
    if _finite(value) is None:
        raise ProblemFileError(f"option '{key}' must be a finite number, got {value!r}")
    if key == "tol_rank" and not 0.0 < value < 1.0:
        raise ProblemFileError(f"option 'tol_rank' must lie in (0, 1), got {value!r}")


@dataclass(frozen=True)
class ProblemFile:
    name: str
    variables: tuple[str, ...]
    objective: Optional[str]
    equalities: tuple[str, ...]
    inequalities: tuple[str, ...]
    point: tuple[float, ...]
    options: dict = field(default_factory=dict)
    assert_local_min: bool = False

    def to_system(self) -> ConstraintSystem:
        try:
            return ConstraintSystem.from_strings(
                self.name,
                self.variables,
                self.objective,
                self.equalities,
                self.inequalities,
            )
        except ExpressionError as err:
            raise ProblemFileError(f"problem '{self.name}': {err}") from err

    @property
    def x0(self) -> np.ndarray:
        return np.asarray(self.point, dtype=float)

    def config(self, base: ToolConfig) -> ToolConfig:
        """Apply this file's option overrides on top of ``base``."""
        cfg = base
        opts = self.options
        updates: dict = {}
        for key in FLOAT_OPTIONS:
            if key in opts:
                updates[key] = float(opts[key])
        if "seed" in opts:
            updates["seed"] = int(opts["seed"])
        if "samples" in opts:
            updates["samples_per_radius"] = int(opts["samples"])
        if "fit_degree" in opts:
            updates["fit_degree"] = int(opts["fit_degree"])
        if "radii" in opts:
            updates["radii"] = parse_schedule(opts["radii"])
        if "t_schedule" in opts:
            updates["t_schedule"] = parse_schedule(opts["t_schedule"])
        if self.assert_local_min:
            updates["assert_local_min"] = True
        return cfg.with_options(**updates) if updates else cfg


def parse_schedule(spec) -> tuple[float, ...]:
    """Descending geometric schedule from "start:end:xFACTOR" or a list."""
    if isinstance(spec, (list, tuple)):
        values = tuple(_finite(v) for v in spec)
        if None in values:
            raise ProblemFileError(
                f"bad schedule {spec!r}: entries must be finite numbers"
            )
    else:
        parts = str(spec).split(":")
        if len(parts) != 3 or not parts[2].lower().startswith("x"):
            raise ProblemFileError(
                f"bad schedule {spec!r}: expected start:end:xFACTOR or a list"
            )
        try:
            start, end = float(parts[0]), float(parts[1])
            factor = float(parts[2][1:])
        except ValueError as err:
            raise ProblemFileError(f"bad schedule {spec!r}: {err}") from err
        if not all(math.isfinite(v) for v in (start, end, factor)):
            raise ProblemFileError(f"bad schedule {spec!r}: values must be finite")
        if start <= 0 or end <= 0 or start < end or factor <= 1.0:
            raise ProblemFileError(
                f"bad schedule {spec!r}: need start >= end > 0 and factor > 1"
            )
        values = []
        v = start
        while v > end * (1.0 + 1e-9):
            values.append(v)
            v /= factor
        values.append(end)
        values = tuple(values)
    if not values or any(v <= 0 for v in values) or list(values) != sorted(
        values, reverse=True
    ):
        raise ProblemFileError(f"bad schedule {spec!r}: must be positive descending")
    return values


def parse_problem_dict(data: dict, origin: str = "<memory>") -> ProblemFile:
    if not isinstance(data, dict):
        raise ProblemFileError(f"{origin}: top level must be an object")
    unknown = sorted(set(data) - set(_TOP_LEVEL_KEYS))
    if unknown:
        raise ProblemFileError(f"{origin}: unknown keys {unknown}")
    for key in ("name", "variables", "point"):
        if key not in data:
            raise ProblemFileError(f"{origin}: missing required key '{key}'")
    variables = data["variables"]
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise ProblemFileError(f"{origin}: 'variables' must be a list of names")
    point = data["point"]
    if not isinstance(point, list) or len(point) != len(variables):
        raise ProblemFileError(
            f"{origin}: 'point' must be a list of {len(variables)} numbers"
        )
    if any(_finite(v) is None for v in point):
        raise ProblemFileError(
            f"{origin}: 'point' entries must be finite numbers, got {point!r}"
        )
    options = data.get("options") or {}
    if not isinstance(options, dict):
        raise ProblemFileError(f"{origin}: 'options' must be an object")
    bad = sorted(set(options) - set(OPTION_KEYS))
    if bad:
        raise ProblemFileError(
            f"{origin}: unknown option keys {bad}; allowed: {list(OPTION_KEYS)}"
        )
    for key, least in _INT_OPTIONS.items():
        value = options.get(key, least)
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            kind = "a positive" if least else "a non-negative"
            raise ProblemFileError(
                f"{origin}: option '{key}' must be {kind} integer, got {value!r}"
            )
    try:
        for key in FLOAT_OPTIONS:
            if key in options:
                check_float_option(key, options[key])
        for key in ("radii", "t_schedule"):
            if key in options:
                parse_schedule(options[key])
    except ProblemFileError as err:
        raise ProblemFileError(f"{origin}: {err}") from err
    pf = ProblemFile(
        name=str(data["name"]),
        variables=tuple(variables),
        objective=data.get("objective"),
        equalities=tuple(data.get("equalities") or ()),
        inequalities=tuple(data.get("inequalities") or ()),
        point=tuple(float(v) for v in point),
        options=dict(options),
        assert_local_min=bool(data.get("assert_local_min", False)),
    )
    pf.to_system()  # validate all expressions now, with a good error message
    return pf


def load_problem_file(path) -> ProblemFile:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ProblemFileError(f"{path}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ProblemFileError(
            f"{path}: line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    return parse_problem_dict(data, origin=str(path))


def serialize_problem(pf: ProblemFile) -> dict:
    """Round-trippable dict form (parse_problem_dict inverts it)."""
    out: dict = {
        "name": pf.name,
        "variables": list(pf.variables),
        "point": list(pf.point),
    }
    if pf.objective is not None:
        out["objective"] = pf.objective
    if pf.equalities:
        out["equalities"] = list(pf.equalities)
    if pf.inequalities:
        out["inequalities"] = list(pf.inequalities)
    if pf.options:
        out["options"] = dict(pf.options)
    if pf.assert_local_min:
        out["assert_local_min"] = True
    return out
