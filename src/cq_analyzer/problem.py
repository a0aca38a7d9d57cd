"""Problem files: a small JSON schema serializing one constraint system.

Keys: name, variables, objective (optional), equalities, inequalities,
point, options (tolerance/sampler overrides), assert_local_min.  Expression
strings use the expression-language grammar.  Option keys are restricted to
the documented set in :data:`OPTIONS`, which also checks each value; the
command-line flags are made from and resolve through the same table, so
that typos and bad values cannot silently change an analysis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .config import T_SCHEDULE_TAIL, ToolConfig
from .expr import ExpressionError
from .model import ConstraintSystem

__all__ = [
    "OPTIONS",
    "ProblemFile",
    "ProblemFileError",
    "load_problem_file",
    "parse_problem_dict",
    "parse_schedule",
    "resolve_options",
]

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


# A radius or t schedule may hold at most this many values: each radius is a
# layer of sample points, each t a round of corrections.
MAX_SCHEDULE_LENGTH = 100


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


def _finite_float(value) -> float:
    if _finite(value) is None:
        raise ProblemFileError(f"must be a finite number, got {value!r}")
    return float(value)


def _unit_interval(value) -> float:
    # tol_rank is a relative singular-value cutoff, and so is tol_cone in
    # kkt's rank test and in the face walk's kernel bases.
    number = _finite_float(value)
    if not 0.0 < number < 1.0:
        raise ProblemFileError(f"must lie in (0, 1), got {value!r}")
    return number


def _positive(value) -> float:
    number = _finite_float(value)
    if number <= 0.0:
        raise ProblemFileError(f"must be a positive number, got {value!r}")
    return number


def _integer(least: int, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        kind = "a positive" if least else "a non-negative"
        raise ProblemFileError(f"must be {kind} integer, got {value!r}")
    return value


# Option key -> (ToolConfig field, check returning the value to set, and the
# flag --key's (type, help), or None for a key without a flag).
OPTIONS: dict[str, tuple[str, Callable, Optional[tuple[type, str]]]] = {
    "tol_rank": ("tol_rank", _unit_interval, (float, "relative SVD rank cutoff (default 1e-8)")),
    "tol_active": ("tol_active", _positive, (float, "activity tolerance (default 1e-8)")),
    "tol_feas": ("tol_feas", _positive, (float, "feasibility tolerance (default 1e-8)")),
    "tol_cone": ("tol_cone", _unit_interval, (float, "cone membership tolerance (default 1e-8)")),
    "seed": ("seed", partial(_integer, 0),
             (int, "sampler seed (default 42; env CQ_ANALYZER_SEED)")),
    "radii": ("radii", lambda value: parse_schedule(value),
              (str, "radius schedule start:end:xFACTOR (default 1e-1:1e-5:x10)")),
    "samples": ("samples_per_radius", partial(_integer, 1),
                (int, "samples per radius (default 32)")),
    "t_schedule": ("t_schedule", lambda value: parse_schedule(value, T_SCHEDULE_TAIL),
                   (str, "corrector t schedule (default 1e-1:1e-5:x10)")),
    "ratio_tol": ("ratio_tol", _positive, (float, "pass bound on final ||r||/t (default 1e-3)")),
    "fit_degree": ("fit_degree", partial(_integer, 1), None),
}


def resolve_options(options: dict, label: Callable[[str], str]) -> dict:
    """The :class:`ToolConfig` updates for ``options``, each value checked.

    A bad value raises :class:`ProblemFileError` naming it by ``label(key)``.
    """
    updates = {}
    for key, value in options.items():
        field, check, _ = OPTIONS[key]
        try:
            updates[field] = check(value)
        except ProblemFileError as err:
            raise ProblemFileError(f"{label(key)}: {err}") from err
    return updates


@dataclass(frozen=True)
class ProblemFile:
    system: ConstraintSystem
    point: tuple[float, ...]
    # ToolConfig updates from the file's options and assert_local_min.
    settings: dict

    @property
    def x0(self) -> np.ndarray:
        return np.asarray(self.point, dtype=float)

    def config(self, flags: Optional[dict] = None) -> ToolConfig:
        """The settings in force, in the one order every command applies:
        the defaults, then this file's settings, then ``flags``, the
        :class:`ToolConfig` updates of the command-line flags and
        ``CQ_ANALYZER_SEED``."""
        return ToolConfig(**{**self.settings, **(flags or {})})


def parse_schedule(spec, min_length: int = 1) -> tuple[float, ...]:
    """Strictly descending schedule of ``min_length`` to
    :data:`MAX_SCHEDULE_LENGTH` entries from a geometric "start:end:xFACTOR"
    or a list."""
    if isinstance(spec, (list, tuple)):
        if len(spec) > MAX_SCHEDULE_LENGTH:
            raise ProblemFileError(
                f"bad schedule: {len(spec)} values, at most {MAX_SCHEDULE_LENGTH} allowed"
            )
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
            if len(values) == MAX_SCHEDULE_LENGTH - 1:
                raise ProblemFileError(
                    f"bad schedule {spec!r}: more than {MAX_SCHEDULE_LENGTH} values"
                )
            values.append(v)
            v /= factor
        values.append(end)
        values = tuple(values)
    if not values or values[-1] <= 0 or any(a <= b for a, b in zip(values, values[1:])):
        raise ProblemFileError(f"bad schedule {spec!r}: must be positive and strictly descending")
    if len(values) < min_length:
        raise ProblemFileError(f"bad schedule {spec!r}: needs at least {min_length} values")
    return values


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def parse_problem_dict(data: dict, origin: str = "<memory>") -> ProblemFile:
    if not isinstance(data, dict):
        raise ProblemFileError(f"{origin}: top level must be an object")
    unknown = sorted(set(data) - set(_TOP_LEVEL_KEYS))
    if unknown:
        raise ProblemFileError(f"{origin}: unknown keys {unknown}")
    for key in ("name", "variables", "point"):
        if key not in data:
            raise ProblemFileError(f"{origin}: missing required key '{key}'")
    if not isinstance(data["name"], str):
        raise ProblemFileError(f"{origin}: 'name' must be a string")
    variables = data["variables"]
    if not _is_strings(variables) or len(set(variables)) < len(variables):
        raise ProblemFileError(f"{origin}: 'variables' must be a list of distinct names")
    if not variables:
        raise ProblemFileError(f"{origin}: 'variables' must name at least one variable")
    objective = data.get("objective")
    if objective is not None and not isinstance(objective, str):
        raise ProblemFileError(f"{origin}: 'objective' must be a string or null")
    for key in ("equalities", "inequalities"):
        if data.get(key) is not None and not _is_strings(data[key]):
            raise ProblemFileError(f"{origin}: '{key}' must be a list of strings")
    point = data["point"]
    if not isinstance(point, list) or len(point) != len(variables):
        raise ProblemFileError(
            f"{origin}: 'point' must be a list of {len(variables)} numbers"
        )
    if any(_finite(v) is None for v in point):
        raise ProblemFileError(
            f"{origin}: 'point' entries must be finite numbers, got {point!r}"
        )
    assert_local_min = data.get("assert_local_min", False)
    if not isinstance(assert_local_min, bool):
        raise ProblemFileError(f"{origin}: 'assert_local_min' must be true or false")
    options = {} if data.get("options") is None else data["options"]
    if not isinstance(options, dict):
        raise ProblemFileError(f"{origin}: 'options' must be an object")
    bad = sorted(set(options) - set(OPTIONS))
    if bad:
        raise ProblemFileError(
            f"{origin}: unknown option keys {bad}; allowed: {list(OPTIONS)}"
        )
    settings = resolve_options(options, lambda key: f"{origin}: option '{key}'")
    settings["assert_local_min"] = assert_local_min
    name = data["name"]
    try:
        system = ConstraintSystem.from_strings(
            name, variables, objective, data.get("equalities") or (),
            data.get("inequalities") or (),
        )
    except ExpressionError as err:
        raise ProblemFileError(f"problem '{name}': {err}") from err
    return ProblemFile(system, tuple(float(v) for v in point), settings)


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
