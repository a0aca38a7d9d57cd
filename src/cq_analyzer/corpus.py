"""Bundled example problems with golden verdicts and hand-computed ranks.

Each case records which analyses constitute its golden verdict and the
expected outcomes; ``run_case`` re-analyzes the bundled file and compares.
The ``hand_ranks`` strings document the exact ranks computed by hand that
serve as the oracle for the rank-analysis acceptance checks.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from typing import Optional, Sequence

from . import __version__
from .analysis import run_analyses, section_verdict
from .config import ToolConfig
from .problem import ProblemFile, load_problem_file
from .report import REPORT_VERSION

__all__ = ["CORPUS", "CorpusCase", "corpus_path", "load_case", "run_case", "run_all"]


@dataclass(frozen=True)
class CorpusCase:
    name: str
    filename: str
    description: str
    analyses: tuple[str, ...]
    expected: dict
    hand_ranks: str
    witness_relation: Optional[str] = None  # over y1..yk, composed with the equalities


CORPUS: dict[str, CorpusCase] = {
    case.name: case
    for case in (
        CorpusCase(
            name="coordinate-projections",
            filename="coordinate-projections.json",
            description="f = (x1, x2) on the plane: independent coordinates at 0",
            analyses=("rcrcq", "abadie", "dependence"),
            expected={
                "rcrcq": "certified-by-sampling",
                "abadie": "consistent",
                "dependence": "independent",
                "rank_k": 2,
                "laszlo": False,
            },
            hand_ranks="rows (1,0) and (0,1): rank 2 at every point (constant)",
        ),
        CorpusCase(
            name="axis-squares",
            filename="axis-squares.json",
            description="f = (x1^2, x2^2) at the origin: constant rank fails",
            analyses=("rcrcq", "abadie", "dependence"),
            expected={
                "rcrcq": "refuted",
                "abadie": "violated",
                "dependence": "crc-failed-inconclusive",
                "rank_k": 0,
                "laszlo": True,
            },
            hand_ranks=(
                "rows (2x1,0) and (0,2x2): rank 0 at the origin, rank 2 at "
                "generic nearby points"
            ),
        ),
        CorpusCase(
            name="cusp-powers",
            filename="cusp-powers.json",
            description="f = (t^3, t^2) at 0 with the explicit relation y1^2 = y2^3",
            analyses=("rcrcq", "abadie", "dependence"),
            expected={
                "rcrcq": "refuted",
                "abadie": "violated",
                "dependence": "crc-failed-inconclusive",
                "rank_k": 0,
                "laszlo": True,
                "witness_residual_max": 1e-14,
            },
            hand_ranks="rows (3t^2) and (2t): rank 0 at t=0, rank 1 for t != 0",
            # Orientation matters: y1^2 - y2^3 composed with (t^3, t^2) is
            # t^6 - t^6 = 0 identically, whereas y1^3 - y2^2 composed in the
            # same order gives t^9 - t^4, which is not identically zero.
            witness_relation="y1^2 - y2^3",
        ),
        CorpusCase(
            name="tornado-curve",
            filename="tornado-curve.json",
            description=(
                "spiral curve (x^3 sin(1/x), x^3 cos(1/x), x^3): rank-deficient "
                "at 0 with a one-dimensional image"
            ),
            analyses=("dependence",),
            expected={
                "dependence": "crc-failed-inconclusive",
                "laszlo": True,
                "image_dimension": 1,
            },
            hand_ranks=(
                "all three derivatives vanish at 0 (rank 0); three functions "
                "of one variable have gradient rank <= 1 < 3 everywhere"
            ),
        ),
        CorpusCase(
            name="x-squared-leq-zero",
            filename="x-squared-leq-zero.json",
            description="{x : x^2 <= 0} = {0}: linearized cone R, tangent cone {0}",
            analyses=("rcrcq", "abadie"),
            expected={"rcrcq": "refuted", "abadie": "violated"},
            hand_ranks=(
                "row (2x): rank 0 at 0 and rank 1 for x != 0; subset J={} has "
                "constant rank 0, subset J={1} has non-constant rank"
            ),
        ),
        CorpusCase(
            name="parallel-equalities",
            filename="parallel-equalities.json",
            description="x1 + x2 = 0 duplicated: constant rank 1, Abadie holds",
            analyses=("rcrcq", "abadie", "kkt"),
            expected={
                "rcrcq": "certified-by-sampling",
                "abadie": "consistent",
                "kkt": "multipliers-exist",
                "multipliers": {1: 0.0, 2: 0.0},
                "minimal_norm_selected": True,
            },
            hand_ranks="rows (1,1) and (2,2): rank 1 at every point (constant)",
        ),
        CorpusCase(
            name="circle-point",
            filename="circle-point.json",
            description="unit circle at (1,0): full-rank equality, slope-2 corrector",
            analyses=("rcrcq", "abadie", "kkt"),
            expected={
                "rcrcq": "certified-by-sampling",
                "abadie": "consistent",
                "kkt": "multipliers-exist",
                "multipliers": {1: 0.5},
                "minimal_norm_selected": False,
                "slope_range": (1.8, 2.2),
            },
            hand_ranks="row (2x1, 2x2): rank 1 everywhere near (1,0)",
        ),
        CorpusCase(
            name="duplicate-bounds",
            filename="duplicate-bounds.json",
            description="min x1 over {-x1 <= 0, -2x1 <= 0}: multiplier polytope",
            analyses=("rcrcq", "abadie", "kkt"),
            expected={
                "rcrcq": "certified-by-sampling",
                "abadie": "consistent",
                "kkt": "multipliers-exist",
                "multipliers": {1: 0.2, 2: 0.4},
                "minimal_norm_selected": True,
            },
            hand_ranks=(
                "rows (-1) and (-2): rank 1 everywhere; every subset of the "
                "two active constraints has constant rank (0 or 1)"
            ),
        ),
        CorpusCase(
            name="sign-obstructed",
            filename="sign-obstructed.json",
            description="min x1 over {x1 <= 0}: dual infeasible at the origin",
            analyses=("rcrcq", "abadie", "kkt"),
            expected={
                "rcrcq": "certified-by-sampling",
                "abadie": "consistent",
                "kkt": "dual-infeasible",
                "primal": "unbounded-below",
            },
            hand_ranks="row (1): rank 1 everywhere (constant)",
        ),
    )
}


def corpus_path(filename: str):
    return importlib.resources.files("cq_analyzer") / "corpus" / filename


def load_case(name: str) -> tuple[CorpusCase, ProblemFile]:
    if name not in CORPUS:
        raise KeyError(
            f"unknown corpus case '{name}'; known: {', '.join(sorted(CORPUS))}"
        )
    case = CORPUS[name]
    with importlib.resources.as_file(corpus_path(case.filename)) as path:
        return case, load_problem_file(path)


def _approx(a: float, b: float, tol: float = 1e-8) -> bool:
    return abs(a - b) <= tol


def _equals(section: str, key: str):
    def compare(expected, sections: dict):
        actual = sections[section].get(key)
        return str(expected), str(actual), expected == actual

    return compare


def _verdict(section: str):
    def compare(expected, sections: dict):
        actual = section_verdict(section, sections[section])
        return str(expected), actual, expected == actual

    return compare


def _witness_residual(bound: float, sections: dict):
    residual = sections["dependence"].get("witness_residual")
    return (
        f"<= {bound:.1e}",
        "none" if residual is None else f"{residual:.3e}",
        residual is not None and residual <= bound,
    )


def _multipliers(expected: dict, sections: dict):
    lam = sections["kkt"].get("multipliers") or {}
    ok = all(str(i) in lam and _approx(lam[str(i)], v) for i, v in expected.items())
    return str(expected), str(lam), ok


def _decay_slopes(slope_range: tuple[float, float], sections: dict):
    lo, hi = slope_range
    slopes = [
        p["trace"]["decay_slope"]
        for p in sections["abadie"].get("gamma_in_T_evidence", [])
        if p["trace"]["decay_slope"] is not None
    ]
    return (
        f"in [{lo}, {hi}]",
        str([round(s, 4) for s in slopes]),
        bool(slopes) and all(lo <= s <= hi for s in slopes),
    )


# (golden key, check label, comparator); checks are listed in this order.
# A comparator maps (golden value, sections) to (expected, actual, pass).
_CHECKS = (
    ("rcrcq", "rcrcq verdict", _verdict("rcrcq")),
    ("abadie", "abadie verdict", _verdict("abadie")),
    ("dependence", "dependence sense", _verdict("dependence")),
    ("rank_k", "rank at center", _equals("dependence", "rank_k")),
    ("laszlo", "rank-deficient at point", _equals("dependence", "laszlo_at_point")),
    ("image_dimension", "image dimension", _equals("dependence", "image_dimension")),
    ("witness_residual_max", "witness residual", _witness_residual),
    ("kkt", "kkt", _verdict("kkt")),
    ("primal", "primal value", _equals("kkt", "primal_value")),
    ("multipliers", "multipliers", _multipliers),
    ("minimal_norm_selected", "minimal-norm flag", _equals("kkt", "minimal_norm_selected")),
    ("slope_range", "corrector decay slope", _decay_slopes),
)


def run_case(name: str, base_cfg: ToolConfig | None = None) -> dict:
    """Re-analyze one bundled case and compare against its golden verdicts."""
    case, pf = load_case(name)
    cfg = pf.config(base_cfg or ToolConfig())
    sections = run_analyses(pf.system, pf.x0, cfg, case.analyses, case.witness_relation)

    checks = []
    for key, label, compare in _CHECKS:
        if key in case.expected:
            expected, actual, ok = compare(case.expected[key], sections)
            checks.append(
                {"label": label, "expected": expected, "actual": actual, "pass": ok}
            )

    return {
        "problem": {"name": case.name, "file": case.filename},
        "description": case.description,
        "hand_ranks": case.hand_ranks,
        "config": cfg.to_dict(),
        "analyses": sections,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def run_all(base_cfg: ToolConfig | None = None, names: Sequence[str] | None = None) -> dict:
    """Run the bundled cases ``names``, by default every case in name order;
    the report is byte-stable across identical runs."""
    cases = {name: run_case(name, base_cfg) for name in names or sorted(CORPUS)}
    return {
        "report_version": REPORT_VERSION,
        "tool": {"name": "cq-analyzer", "version": __version__},
        "cases": cases,
        "all_pass": all(c["pass"] for c in cases.values()),
    }
