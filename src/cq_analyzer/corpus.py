"""Bundled example problems with golden verdicts and hand-computed ranks.

A case NAME is two files in the package's ``corpus`` directory: the problem
file ``NAME.json``, valid input for every command, and the golden file
``NAME.golden.json``.  The golden file holds the case's ``description``,
the ``analyses`` that make up its golden verdict, the ``expected`` outcomes
keyed as in ``_CHECKS``, the ``hand_ranks`` computed by hand that serve as
the oracle for the rank-analysis acceptance checks, and optionally a
``witness_relation`` over y1..yk, composed with the equalities.  ``CORPUS``
maps each name to its golden dict, read once at import; ``run_case``
re-analyzes the problem file and compares.
"""

from __future__ import annotations

import importlib.resources
import json
from typing import Sequence

from . import __version__
from .analysis import run_analyses, section_verdict
from .config import ToolConfig
from .problem import ProblemFile, load_problem_file
from .report import REPORT_VERSION

__all__ = ["CORPUS", "corpus_path", "load_case", "run_case", "run_all"]

_DIR = importlib.resources.files("cq_analyzer") / "corpus"
_GOLDEN = ".golden.json"
_REQUIRED = {"description", "analyses", "expected", "hand_ranks"}
_KNOWN = _REQUIRED | {"witness_relation"}


def corpus_path(filename: str):
    return _DIR / filename


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
    expected = {int(i): v for i, v in expected.items()}  # JSON keys are strings
    lam = sections["kkt"].get("multipliers") or {}
    ok = all(str(i) in lam and _approx(lam[str(i)], v) for i, v in expected.items())
    return str(expected), str(lam), ok


def _decay_slopes(slope_range: Sequence[float], sections: dict):
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


def _load_corpus(directory) -> dict[str, dict]:
    """Each ``NAME.golden.json`` of ``directory`` as ``{NAME: golden dict}``,
    in name order.  A missing key, or a key that neither the golden format
    nor ``_CHECKS`` knows, raises naming the file: a misspelled check would
    otherwise be skipped."""
    corpus = {}
    for entry in sorted(directory.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(_GOLDEN):
            golden = json.loads(entry.read_text(encoding="utf-8"))
            missing = _REQUIRED - set(golden)
            unknown = (set(golden) - _KNOWN) | (
                set(golden.get("expected", ())) - {key for key, _, _ in _CHECKS})
            if missing or unknown:
                raise ValueError(f"corpus file {entry.name}: missing keys "
                                 f"{sorted(missing)}, unknown keys {sorted(unknown)}")
            corpus[entry.name[: -len(_GOLDEN)]] = golden
    return corpus


CORPUS: dict[str, dict] = _load_corpus(_DIR)


def load_case(name: str) -> tuple[dict, ProblemFile]:
    if name not in CORPUS:
        raise KeyError(
            f"unknown corpus case '{name}'; known: {', '.join(sorted(CORPUS))}"
        )
    with importlib.resources.as_file(corpus_path(f"{name}.json")) as path:
        return CORPUS[name], load_problem_file(path)


def run_case(name: str, base_cfg: ToolConfig | None = None) -> dict:
    """Re-analyze one bundled case and compare against its golden verdicts."""
    golden, pf = load_case(name)
    cfg = pf.config(base_cfg or ToolConfig())
    sections = run_analyses(pf.system, pf.x0, cfg, golden["analyses"],
                            golden.get("witness_relation"))

    checks = []
    for key, label, compare in _CHECKS:
        if key in golden["expected"]:
            expected, actual, ok = compare(golden["expected"][key], sections)
            checks.append(
                {"label": label, "expected": expected, "actual": actual, "pass": ok}
            )

    return {
        "problem": {"name": name, "file": f"{name}.json"},
        "description": golden["description"],
        "hand_ranks": golden["hand_ranks"],
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
