"""Bundled example problems with golden verdicts and hand-computed ranks.

A case NAME is two files in the package's ``corpus`` directory: the problem
file ``NAME.json``, valid input for every command, and the golden file
``NAME.golden.json``.  The golden file holds the case's ``description``,
the ``analyses`` that make up its golden verdict, the ``expected`` outcomes
keyed as in ``_CHECKS``, the ``hand_ranks`` computed by hand that serve as
the oracle for the rank-analysis acceptance checks, and optionally a
``witness_relation`` over y1..yk, one y per constraint.  ``CORPUS`` maps
each name to its golden dict, read and checked once at import; ``run_case``
re-analyzes the problem file and compares.
"""

from __future__ import annotations

import importlib.resources
import json
from typing import Sequence

from . import __version__
from .analysis import _RUNNERS, run_analyses, section_verdict
from .expr import ExpressionError, parse
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


def _equals(key: str):
    def compare(expected, section: dict):
        actual = section.get(key)
        return str(expected), str(actual), expected == actual

    return compare


def _verdict(name: str):
    def compare(expected, section: dict):
        actual = section_verdict(name, section)
        return str(expected), actual, expected == actual

    return compare


def _witness_residual(bound: float, section: dict):
    residual = section.get("witness_residual")
    return (
        f"<= {bound:.1e}",
        "none" if residual is None else f"{residual:.3e}",
        residual is not None and residual <= bound,
    )


def _multipliers(expected: dict, section: dict):
    expected = {int(i): v for i, v in expected.items()}  # JSON keys are strings
    lam = section.get("multipliers") or {}
    ok = all(str(i) in lam and _approx(lam[str(i)], v) for i, v in expected.items())
    return str(expected), str(lam), ok


def _decay_slopes(slope_range: Sequence[float], section: dict):
    lo, hi = slope_range
    slopes = [
        p["trace"]["decay_slope"]
        for p in section.get("gamma_in_T_evidence", [])
        if p["trace"]["decay_slope"] is not None
    ]
    return (
        f"in [{lo}, {hi}]",
        str([round(s, 4) for s in slopes]),
        bool(slopes) and all(lo <= s <= hi for s in slopes),
    )


# (golden key, check label, section read, comparator), in check order.  A
# comparator maps (golden value, section) to (expected, actual, pass).
_CHECKS = (
    ("rcrcq", "rcrcq verdict", "rcrcq", _verdict("rcrcq")),
    ("abadie", "abadie verdict", "abadie", _verdict("abadie")),
    ("dependence", "dependence sense", "dependence", _verdict("dependence")),
    ("rank_k", "rank at center", "dependence", _equals("rank_k")),
    ("laszlo", "rank-deficient at point", "dependence", _equals("laszlo_at_point")),
    ("image_dimension", "image dimension", "dependence", _equals("image_dimension")),
    ("witness_residual_max", "witness residual", "dependence", _witness_residual),
    ("kkt", "kkt", "kkt", _verdict("kkt")),
    ("primal", "primal value", "kkt", _equals("primal_value")),
    ("multipliers", "multipliers", "kkt", _multipliers),
    ("minimal_norm_selected", "minimal-norm flag", "kkt", _equals("minimal_norm_selected")),
    ("slope_range", "corrector decay slope", "abadie", _decay_slopes),
)
_SECTION = {key: section for key, _, section, _ in _CHECKS}


def _fault(golden: dict, problem_file) -> str | None:
    """Why ``corpus run`` would skip a check of ``golden``, or crash on it,
    if it would: a missing key, a key that neither the golden format nor
    ``_CHECKS`` knows, an unknown analysis, a key that reads a section the
    case does not run, or a ``witness_relation`` that is not an expression
    over y1..yk, for the k constraints of ``problem_file``."""
    missing = _REQUIRED - set(golden)
    unknown = (set(golden) - _KNOWN) | (set(golden.get("expected", ())) - set(_SECTION))
    if missing or unknown:
        return f"missing keys {sorted(missing)}, unknown keys {sorted(unknown)}"
    analyses = golden["analyses"]
    reads = {key: _SECTION[key] for key in golden["expected"]}
    if "witness_relation" in golden:
        reads["witness_relation"] = "dependence"
    bad = [name for name in analyses if name not in _RUNNERS]
    unrun = sorted(key for key, section in reads.items() if section not in analyses)
    if bad or unrun:
        return f"unknown analyses {bad}, keys {unrun} read sections not in 'analyses'"
    if "witness_relation" in golden:
        problem = json.loads(problem_file.read_text(encoding="utf-8"))
        k = len(problem.get("equalities") or ()) + len(problem.get("inequalities") or ())
        try:
            parse(golden["witness_relation"], [f"y{i}" for i in range(1, k + 1)])
        except ExpressionError as err:
            return f"'witness_relation' over y1..y{k}: {err}"
    return None


def _load_corpus(directory) -> dict[str, dict]:
    """Each ``NAME.golden.json`` of ``directory`` as ``{NAME: golden dict}``,
    in name order.  A golden file with a fault (:func:`_fault`) raises
    naming the file."""
    corpus = {}
    for entry in sorted(directory.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(_GOLDEN):
            name = entry.name[: -len(_GOLDEN)]
            golden = json.loads(entry.read_text(encoding="utf-8"))
            fault = _fault(golden, directory / f"{name}.json")
            if fault:
                raise ValueError(f"corpus file {entry.name}: {fault}")
            corpus[name] = golden
    return corpus


CORPUS: dict[str, dict] = _load_corpus(_DIR)


def load_case(name: str) -> tuple[dict, ProblemFile]:
    if name not in CORPUS:
        raise KeyError(
            f"unknown corpus case '{name}'; known: {', '.join(sorted(CORPUS))}"
        )
    with importlib.resources.as_file(corpus_path(f"{name}.json")) as path:
        return CORPUS[name], load_problem_file(path)


def run_case(name: str, flags: dict | None = None) -> dict:
    """Re-analyze one bundled case and compare against its golden verdicts.
    ``flags`` are the command line's settings, applied after the case's own
    (:meth:`~cq_analyzer.problem.ProblemFile.config`)."""
    golden, pf = load_case(name)
    cfg = pf.config(flags)
    sections = run_analyses(pf.system, pf.x0, cfg, golden["analyses"],
                            golden.get("witness_relation"))

    checks = []
    for key, label, section, compare in _CHECKS:
        if key in golden["expected"]:
            expected, actual, ok = compare(golden["expected"][key], sections[section])
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


def run_all(flags: dict | None = None, names: Sequence[str] | None = None) -> dict:
    """Run the bundled cases ``names``, by default every case in name order;
    the report is byte-stable across identical runs."""
    cases = {name: run_case(name, flags) for name in names or sorted(CORPUS)}
    return {
        "report_version": REPORT_VERSION,
        "tool": {"name": "cq-analyzer", "version": __version__},
        "cases": cases,
        "all_pass": all(c["pass"] for c in cases.values()),
    }
