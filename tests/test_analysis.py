import importlib
import pkgutil
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import cq_analyzer
from cq_analyzer import analysis, model, rank
from cq_analyzer.analysis import run_analyses
from cq_analyzer.config import ToolConfig
from cq_analyzer.corpus import CORPUS, load_case
from cq_analyzer.expr import Expression
from cq_analyzer.model import ConstraintSystem
from cq_analyzer.problem import parse_problem_dict
from cq_analyzer.report import render_text

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

FULL = ["rcrcq", "abadie", "dependence", "kkt"]


def count_calls(monkeypatch, original):
    """Wrap ``original`` under every name the package binds it to, so a call
    from any analysis is counted; returns the list of argument tuples."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    modules = [cq_analyzer] + [
        importlib.import_module(f"cq_analyzer.{info.name}")
        for info in pkgutil.iter_modules(cq_analyzer.__path__)
    ]
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counting)
    return calls


def chain():
    return ConstraintSystem.from_strings(
        "chain", ("x0", "x1"), objective="x0 + x1",
        inequalities=("-x0 + x1^2", "-x1 + x0^2"),
    )


def test_full_analysis_checks_rcrcq_once(monkeypatch):
    calls = count_calls(monkeypatch, rank.check_rcrcq)
    sections = run_analyses(chain(), np.zeros(2), ToolConfig(), FULL)
    assert all("error" not in section for section in sections.values())
    assert len(calls) == 1


def test_full_analysis_evaluates_one_sample_jacobian(monkeypatch):
    # rcrcq and dependence read one sample plan and one Jacobian over every
    # constraint, so each (constraint, sample point) gradient is evaluated once.
    calls = count_calls(monkeypatch, rank.sample_jacobian)
    system = chain()
    sections = run_analyses(system, np.zeros(2), ToolConfig(), FULL)
    assert all("error" not in section for section in sections.values())
    assert len(calls) == 1
    functions, sampler = calls[0]
    assert functions == list(system.all_constraints)
    assert sampler == ToolConfig().sampler(np.zeros(2))


def test_analyses_without_rcrcq_or_dependence_sample_no_jacobian(monkeypatch):
    calls = count_calls(monkeypatch, rank.sample_jacobian)
    run_analyses(chain(), np.zeros(2), ToolConfig(), ["abadie", "kkt"])
    assert calls == []


def test_analyze_evaluates_the_base_point_once(monkeypatch):
    # rcrcq, abadie and kkt read one evaluation of x0 (each used to make its own).
    problem = workloads.round_problems("analyze-manifold", 1, 0)[0]
    pf = parse_problem_dict(problem.data)
    assert pf.system.objective is not None and pf.system.inequalities
    calls = count_calls(monkeypatch, model.evaluate_point)
    sections = run_analyses(pf.system, pf.x0, pf.config(ToolConfig()), FULL)
    assert all("error" not in section for section in sections.values())
    assert len(calls) == 1


def test_an_unevaluable_base_point_is_each_sections_error():
    # log(x1) at x1 = 0: every section reading x0 reports the one domain error;
    # kkt names the missing objective first, and dependence reads no base point.
    error = {
        "error": "constraint 2: logarithm of a non-positive value in 'log(x1)'",
        "error_kind": "ConstraintDomainError",
    }
    for objective in (None, "x1 + x2"):
        system = ConstraintSystem.from_strings(
            "log", ("x1", "x2"), objective, equalities=("x2",), inequalities=("log(x1)",),
        )
        sections = run_analyses(system, np.zeros(2), ToolConfig(), FULL)
        assert sections["rcrcq"] == sections["abadie"] == error
        if objective is None:
            assert sections["kkt"]["error_kind"] == "MissingObjectiveError"
        else:
            assert sections["kkt"] == error
        assert sections["dependence"]["sense"] == "crc-failed-inconclusive"


def test_all_active_family_is_ranked_once_per_row_set(monkeypatch):
    # Every inequality of the chain is active, so the dependence family is
    # RCRCQ's largest subset: the dependence section reads that subset's
    # report instead of ranking the same rows again.
    calls = count_calls(monkeypatch, rank.check_crc)
    sections = run_analyses(chain(), np.zeros(2), ToolConfig(), FULL)
    subsets = sections["rcrcq"]["subsets"]
    assert [s["subset"] for s in subsets] == [[], [1], [2], [1, 2]]
    assert len(calls) == len(subsets)
    largest = {key: value for key, value in subsets[-1].items() if key != "subset"}
    assert sections["dependence"]["crc"] == largest
    # Without an rcrcq section, dependence ranks its family itself, alike.
    calls.clear()
    alone = run_analyses(chain(), np.zeros(2), ToolConfig(), ["dependence"])
    assert len(calls) == 1
    assert alone["dependence"] == sections["dependence"]


def test_rcrcq_skips_no_point_for_an_inactive_inequality():
    # log(x1 + 0.05) - 10 <= 0 is inactive at the origin and unevaluable at
    # the radius-0.1 points with x1 <= -0.05.  The shared Jacobian covers it,
    # yet only rows of J decide whether a point is skipped for J.
    cfg = ToolConfig()
    assert any(p[0] <= -0.05 for p in cfg.sampler([0.0, 0.0]).plan()[1])
    system = ConstraintSystem.from_strings(
        "inactive-log", ("x1", "x2"), equalities=("x2",),
        inequalities=("log(x1 + 0.05) - 10", "-x1"),
    )
    section = run_analyses(system, np.zeros(2), cfg, ["rcrcq"])["rcrcq"]
    assert section["active_indices"] == [3]
    assert [s["subset"] for s in section["subsets"]] == [[1], [1, 3]]
    assert all(s["skipped_points"] == 0 for s in section["subsets"])
    assert section["verdict"] == "certified-by-sampling"


def test_rcrcq_alone_evaluates_an_inactive_inequality_only_at_the_point(monkeypatch):
    # Without dependence, the sample plan covers I_0 and I(x0) only: the
    # inactive log row is evaluated once, at x0, for the active set, instead
    # of at the center and at all 160 sample points.
    calls = Counter()
    original = Expression.value_and_gradient

    def counting(self, point):
        calls[self.source] += 1
        return original(self, point)

    monkeypatch.setattr(Expression, "value_and_gradient", counting)
    system = ConstraintSystem.from_strings(
        "inactive-log", ("x1", "x2"), equalities=("x2",),
        inequalities=("log(x1 + 0.05) - 10", "-x1"),
    )
    cfg = ToolConfig()
    section = run_analyses(system, np.zeros(2), cfg, ["rcrcq"])["rcrcq"]
    assert section["verdict"] == "certified-by-sampling"
    samples = len(cfg.radii) * cfg.samples_per_radius
    assert calls == {"x2": 2 + samples, "log(x1 + 0.05) - 10": 1, "-x1": 2 + samples}
    calls.clear()
    run_analyses(system, np.zeros(2), cfg, ["rcrcq", "dependence"])
    assert calls["log(x1 + 0.05) - 10"] == 2 + samples


def test_certified_rcrcq_with_violated_abadie_is_a_contradiction(monkeypatch):
    # RCRCQ implies the Abadie condition: a violated Abadie check next to a
    # certified RCRCQ is flagged, and the note says what must be wrong.
    real = analysis._RUNNERS["abadie"]

    def violated(*args):
        section = real(*args)
        section["verdict"] = "violated"
        return section

    monkeypatch.setitem(analysis._RUNNERS, "abadie", violated)
    _, pf = load_case("circle-point")
    cfg = pf.config(ToolConfig())
    sections = run_analyses(pf.system, pf.x0, cfg, FULL)
    assert sections["rcrcq"]["verdict"] == "certified-by-sampling"
    abadie = sections["abadie"]
    assert abadie["contradiction"] is True
    [note] = abadie["notes"]
    assert "the sampling or the tolerances must be wrong" in note
    assert f"  note: {note}" in render_text({"analyses": sections}).splitlines()
    # Without an rcrcq section there is nothing to contradict.
    assert "contradiction" not in run_analyses(pf.system, pf.x0, cfg, ["abadie"])["abadie"]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_no_corpus_case_contradicts_the_theorem(name):
    _, pf = load_case(name)
    sections = run_analyses(pf.system, pf.x0, pf.config(ToolConfig()), ["rcrcq", "abadie"])
    rcrcq, abadie = sections["rcrcq"], sections["abadie"]
    if "error" in rcrcq or "error" in abadie:
        assert "contradiction" not in abadie
    else:
        assert abadie["contradiction"] is False
        assert "notes" not in abadie
