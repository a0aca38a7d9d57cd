import importlib
import pkgutil

import numpy as np

import cq_analyzer
from cq_analyzer import rank
from cq_analyzer.analysis import run_analyses
from cq_analyzer.config import ToolConfig
from cq_analyzer.model import ConstraintSystem

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


def test_rcrcq_skips_no_point_for_an_inactive_inequality():
    # log(x1 + 0.05) - 10 <= 0 is inactive at the origin and unevaluable at
    # the radius-0.1 points with x1 <= -0.05.  The shared Jacobian covers it,
    # yet only rows of J decide whether a point is skipped for J.
    cfg = ToolConfig()
    assert any(p[0] <= -0.05 for p in cfg.sampler([0.0, 0.0]).points())
    system = ConstraintSystem.from_strings(
        "inactive-log", ("x1", "x2"), equalities=("x2",),
        inequalities=("log(x1 + 0.05) - 10", "-x1"),
    )
    section = run_analyses(system, np.zeros(2), cfg, ["rcrcq"])["rcrcq"]
    assert section["active_indices"] == [3]
    assert [s["subset"] for s in section["subsets"]] == [[1], [1, 3]]
    assert all(s["skipped_points"] == 0 for s in section["subsets"])
    assert section["verdict"] == "certified-by-sampling"
