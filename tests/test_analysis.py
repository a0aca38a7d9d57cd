import importlib
import pkgutil

import numpy as np

import cq_analyzer
from cq_analyzer import rank
from cq_analyzer.analysis import run_analyses
from cq_analyzer.config import ToolConfig
from cq_analyzer.model import ConstraintSystem


def test_full_analysis_checks_rcrcq_once(monkeypatch):
    # Wrap check_rcrcq under every name the package binds it to, so a second
    # run from any analysis is counted.
    original = rank.check_rcrcq
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

    system = ConstraintSystem.from_strings(
        "chain", ("x0", "x1"), objective="x0 + x1",
        inequalities=("-x0 + x1^2", "-x1 + x0^2"),
    )
    sections = run_analyses(
        system, np.zeros(2), ToolConfig(), ["rcrcq", "abadie", "dependence", "kkt"]
    )
    assert all("error" not in section for section in sections.values())
    assert len(calls) == 1
