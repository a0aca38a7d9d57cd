"""Metamorphic tests: the Abadie verdict and the dependence sense do not
depend on the order of the constraints or on their scale.

Reversing the equalities and the inequalities, or multiplying every
constraint by 2 or by 0.5, leaves the feasible set, the linearized cone and
the gradient rank of every subfamily at every point unchanged.  The cases
are the nine corpus cases and round 0 of the ``analyze-manifold`` benchmark
workload at seeds 1-5.
"""

import sys
from pathlib import Path

import pytest

from cq_analyzer.analysis import run_analyses, summary_line
from cq_analyzer.config import ToolConfig
from cq_analyzer.corpus import CORPUS, load_case
from cq_analyzer.model import ConstraintSystem
from cq_analyzer.problem import parse_problem_dict

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def scaled(sources, factor):
    return [f"{factor}*({s})" for s in sources]


def variants(system):
    """The system with its constraints reversed, and scaled by 2 and by 0.5."""
    eqs = [e.source for e in system.equalities]
    ins = [e.source for e in system.inequalities]
    yield "reversed", eqs[::-1], ins[::-1]
    for factor in ("2", "0.5"):
        yield f"scaled by {factor}", scaled(eqs, factor), scaled(ins, factor)


def assert_invariant(system, x0, cfg):
    def outcome(s):
        return summary_line(run_analyses(s, x0, cfg, ("abadie", "dependence")))

    expected = outcome(system)
    objective = None if system.objective is None else system.objective.source
    for label, eqs, ins in variants(system):
        variant = ConstraintSystem.from_strings(system.name, system.variables, objective, eqs, ins)
        assert outcome(variant) == expected, (system.name, label)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_verdicts_ignore_constraint_order_and_scale(name):
    _, pf = load_case(name)
    assert_invariant(pf.system, pf.x0, pf.config(ToolConfig()))


@pytest.mark.parametrize("seed", range(1, 6))
def test_manifold_verdicts_ignore_constraint_order_and_scale(seed):
    for problem in workloads.round_problems("analyze-manifold", seed, 0):
        pf = parse_problem_dict(problem.data)
        assert_invariant(pf.system, pf.x0, pf.config(ToolConfig()))
