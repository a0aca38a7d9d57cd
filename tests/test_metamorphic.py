"""Metamorphic tests: the verdicts do not depend on the order of the
variables or of the constraints, on the scale of each constraint, or on a
repeated constraint.

Reversing the equalities and the inequalities, multiplying every constraint
by 2 or by 0.5, or multiplying each constraint by its own positive factor
leaves the feasible set, the linearized cone and the gradient rank of every
subfamily at every point unchanged; so does reordering the variables (with
the point), which only permutes the coordinates.  The ``abadie`` verdict and
the ``dependence`` sense are checked under all of these.  The RCRCQ verdict
is checked under reordered variables and under a constraint given twice,
which adds a copy of a row to the subfamilies holding it and so changes no
rank.  The cases are the nine corpus cases and round 0 of the
``analyze-manifold`` benchmark workload at seeds 1-5.

Reordered variables move the sample points, which is what the tests show to
be harmless, and only permute the face directions of the Abadie check.  The
face directions use no random stream, so the ``abadie`` section is the same
under every seed but for its config snapshot.
"""

import functools
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from numpy.random import PCG64, Generator

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
    assert_invariant(pf.system, pf.x0, pf.config())


@pytest.mark.parametrize("seed", range(1, 6))
def test_manifold_verdicts_ignore_constraint_order_and_scale(seed):
    for problem in workloads.round_problems("analyze-manifold", seed, 0):
        pf = parse_problem_dict(problem.data)
        assert_invariant(pf.system, pf.x0, pf.config())


# ---------------------------------------------------------------------------
# reordered variables, a constraint given twice, one factor per constraint
# ---------------------------------------------------------------------------

ABADIE_DEPENDENCE = ("abadie", "dependence")


@functools.lru_cache(maxsize=None)
def manifold_problem(seed, slot):
    return parse_problem_dict(workloads.round_problems("analyze-manifold", seed, 0)[slot].data)


def corpus_problem(name):
    return load_case(name)[1]


def outcome(system, x0, cfg, which):
    return summary_line(run_analyses(system, x0, cfg, which))


def rebuild(system, variables=None, eqs=None, ins=None):
    objective = None if system.objective is None else system.objective.source
    return ConstraintSystem.from_strings(
        system.name,
        system.variables if variables is None else variables,
        objective,
        [e.source for e in system.equalities] if eqs is None else eqs,
        [e.source for e in system.inequalities] if ins is None else ins,
    )


def assert_ignores_variable_order(pf, which):
    system, x0, cfg = pf.system, pf.x0, pf.config()
    order = list(range(system.dimension))[::-1]
    variant = rebuild(system, variables=[system.variables[i] for i in order])
    assert outcome(variant, x0[order], cfg, which) == outcome(system, x0, cfg, which)


def assert_rcrcq_ignores_duplicates(pf):
    system, x0, cfg = pf.system, pf.x0, pf.config()
    expected = outcome(system, x0, cfg, ("rcrcq",))
    eqs = [e.source for e in system.equalities]
    ins = [e.source for e in system.inequalities]
    for source in eqs:
        variant = rebuild(system, eqs=eqs + [source])
        assert outcome(variant, x0, cfg, ("rcrcq",)) == expected, source
    for source in ins:
        variant = rebuild(system, ins=ins + [source])
        assert outcome(variant, x0, cfg, ("rcrcq",)) == expected, source


def assert_ignores_constraint_scales(pf, seed):
    """Each constraint times its own factor, drawn from U(0.5, 2)."""
    system, x0, cfg = pf.system, pf.x0, pf.config()
    rng = Generator(PCG64(seed))
    scale = [f"{rng.uniform(0.5, 2.0)!r}*({e.source})" for e in system.all_constraints]
    k = len(system.equalities)
    variant = rebuild(system, eqs=scale[:k], ins=scale[k:])
    expected = outcome(system, x0, cfg, ABADIE_DEPENDENCE)
    assert outcome(variant, x0, cfg, ABADIE_DEPENDENCE) == expected


MULTIVARIATE_CORPUS = sorted(n for n in CORPUS if corpus_problem(n).system.dimension > 1)
MANIFOLD_CASES = [(seed, slot) for seed in range(1, 6) for slot in range(6)]


@pytest.mark.parametrize("name", MULTIVARIATE_CORPUS)
def test_corpus_verdicts_ignore_variable_order(name):
    assert_ignores_variable_order(corpus_problem(name), ("rcrcq",) + ABADIE_DEPENDENCE)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_rcrcq_ignores_a_constraint_given_twice(name):
    assert_rcrcq_ignores_duplicates(corpus_problem(name))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_verdicts_ignore_each_constraint_scale(name):
    assert_ignores_constraint_scales(corpus_problem(name), len(name))


@pytest.mark.parametrize("seed, slot", MANIFOLD_CASES)
def test_manifold_rcrcq_ignores_variable_order(seed, slot):
    assert_ignores_variable_order(manifold_problem(seed, slot), ("rcrcq",))


@pytest.mark.parametrize("seed, slot", MANIFOLD_CASES)
def test_manifold_verdicts_ignore_variable_order(seed, slot):
    assert_ignores_variable_order(manifold_problem(seed, slot), ABADIE_DEPENDENCE)


@pytest.mark.parametrize("seed, slot", MANIFOLD_CASES)
def test_manifold_rcrcq_ignores_a_constraint_given_twice(seed, slot):
    assert_rcrcq_ignores_duplicates(manifold_problem(seed, slot))


@pytest.mark.parametrize("seed, slot", MANIFOLD_CASES)
def test_manifold_verdicts_ignore_each_constraint_scale(seed, slot):
    assert_ignores_constraint_scales(manifold_problem(seed, slot), 10 * seed + slot)


# ---------------------------------------------------------------------------
# the seed
# ---------------------------------------------------------------------------


def assert_abadie_ignores_the_seed(pf):
    def section(seed):
        cfg = replace(pf.config(), seed=seed)
        abadie = run_analyses(pf.system, pf.x0, cfg, ("abadie",))["abadie"]
        return {k: v for k, v in abadie.items() if k != "config"}

    assert section(42) == section(7)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_abadie_ignores_the_seed(name):
    assert_abadie_ignores_the_seed(corpus_problem(name))


@pytest.mark.parametrize("seed, slot", MANIFOLD_CASES)
def test_manifold_abadie_ignores_the_seed(seed, slot):
    assert_abadie_ignores_the_seed(manifold_problem(seed, slot))
