"""Verdicts known to be wrong today, each pinned as a strict xfail.

Each test asserts that the wrong verdict is gone, so it xfails while the
defect stands.  The change that mends a defect makes its test pass, and
strict mode then fails the run until that xfail mark, which names the
ROADMAP item, is removed.
"""

import numpy as np
import pytest

from cq_analyzer.analysis import run_analyses
from cq_analyzer.config import ToolConfig
from cq_analyzer.model import ConstraintSystem


def known_wrong(reason: str):
    """A strict xfail that a crash does not satisfy, only the failed assert."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


def verdict(analysis, variables, **constraints) -> str:
    """The verdict of ``analysis`` at the origin, under the default settings."""
    system = ConstraintSystem.from_strings("known-wrong", variables, **constraints)
    section = run_analyses(system, np.zeros(len(variables)), ToolConfig(), [analysis])
    return section[analysis]["verdict"]


@known_wrong("ROADMAP items 5 and 14: the gradients of x2 and x2 + x1^11 have rank 2 "
             "wherever x1 != 0, but sigma_2/sigma_1 stays below tol_rank")
def test_a_rank_rise_below_tol_rank_is_not_certified():
    # The rank is 1 at 0 and 2 wherever x1 != 0, so RCRCQ is refuted.
    system = {"equalities": ("x2", "x2 + x1^11")}
    assert verdict("rcrcq", ("x1", "x2"), **system) != "certified-by-sampling"


@known_wrong("ROADMAP items 13 and 17: the corrector forces the slack inequality "
             "-x1^2 <= 0 to equality")
def test_a_zero_gradient_inequality_does_not_violate_abadie():
    # -x1^2 <= 0 holds everywhere: T = Gamma = R, so Abadie holds.
    assert verdict("abadie", ("x1",), inequalities=("-x1^2",)) != "violated"


@known_wrong("ROADMAP items 15 and 17: every probe direction lies on one of the four "
             "feasible lines")
def test_four_lines_through_the_origin_are_not_abadie_consistent():
    # The feasible set is four lines, and Gamma is the whole plane.
    system = {"equalities": ("x1*x2*(x1 - x2)*(x1 + x2)",)}
    assert verdict("abadie", ("x1", "x2"), **system) != "consistent"


@known_wrong("ROADMAP item 17: along (1, 0) the base residual t^3 is within the "
             "corrector tolerance at small t, so the probe passes")
def test_a_cubic_inequality_is_not_abadie_consistent():
    # x1^3 <= 0 is x1 <= 0, so (1, 0) lies in Gamma = R^2 but not in T.
    assert verdict("abadie", ("x1", "x2"), inequalities=("x1^3",)) != "consistent"
