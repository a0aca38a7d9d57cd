import itertools
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, Generator

from cq_analyzer import rank
from cq_analyzer.config import ToolConfig
from cq_analyzer.expr import Expression, parse
from cq_analyzer.model import ConstraintSystem, active_set, evaluate_point
from cq_analyzer.rank import (
    SubsetGuardError,
    check_crc,
    check_rcrcq,
    numerical_rank,
    sample_jacobian,
    sample_plan,
)


def plan_at(center, **kw):
    """The center and the configuration of a sample plan: ToolConfig's
    defaults, with the fields ``kw`` replaced."""
    return center, ToolConfig(**kw)


def draw(plan):
    center, cfg = plan
    return sample_plan(center, cfg.radii, cfg.samples_per_radius, cfg.seed)


def crc(functions, plan, tol_rank):
    return check_crc(sample_jacobian(functions, *plan), tol_rank)


# ---------------------------------------------------------------------------
# numerical_rank
# ---------------------------------------------------------------------------


def test_rank_zero_matrix():
    result = numerical_rank(np.zeros((3, 5)), 1e-8)
    assert result.rank == 0
    assert result.pivot_indices == ()


def test_rank_unit_rows():
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    result = numerical_rank(rows, 1e-8)
    assert result.rank == 2
    assert result.pivot_indices == (1, 2)


def test_rank_pivot_tie_break_by_index():
    # Relative residual ties between rows 1 and 2; row 1 wins, then row 3.
    rows = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    result = numerical_rank(rows, 1e-8)
    assert result.rank == 2
    assert result.pivot_indices == (1, 3)
    # Oracle: every admissible pivot pair has a nonzero 2x2 determinant.
    det = np.linalg.det(rows[[i - 1 for i in result.pivot_indices]])
    assert abs(det) > 1e-12


@pytest.mark.parametrize("factors", [
    (1.0, 1.0, 1.0), (1e-200,) * 3, (1e200,) * 3, (1e-300, 1e-300, 1e-305),
])
def test_rank_pivots_do_not_depend_on_row_scale(factors):
    # Rows below about 1e-154 square to zero and rows above about 1e154 to
    # infinity; the pivots must still skip row 2, which is parallel to row 1.
    rows = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]) * np.array(factors)[:, None]
    result = numerical_rank(rows, 1e-8)
    assert result.rank == 2
    assert result.pivot_indices == (1, 3)
    assert [r.pivot_indices for r in numerical_rank(np.stack([rows, rows[::-1]]), 1e-8)] \
        == [(1, 3), (1, 2)]


def test_rank_pivots_skip_a_row_the_rank_counts_as_zero():
    # Row 1 lies below tol_rank * sigma_max; its relative residual (1) ties
    # row 2's, but a pivot on it would stand for a direction of rank zero.
    result = numerical_rank(np.array([[1e-20, 0.0], [0.0, 1.0]]), 1e-8)
    assert result.rank == 1
    assert result.pivot_indices == (2,)


def test_rank_pivots_fall_back_to_low_rows_when_too_few_rows_clear_the_floor():
    # Rows 2 and 3 are each below the floor 1e-8, yet together give
    # sigma_2 = 1.27e-8 > 1e-8; the lowest-index one fills the second pivot.
    rows = np.array([[1.0, 0.0], [0.0, 0.9e-8], [0.0, 0.9e-8]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = numerical_rank(rows, 1e-8)
    assert result.rank == 2
    assert result.pivot_indices == (1, 2)


def test_rank_exhaustive_pair_oracle():
    rng = Generator(PCG64(11))
    for _ in range(50):
        rows = rng.standard_normal((3, 3))
        if rng.uniform() < 0.5:
            rows[2] = 2.0 * rows[0] - rows[1]  # force rank 2
        result = numerical_rank(rows, 1e-8)
        # Oracle: exhaustive subset check of independence.
        best = 0
        for size in range(1, 4):
            for subset in itertools.combinations(range(3), size):
                s = np.linalg.svd(rows[list(subset)], compute_uv=False)
                if s[-1] > 1e-8 * s[0]:
                    best = max(best, size)
        assert result.rank == best


def test_rank_scale_invariance():
    rng = Generator(PCG64(5))
    rows = rng.standard_normal((4, 3))
    rows[3] = rows[0] + rows[1]
    base = numerical_rank(rows, 1e-8).rank
    for i in range(4):
        for factor in (1e-6, 1e6):
            scaled = rows.copy()
            scaled[i] *= factor
            assert numerical_rank(scaled, 1e-8).rank == base


def test_rank_pivot_submatrix_well_conditioned():
    rng = Generator(PCG64(17))
    for _ in range(40):
        rows = rng.standard_normal((4, 4))
        if rng.uniform() < 0.5:
            rows[1] = 3.0 * rows[0]
        result = numerical_rank(rows, 1e-8)
        if result.rank == 0:
            continue
        sub = rows[[i - 1 for i in result.pivot_indices]]
        sigma_sub = np.linalg.svd(sub, compute_uv=False)
        sigma_full = np.linalg.svd(rows, compute_uv=False)
        assert sigma_sub[-1] > 1e-8 * sigma_full[0]


def test_rank_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        numerical_rank(np.eye(2), 0.0)


# ---------------------------------------------------------------------------
# sample_plan
# ---------------------------------------------------------------------------


def test_sampler_deterministic():
    _, a = draw(plan_at([0.0, 0.0], seed=42))
    _, b = draw(plan_at([0.0, 0.0], seed=42))
    assert all(np.array_equal(p, q) for p, q in zip(a, b))
    _, c = draw(plan_at([0.0, 0.0], seed=43))
    assert any(not np.array_equal(p, q) for p, q in zip(a, c))


def test_sampler_radius_bound():
    max_r = max(ToolConfig().radii)
    for p in draw(plan_at([1.0, -2.0, 0.5]))[1]:
        assert np.linalg.norm(p - np.array([1.0, -2.0, 0.5])) <= max_r * (1 + 1e-12)


def test_sampler_layers_have_requested_radius():
    radius, points = draw(plan_at([0.0], samples_per_radius=8))
    assert radius[0] == 0.0 and points[0].tolist() == [0.0]    # the center
    assert radius[1:].tolist() == [r for r in ToolConfig().radii for _ in range(8)]
    for r, p in zip(radius[1:], points[1:]):
        assert abs(abs(p[0]) - r) <= r * 1e-12


def test_sampler_rejects_increasing_radii():
    with pytest.raises(ValueError):
        draw(plan_at([0.0], radii=(1e-3, 1e-2)))


def test_sampler_rejects_repeated_radius():
    with pytest.raises(ValueError, match="strictly descending"):
        draw(plan_at([0.0], radii=(1e-1, 1e-1, 1e-2)))


def test_sampler_rejects_an_empty_center():
    # Its normal vectors would all be empty, and the zero-norm redraw endless.
    with pytest.raises(ValueError, match="at least one coordinate"):
        draw(plan_at([]))


# ---------------------------------------------------------------------------
# check_crc
# ---------------------------------------------------------------------------


def fns(texts, names):
    return [parse(t, names) for t in texts]


def test_crc_coordinate_projections_certified():
    report = crc(
        fns(["x1", "x2"], ["x1", "x2"]), plan_at([0.0, 0.0]), 1e-8
    )
    assert report.verdict == "certified-by-sampling"
    assert report.rank_at_center == 2
    assert report.pivot_indices == (1, 2)


def test_crc_axis_squares_refuted():
    report = crc(
        fns(["x1^2", "x2^2"], ["x1", "x2"]), plan_at([0.0, 0.0]), 1e-8
    )
    assert report.verdict == "refuted"
    assert report.rank_at_center == 0
    assert report.witness is not None and report.witness["rank"] == 2


def test_crc_cusp_powers_refuted():
    # f' rows (3t^2) and (2t) vanish at 0 but not nearby.
    report = crc(fns(["t^3", "t^2"], ["t"]), plan_at([0.0]), 1e-8)
    assert report.verdict == "refuted"
    assert report.rank_at_center == 0
    assert report.witness["rank"] == 1


def test_crc_rank_drop_is_noted_and_refutes_nothing():
    # 1 - 10x vanishes at the radius-0.1 point x = 0.1: rank 0 there, rank 1
    # at the center and everywhere closer.  Only a rise would refute.
    report = crc(fns(["x - 5*x^2"], ["x"]), plan_at([0.0]), 1e-8)
    assert report.verdict == "certified-by-sampling"
    assert report.witness is None
    assert report.rank_counts_by_radius[0] == {"radius": 0.1, "rank_counts": {0: 16, 1: 16}}
    assert report.notes == (
        "sample points of rank below the center rank: 16, the largest at "
        "radius 0.1; a drop does not refute constant rank",
    )


def test_crc_witness_is_the_first_rise_not_an_earlier_drop():
    # A hand-made plan around a rank-1 center: a drop to rank 0 comes first,
    # then a rise to rank 2, then another drop at the smaller radius.
    center = np.array([[1.0, 0.0], [0.0, 0.0]])
    drop, rise = np.zeros((2, 2)), np.eye(2)
    radius = np.array([0.0, 0.1, 0.1, 0.01])
    points = np.array([[0.0, 0.0], [0.1, 0.0], [0.1, 1.0], [0.01, 0.0]])
    jacobian = rank.SampleJacobian(radius, points, np.zeros((4, 2)),
                                   np.array([center, drop, rise, drop]),
                                   np.zeros((4, 2), dtype=bool))
    report = check_crc(jacobian, 1e-8)
    assert report.verdict == "refuted"
    assert report.witness == {"point": [0.1, 1.0], "rank": 2}
    assert report.notes == (
        "sample points of rank below the center rank: 2, the largest at "
        "radius 0.1; a drop does not refute constant rank",
    )


def test_crc_empty_family_certified():
    report = crc([], plan_at([0.0]), 1e-8)
    assert report.verdict == "certified-by-sampling"
    assert report.rank_at_center == 0
    assert report.total_points == 0


def test_crc_without_sample_points_is_inconclusive():
    # Zero sample points are no evidence: a non-empty family is not certified.
    functions = fns(["x1", "x2"], ["x1", "x2"])
    jacobian = sample_jacobian(functions, *plan_at([0.0, 0.0], samples_per_radius=0))
    assert jacobian.points.tolist() == [[0.0, 0.0]]          # the center alone
    report = check_crc(jacobian, 1e-8)
    assert report.verdict == "inconclusive"
    assert report.rank_at_center == 2
    assert report.total_points == 0


def test_sample_jacobian_keeps_values_and_select_slices_them():
    # log(1 + 20*x1) fails where x1 <= -0.05: zero value and row, flagged.
    functions = fns(["x1*x2", "log(1 + 20*x1)", "x2"], ["x1", "x2"])
    jacobian = sample_jacobian(functions, *plan_at([0.0, 0.0], samples_per_radius=8))
    assert np.array_equal(jacobian.values[0], [0.0, 0.0, 0.0])
    failures = 0
    for point, v, g, bad in zip(jacobian.points, jacobian.values, jacobian.rows, jacobian.failed):
        for f, vi, gi, b in zip(functions, v, g, bad):
            if b:
                failures += 1
                assert vi == 0.0 and not np.any(gi)
            else:
                value, grad = f.value_and_gradient(point)
                assert vi == value and np.array_equal(gi, grad)
    assert failures > 0
    sub = jacobian.select([2, 0])
    assert sub.points is jacobian.points and sub.radius is jacobian.radius
    assert np.array_equal(sub.values, jacobian.values[:, [2, 0]])
    assert np.array_equal(sub.rows, jacobian.rows[:, [2, 0]])
    assert np.array_equal(sub.failed, jacobian.failed[:, [2, 0]])


def test_crc_center_unevaluable_is_inconclusive():
    report = crc(
        fns(["x^3 * sin(1/x)", "x^3"], ["x"]), plan_at([0.0]), 1e-8
    )
    assert report.verdict == "inconclusive"
    assert report.center_unevaluable_rows == (1,)


def crc_of(jacobian, cols):
    return check_crc(jacobian.select(cols), 1e-8)


def test_crc_subset_view_reports_center_failures_within_the_subset():
    # Row 2 of the family fails at the center; in a view it keeps its
    # 1-based position within the view, and views without it are unaffected.
    functions = fns(["x2", "x1^3 * sin(1/x1)", "x1"], ["x1", "x2"])
    jacobian = sample_jacobian(functions, *plan_at([0.0, 0.0]))
    assert crc_of(jacobian, [1]).center_unevaluable_rows == (1,)
    assert crc_of(jacobian, [2, 1]).center_unevaluable_rows == (2,)
    full = crc_of(jacobian, [0, 1, 2])
    assert full.center_unevaluable_rows == (2,)
    assert full.verdict == "inconclusive"
    assert crc_of(jacobian, [0, 2]).verdict == "certified-by-sampling"


# ---------------------------------------------------------------------------
# check_rcrcq
# ---------------------------------------------------------------------------


def system(eqs=(), ins=(), variables=("x1", "x2")):
    return ConstraintSystem.from_strings("sys", variables, None, eqs, ins)


def jacobian_at(sys, x0, **kw):
    return sample_jacobian(list(sys.all_constraints), *plan_at(x0, **kw))


def rcrcq_for(sys, x0, **kw):
    pd = evaluate_point(sys, x0)
    return check_rcrcq(sys, active_set(pd, 1e-8), jacobian_at(sys, x0, **kw), 1e-8)


def test_rcrcq_x_squared_leq_zero_refuted():
    report = rcrcq_for(system(ins=["x^2"], variables=("x",)), [0.0])
    assert report.verdict == "refuted"
    assert report.subset_count == 2  # J = {} and J = {1}
    refuted = dict(report.subsets)[(1,)].rank_at_center
    assert refuted == 0


def test_rcrcq_parallel_equalities_certified():
    report = rcrcq_for(system(eqs=["x1", "2*x1"]), [0.0, 0.0])
    assert report.verdict == "certified-by-sampling"
    assert report.subset_count == 1
    assert dict(report.subsets)[(1, 2)].rank_at_center == 1


def test_rcrcq_licq_instance_certified():
    report = rcrcq_for(system(eqs=["x1"], ins=["x2"]), [0.0, 0.0])
    assert report.verdict == "certified-by-sampling"
    assert report.subset_count == 2
    ranks = {j: sub.rank_at_center for j, sub in report.subsets}
    assert ranks[(1,)] == 1 and ranks[(1, 2)] == 2


def test_rcrcq_subset_count_is_power_of_two():
    report = rcrcq_for(system(ins=["x1", "x2", "x1 + x2"]), [0.0, 0.0])
    assert report.subset_count == 8


def test_rcrcq_guard():
    names = tuple(f"x{i}" for i in range(1, 23))
    sys = ConstraintSystem.from_strings(
        "big", names, None, (), [f"x{i}" for i in range(1, 23)]
    )
    pd = evaluate_point(sys, np.zeros(22))
    with pytest.raises(SubsetGuardError):
        check_rcrcq(sys, active_set(pd, 1e-8), jacobian_at(sys, np.zeros(22)), 1e-8)


def test_rcrcq_reads_a_jacobian_of_the_active_rows_only():
    # x2 - 1 <= 0 is inactive at the origin: the select of I_0 + I(x0) from a
    # plan over every constraint gives the same report as a plan over those
    # rows alone, and a plan of any other width is refused.
    sys = system(eqs=["x1"], ins=["x2 - 1", "x2", "x1 + x2^2"])
    x0 = [0.0, 0.0]
    active = active_set(evaluate_point(sys, x0), 1e-8)
    assert active == (3, 4)
    rows = [sys.constraint(i) for i in (1, 3, 4)]
    report = check_rcrcq(sys, active, sample_jacobian(rows, *plan_at(x0)), 1e-8)
    full = jacobian_at(sys, x0)
    assert check_rcrcq(sys, active, full.select([0, 2, 3]), 1e-8) == report
    assert report.subset_count == 4
    for jacobian in (full, sample_jacobian(rows[:2], *plan_at(x0))):
        with pytest.raises(ValueError, match="expected"):
            check_rcrcq(sys, active, jacobian, 1e-8)


def test_rcrcq_refutation_dominates():
    # Subset {1} of x^2 refutes even though {} is trivially certified.
    report = rcrcq_for(system(ins=["x^2"], variables=("x",)), [0.0])
    verdicts = {j: r.verdict for j, r in report.subsets}
    assert verdicts[()] == "certified-by-sampling"
    assert verdicts[(1,)] == "refuted"
    assert report.verdict == "refuted"


def test_rcrcq_without_sample_points_is_inconclusive():
    sys = system(eqs=["x1"], ins=["x2"])
    report = rcrcq_for(sys, [0.0, 0.0], samples_per_radius=0)
    assert report.verdict == "inconclusive"


def chain(k, coeffs=None, extra=None):
    """-x_i + c_i x_{i+1 mod k}^2 <= 0, optionally with x0^2 - c x1^2 <= 0."""
    scales = [f"{c!r}*" for c in coeffs] if coeffs else [""] * k
    inequalities = [f"-x{i} + {scales[i]}x{(i + 1) % k}^2" for i in range(k)]
    if extra is not None:
        inequalities.append(f"x0^2 - {extra!r}*x1^2")
    return system(ins=inequalities, variables=tuple(f"x{i}" for i in range(k)))


def assert_subsets_match_separate_checks(sys, x0, plan):
    active = active_set(evaluate_point(sys, x0), 1e-8)
    report = check_rcrcq(sys, active, sample_jacobian(list(sys.all_constraints), *plan), 1e-8)
    for j, subset_report in report.subsets:
        alone = crc([sys.constraint(i) for i in j], plan, 1e-8)
        assert subset_report == alone, j
    return report


coefficient = st.floats(0.5, 2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 4),
    coeffs=st.lists(coefficient, min_size=4, max_size=4),
    extra=st.one_of(st.none(), coefficient),
)
def test_rcrcq_subsets_equal_separate_crc_checks_on_chains(k, coeffs, extra):
    x0 = [0.0] * k
    report = assert_subsets_match_separate_checks(
        chain(k, coeffs[:k], extra), x0, plan_at(x0, samples_per_radius=8)
    )
    assert report.subset_count == 2 ** (k + (extra is not None))


def center_ranks(report, relabel=lambda i: i):
    """Each subset's rank at the center, keyed by its relabelled index set."""
    return {tuple(sorted(relabel(i) for i in j)): r.rank_at_center for j, r in report.subsets}


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 4),
    coeffs=st.lists(coefficient, min_size=4, max_size=4),
    extra=st.one_of(st.none(), coefficient),
    data=st.data(),
)
def test_rcrcq_is_invariant_under_inequality_reordering(k, coeffs, extra, data):
    sys = chain(k, coeffs[:k], extra)
    x0 = [0.0] * k
    order = data.draw(st.permutations(range(sys.n_constraints)))
    reordered = system(ins=[sys.inequalities[i].source for i in order], variables=sys.variables)
    before = rcrcq_for(sys, x0, samples_per_radius=8)
    after = rcrcq_for(reordered, x0, samples_per_radius=8)
    assert after.verdict == before.verdict
    # Constraint i of the chain is constraint order.index(i - 1) + 1 after reordering.
    assert center_ranks(after) == center_ranks(before, lambda i: order.index(i - 1) + 1)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 4),
    coeffs=st.lists(coefficient, min_size=4, max_size=4),
    extra=st.one_of(st.none(), coefficient),
    factors=st.lists(coefficient, min_size=5, max_size=5),
)
def test_rcrcq_is_invariant_under_positive_row_scaling(k, coeffs, extra, factors):
    sys = chain(k, coeffs[:k], extra)
    x0 = [0.0] * k
    scaled = system(
        ins=[f"{s!r}*({g.source})" for s, g in zip(factors, sys.inequalities)],
        variables=sys.variables,
    )
    before = rcrcq_for(sys, x0, samples_per_radius=8)
    after = rcrcq_for(scaled, x0, samples_per_radius=8)
    assert after.verdict == before.verdict
    assert center_ranks(after) == center_ranks(before)


def test_rcrcq_skips_a_point_only_for_subsets_with_a_failed_row():
    # log(1 + 20*x1) is unevaluable where x1 <= -0.05, at some radius-0.1
    # points: subsets containing it skip them, the others do not.
    sys = system(ins=["log(1 + 20*x1)", "x2"])
    report = assert_subsets_match_separate_checks(sys, [0.0, 0.0], plan_at([0.0, 0.0]))
    skipped = {j: r.skipped_points for j, r in report.subsets}
    assert skipped[()] == 0 and skipped[(2,)] == 0
    assert skipped[(1,)] == skipped[(1, 2)] > 0
    assert report.verdict == "certified-by-sampling"


def test_rcrcq_evaluates_each_gradient_once_per_point(monkeypatch):
    # The unscaled k = 4 chain: 4 gradients at the center and 160 sample
    # points, one pivoted rank per non-empty subset's center, 16 subsets.
    sys = chain(4)
    x0 = np.zeros(4)
    active = active_set(evaluate_point(sys, x0), 1e-8)
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(
        Expression, "value_and_gradient", counting("gradient", Expression.value_and_gradient)
    )
    monkeypatch.setattr(rank, "numerical_rank", counting("rank", rank.numerical_rank))
    monkeypatch.setattr(rank, "check_crc", counting("subset", rank.check_crc))
    report = rank.check_rcrcq(sys, active, jacobian_at(sys, x0), 1e-8)
    assert calls == {"gradient": 644, "rank": 15, "subset": 16}
    assert report.subset_count == 16


# ---------------------------------------------------------------------------
# the dual-basis image check on certified families
# ---------------------------------------------------------------------------


def test_crc_certified_implies_image_check_everywhere():
    # Prop-style property: on certified families the pivot rows applied to
    # their dual vectors at the center (the right inverse) keep full rank at
    # every sampled point.
    cases = [
        (["x1", "x2"], ["x1", "x2"], [0.0, 0.0]),
        (["x1 + x2", "2*x1 + 2*x2"], ["x1", "x2"], [0.0, 0.0]),
        (["x1^2 + x2^2 - 1"], ["x1", "x2"], [1.0, 0.0]),
    ]
    for texts, names, x0 in cases:
        functions = fns(texts, names)
        s = plan_at(x0)
        report = crc(functions, s, 1e-8)
        assert report.verdict == "certified-by-sampling"
        pivot_fns = [functions[i - 1] for i in report.pivot_indices]
        rows_x0 = np.array([g.gradient(x0) for g in pivot_fns])
        v = np.linalg.pinv(rows_x0)
        assert np.allclose(rows_x0 @ v, np.eye(len(pivot_fns)), atol=1e-12)
        for p in draw(s)[1][1:]:
            rows = np.array([g.gradient(p) for g in pivot_fns])
            assert numerical_rank(rows @ v, 1e-8).rank == len(pivot_fns)
