import itertools

import numpy as np
import pytest
from numpy.random import PCG64, Generator

from cq_analyzer.expr import parse
from cq_analyzer.model import ConstraintSystem, active_set, evaluate_point
from cq_analyzer.rank import (
    NeighborhoodSampler,
    SubsetGuardError,
    check_crc,
    check_rcrcq,
    numerical_rank,
)


def sampler_at(center, **kw):
    return NeighborhoodSampler(center=tuple(center), **kw)


def points_at(center, **kw):
    return sampler_at(center, **kw).points_by_radius()


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
# NeighborhoodSampler
# ---------------------------------------------------------------------------


def test_sampler_deterministic():
    a = sampler_at([0.0, 0.0], seed=42).points()
    b = sampler_at([0.0, 0.0], seed=42).points()
    assert all(np.array_equal(p, q) for p, q in zip(a, b))
    c = sampler_at([0.0, 0.0], seed=43).points()
    assert any(not np.array_equal(p, q) for p, q in zip(a, c))


def test_sampler_radius_bound():
    s = sampler_at([1.0, -2.0, 0.5])
    max_r = max(s.radii)
    for p in s.points():
        assert np.linalg.norm(p - np.array([1.0, -2.0, 0.5])) <= max_r * (1 + 1e-12)


def test_sampler_layers_have_requested_radius():
    s = sampler_at([0.0], samples_per_radius=8)
    for radius, layer in s.points_by_radius():
        assert len(layer) == 8
        for p in layer:
            assert abs(abs(p[0]) - radius) <= radius * 1e-12


def test_sampler_rejects_increasing_radii():
    with pytest.raises(ValueError):
        sampler_at([0.0], radii=(1e-3, 1e-2))


# ---------------------------------------------------------------------------
# check_crc
# ---------------------------------------------------------------------------


def fns(texts, names):
    return [parse(t, names) for t in texts]


def test_crc_coordinate_projections_certified():
    report = check_crc(
        fns(["x1", "x2"], ["x1", "x2"]), [0.0, 0.0], points_at([0.0, 0.0]), 1e-8
    )
    assert report.verdict == "certified-by-sampling"
    assert report.rank_at_center == 2
    assert report.pivot_indices == (1, 2)


def test_crc_axis_squares_refuted():
    report = check_crc(
        fns(["x1^2", "x2^2"], ["x1", "x2"]), [0.0, 0.0], points_at([0.0, 0.0]), 1e-8
    )
    assert report.verdict == "refuted"
    assert report.rank_at_center == 0
    assert report.witness is not None and report.witness["rank"] == 2


def test_crc_cusp_powers_refuted():
    # f' rows (3t^2) and (2t) vanish at 0 but not nearby.
    report = check_crc(fns(["t^3", "t^2"], ["t"]), [0.0], points_at([0.0]), 1e-8)
    assert report.verdict == "refuted"
    assert report.rank_at_center == 0
    assert report.witness["rank"] == 1


def test_crc_empty_family_certified():
    report = check_crc([], [0.0], points_at([0.0]), 1e-8)
    assert report.verdict == "certified-by-sampling"
    assert report.rank_at_center == 0
    assert report.total_points == 0


def test_crc_without_sample_points_is_inconclusive():
    # Zero sample points are no evidence: a non-empty family is not certified.
    for points in ([], points_at([0.0, 0.0], samples_per_radius=0)):
        report = check_crc(fns(["x1", "x2"], ["x1", "x2"]), [0.0, 0.0], points, 1e-8)
        assert report.verdict == "inconclusive"
        assert report.rank_at_center == 2
        assert report.total_points == 0


def test_crc_center_unevaluable_is_inconclusive():
    report = check_crc(
        fns(["x^3 * sin(1/x)", "x^3"], ["x"]), [0.0], points_at([0.0]), 1e-8
    )
    assert report.verdict == "inconclusive"
    assert report.center_unevaluable_rows == (1,)


# ---------------------------------------------------------------------------
# check_rcrcq
# ---------------------------------------------------------------------------


def system(eqs=(), ins=(), variables=("x1", "x2")):
    return ConstraintSystem.from_strings("sys", variables, None, eqs, ins)


def rcrcq_for(sys, x0, **kw):
    pd = evaluate_point(sys, x0)
    aset = active_set(pd, 1e-8)
    return check_rcrcq(sys, x0, aset, sampler_at(x0, **kw), 1e-8)


def test_rcrcq_x_squared_leq_zero_refuted():
    report = rcrcq_for(system(ins=["x^2"], variables=("x",)), [0.0])
    assert report.verdict == "refuted"
    assert report.subset_count == 2  # J = {} and J = {1}
    refuted = dict(report.base_ranks)[(1,)]
    assert refuted == 0


def test_rcrcq_parallel_equalities_certified():
    report = rcrcq_for(system(eqs=["x1", "2*x1"]), [0.0, 0.0])
    assert report.verdict == "certified-by-sampling"
    assert report.subset_count == 1
    assert dict(report.base_ranks)[(1, 2)] == 1


def test_rcrcq_licq_instance_certified():
    report = rcrcq_for(system(eqs=["x1"], ins=["x2"]), [0.0, 0.0])
    assert report.verdict == "certified-by-sampling"
    assert report.subset_count == 2
    ranks = dict(report.base_ranks)
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
    aset = active_set(pd, 1e-8)
    with pytest.raises(SubsetGuardError):
        check_rcrcq(sys, np.zeros(22), aset, sampler_at(np.zeros(22)), 1e-8)


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
        s = sampler_at(x0)
        report = check_crc(functions, x0, s.points_by_radius(), 1e-8)
        assert report.verdict == "certified-by-sampling"
        pivot_fns = [functions[i - 1] for i in report.pivot_indices]
        rows_x0 = np.array([g.gradient(x0) for g in pivot_fns])
        v = np.linalg.pinv(rows_x0)
        assert np.allclose(rows_x0 @ v, np.eye(len(pivot_fns)), atol=1e-12)
        for p in s.points():
            rows = np.array([g.gradient(p) for g in pivot_fns])
            assert numerical_rank(rows @ v, 1e-8).rank == len(pivot_fns)
