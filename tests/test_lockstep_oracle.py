"""Differential tests: stacked rank and lockstep corrector against one-point code.

``numerical_rank`` on a (P, m, n) stack and the lockstep cone-direction
corrector must reproduce the former one-matrix and one-direction code of
``tests/one_point_oracle.py`` bit for bit: ranks, singular values, pivots,
iterates, iteration counts and residuals.  The estimator
oracle's one-point equality projection is checked at its outcomes and its
iteration cap.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import one_point_oracle as oracle
from cq_analyzer.analysis import _render
from cq_analyzer.cones import build_linearized_cone, face_directions
from cq_analyzer.config import DIRECTION_COUNT, ToolConfig
from cq_analyzer.model import ConstraintSystem, active_set, evaluate_point, evaluate_rows
from cq_analyzer.rank import _norms, numerical_rank
from cq_analyzer.tangent import _correct_lockstep, _probe_directions

CFG = ToolConfig()
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def assert_same_rank(got, expected):
    assert got.rank == expected.rank
    assert _bits(got.singular_values) == _bits(expected.singular_values)
    assert got.pivot_indices == expected.pivot_indices


def assert_same_point(got, expected):
    assert (got is None) == (expected is None)
    if got is not None:
        assert _bits(got) == _bits(expected)


def assert_same_correction(got, expected):
    assert_same_point(got.r, expected.r)
    assert got.converged == expected.converged
    assert got.iterations == expected.iterations
    assert _bits(got.initial_residual) == _bits(expected.initial_residual)
    assert _bits(got.final_residual) == _bits(expected.final_residual)


# ---------------------------------------------------------------------------
# stacked numerical_rank
# ---------------------------------------------------------------------------

ENTRIES = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.25, 1e-9, 1e8)),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def stacks(draw):
    """(P, m, n) stacks with plain, all-zero, rank-deficient and row-scaled matrices."""
    count, m, n = draw(st.integers(0, 5)), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    flat = draw(st.lists(ENTRIES, min_size=count * m * n, max_size=count * m * n))
    stack = np.array(flat, dtype=float).reshape(count, m, n)
    for matrix in stack:
        kind = draw(st.sampled_from(("plain", "zero", "deficient", "scaled")))
        if kind == "zero":
            matrix[:] = 0.0
        elif kind == "deficient" and m >= 2:
            a, b = draw(ENTRIES), draw(ENTRIES)
            matrix[-1] = a * matrix[0] + b * matrix[m // 2]
        elif kind == "scaled":
            powers = draw(st.lists(st.integers(-8, 8), min_size=m, max_size=m))
            matrix *= 10.0 ** np.array(powers, dtype=float)[:, None]
    return stack


@SETTINGS
@given(stack=stacks(), tol_rank=st.sampled_from((1e-8, 1e-3, 0.5)))
def test_stacked_rank_matches_per_matrix_ranks(stack, tol_rank):
    results = numerical_rank(stack, tol_rank)
    assert isinstance(results, tuple) and len(results) == len(stack)
    for matrix, result in zip(stack, results):
        expected = oracle.numerical_rank(matrix, tol_rank)
        assert_same_rank(result, expected)
        assert_same_rank(numerical_rank(matrix, tol_rank), expected)


SPECIAL = np.array((0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.25, 1e-9, 1e8))


def schedule_sized_stack(rng, count, m, n, floor):
    """``count`` (m, n) matrices, each a product of rank between ``floor``
    and min(m, n), some with special entries; some get an all-zero row or
    a duplicated row (an exact tie in the pivot search)."""
    stack = np.zeros((count, m, n))
    for matrix in stack:
        r = rng.integers(floor, min(m, n) + 1)
        left = rng.choice(SPECIAL, (m, r)) if rng.random() < 0.3 else rng.standard_normal((m, r))
        matrix[:] = left @ rng.standard_normal((r, n))
        if rng.random() < 0.2:
            matrix[rng.integers(m)] = 0.0
        if m >= 2 and rng.random() < 0.3:
            i, j = rng.choice(m, 2, replace=False)
            matrix[j] = matrix[i]
    return stack


@st.composite
def schedule_sized_stacks(draw):
    """Stacks of up to 100 matrices, the size of the probes' base points
    over a whole schedule, mixing ranks 0..min(m, n) above a drawn floor."""
    count, m, n = draw(st.integers(1, 100)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    floor = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return schedule_sized_stack(rng, count, m, n, floor)


@SETTINGS
@given(stack=schedule_sized_stacks(), tol_rank=st.sampled_from((1e-8, 1e-3)))
def test_schedule_sized_stack_ranks_match_per_matrix_ranks(stack, tol_rank):
    for matrix, result in zip(stack, numerical_rank(stack, tol_rank), strict=True):
        assert_same_rank(result, oracle.numerical_rank(matrix, tol_rank))


@pytest.mark.parametrize("seed", range(4))
def test_stack_pivots_take_whole_stack_and_gathered_steps(seed):
    # Every matrix needs a first pivot and some need more, so the selection
    # takes whole-stack steps and then gathered ones, ties included.
    stack = schedule_sized_stack(np.random.default_rng(seed), 100, 4, 5, 1)
    stack[:, 0] = 1.0  # a nonzero row keeps every rank at least 1
    stack[::7, 3] = stack[::7, 0]
    results = numerical_rank(stack, 1e-8)
    ranks = [r.rank for r in results]
    assert min(ranks) >= 1 and max(ranks) > min(ranks)
    for matrix, result in zip(stack, results):
        assert_same_rank(result, oracle.numerical_rank(matrix, 1e-8))


def test_pivot_on_a_zero_residual_projects_nothing_out():
    # Subnormal rows count as zero, so every relative residual reads 0 and the
    # tie picks row 2, whose residual after row 1 is exactly zero: q = 0, not 0/0.
    subnormal = np.array([[5e-324, 0.0], [1e-323, 0.0], [0.0, 5e-324]])
    single = numerical_rank(subnormal, 1e-8)
    assert (single.rank, single.pivot_indices) == (2, (1, 2))
    assert_same_rank(single, oracle.numerical_rank(subnormal, 1e-8))
    # One whole-stack step, then a gathered one that skips the rank-1 matrix.
    stack = np.array([subnormal, [[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]], np.ones((3, 2))])
    for matrix, result in zip(stack, numerical_rank(stack, 1e-8)):
        assert_same_rank(result, oracle.numerical_rank(matrix, 1e-8))


@pytest.mark.parametrize("shape",[(0, 3, 2), (3, 0, 2), (3, 2, 0), (2, 3, 3)])
def test_stacked_rank_of_empty_and_zero_stacks(shape):
    results = numerical_rank(np.zeros(shape), 1e-8)
    assert len(results) == shape[0]
    assert all(r.rank == 0 and r.singular_values == () and r.pivot_indices == ()
               for r in results)


def test_rank_rejects_other_dimensions():
    with pytest.raises(ValueError):
        numerical_rank(np.zeros(3), 1e-8)
    with pytest.raises(ValueError):
        numerical_rank(np.zeros((1, 1, 1, 1)), 1e-8)


@SETTINGS
@given(st.lists(st.lists(ENTRIES, min_size=4, max_size=4), min_size=1, max_size=8))
def test_norms_match_the_one_vector_norm(vectors):
    vectors = np.array(vectors)
    assert _bits(_norms(vectors)) == _bits([np.linalg.norm(v) for v in vectors])


# ---------------------------------------------------------------------------
# equality projection: the lockstep corrector and the estimator oracle's
# one-point Gauss-Newton projection
# ---------------------------------------------------------------------------

# (equalities, inequalities, x0): a circle with a parallel copy, a curve whose
# gradient vanishes at x1 = 0.1, a log that leaves its domain for
# x1 <= -0.05, a square with a zero gradient on x1 = 0, and an unsatisfiable
# equality whose Gauss-Newton steps run to the iteration cap.
FAMILIES = [
    (("x1^2 + x2^2 - 1", "2*x1^2 + 2*x2^2 - 2"), ("x2 - 0.5",), (1.0, 0.0)),
    (("x1 - 5*x1^2",), ("-x2",), (0.0, 0.0)),
    (("log(x1 + 0.05) - x2",), ("x1 - 0.2",), (0.0, math.log(0.05))),
    (("x1^2", "x1 + x2^2"), (), (0.0, 0.0)),
    (("x1^2 + 1", "x2"), ("x1^2 - x2",), (0.0, 0.0)),
]


def family(index):
    eqs, ins, x0 = FAMILIES[index]
    return ConstraintSystem.from_strings("family", ("x1", "x2"), None, eqs, ins), np.array(x0)


offsets = st.lists(
    st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)), min_size=0, max_size=12
)


def probe_points(x0, deltas):
    # Exact special points ride along: the base point and x1 = 0.1, -0.05.
    special = [x0.copy(), np.array([0.1, x0[1]]), np.array([-0.05, x0[1]])]
    return special + [x0 + np.array(delta) for delta in deltas]


@SETTINGS
@given(index=st.integers(0, len(FAMILIES) - 1), deltas=offsets,
       t=st.sampled_from((1.0, 1e-1)))
def test_batched_equality_projection_matches_one_point_projection(index, deltas, t):
    # The lockstep corrector projects every probe point x0 + t*d onto the
    # family's equalities at once, as the one-point corrector does alone.
    sys, x0 = family(index)
    eq = sys.equality_indices
    job_list = [(eq, (point - x0) / t) for point in probe_points(x0, deltas)]
    batch = _correct_lockstep(sys, x0, (t,), job_list, CFG)[0]
    for got, (j, d) in zip(batch, job_list, strict=True):
        assert_same_correction(got, oracle.ljusternik_correct(sys, j, x0, d, t, CFG))


def test_equality_projection_cases_are_all_reached():
    # The families above do reach each way the estimator oracle's projection
    # of a point can end.
    outcomes = set()
    for index in range(len(FAMILIES)):
        sys, x0 = family(index)
        for point in probe_points(x0, [(0.03, 0.01), (-0.12, 0.05)]):
            x = oracle.correct_equalities(sys, sys.equality_indices, point, 1e-14, CFG)
            outcomes.add((index, x is None))
    assert (2, True) in outcomes       # left the domain of log
    assert (4, True) in outcomes       # iteration cap without convergence
    assert (3, False) in outcomes      # zero gradient at the base point, converged


def test_equality_projection_at_the_iteration_cap():
    # Gauss-Newton on x1^2 = 0 halves x1 per step, so from 0.9e-7 * 2^k it
    # needs k steps to reach |x1^2| <= 1e-14: k = 50 converges on the last
    # step the cap allows, k = 51 does not.
    sys = ConstraintSystem.from_strings("square", ("x1", "x2"), None, ("x1^2",), ())
    points = [np.array([0.9e-7 * 2.0 ** k, 0.0]) for k in (48, 49, 50, 51, 52)]
    got = [oracle.correct_equalities(sys, (1,), p, 1e-14, CFG) for p in points]
    assert [x is None for x in got] == [False, False, False, True, True]
    for x, p in zip(got[:3], points):
        assert x[0] ** 2 <= 1e-14 and x[1] == p[1]


# ---------------------------------------------------------------------------
# the lockstep cone-direction corrector
# ---------------------------------------------------------------------------

# Near x0 = (1, 0, 0): a sphere, a saddle, a log that leaves its domain for
# x1 <= 0.9 + x2, a cylinder whose gradient vanishes on its axis x1 = 1,
# x3 = 0, an unsatisfiable equality and a scaled copy of the sphere.
CORRECTOR_SYSTEM = ConstraintSystem.from_strings(
    "lockstep", ("x1", "x2", "x3"), None,
    ("x1^2 + x2^2 + x3^2 - 1", "x3 - x1*x2", "log(x1 - x2 - 0.9) - log(0.1)",
     "(x1 - 1)^2 + x3^2 - 0.01", "x2^2 + 1", "2*x1^2 + 2*x2^2 + 2*x3^2 - 2"),
)
X0 = np.array([1.0, 0.0, 0.0])

directions = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
jobs = st.lists(st.tuples(st.sets(st.integers(1, 6), max_size=3), directions),
                min_size=1, max_size=8)


def oracle_corrections(t, job_list):
    return [oracle.ljusternik_correct(CORRECTOR_SYSTEM, j, X0, d, t, CFG) for j, d in job_list]


def as_arrays(job_list):
    return [(j, np.array(d)) for j, d in job_list]


@SETTINGS
@given(job_list=jobs, t=st.sampled_from((0.5, 1e-1, 1e-3)))
def test_lockstep_corrections_match_one_direction_corrections(job_list, t):
    job_list = as_arrays(job_list)
    batch = _correct_lockstep(CORRECTOR_SYSTEM, X0, (t,), job_list, CFG)[0]
    for got, expected in zip(batch, oracle_corrections(t, job_list), strict=True):
        assert_same_correction(got, expected)


def test_lockstep_corrector_cases_are_all_reached():
    # One batch, every way a job can end, each matched by the one-direction loop.
    job_list = as_arrays([
        ((), (0.0, 1.0, 0.0)),                        # empty J
        ((1, 2), (0.0, 0.6, 0.8)),                    # converges
        ((3,), (-1.0, 0.0, 0.0)),                     # leaves the domain at the base
        ((3,), (1.8, 0.0, 0.0)),                      # leaves it while iterating
        ((4,), (0.0, 1.0, 0.0)),                      # zero gradient at the base
        ((5,), (0.3, 0.5, 0.0)),                      # iteration cap
        ((1, 6), (0.0, 0.0, 1.0)),                    # parallel rows, one pivot
    ])
    t = 0.5
    batch = _correct_lockstep(CORRECTOR_SYSTEM, X0, (t,), job_list, CFG)[0]
    expected = oracle_corrections(t, job_list)
    for got, want in zip(batch, expected, strict=True):
        assert_same_correction(got, want)
    diagnostics = {r.diagnostic for r in expected}
    assert "iteration cap reached" in diagnostics
    assert "zero-gradient pivot" in diagnostics
    assert any(r.iterations == 0 and r.r is None for r in expected)
    domain = [r.iterations for r in expected if "constraint 3" in (r.diagnostic or "")]
    assert 0 in domain and any(domain)
    assert sum(r.converged for r in expected) >= 3


@pytest.mark.parametrize("eqs, ins, x0", [
    (("x1^2 + x2^2 - 1",), ("x2",), (1.0, 0.0)),
    ((), ("x1^2 + x2^2 - 1", "-x2"), (1.0, 0.0)),
    (("x1 + x2", "2*x1 + 2*x2"), (), (0.0, 0.0)),
    (("log(x1) - x2",), (), (0.05, math.log(0.05))),
    ((), ("x1^2",), (0.0, 0.0)),
    # Along one of the two kernel directions the base point leaves the
    # domain of log at t = 0.1 only.
    (("x2 + 0.01*log(x1 + 0.05) - 0.01*log(0.05)",), (), (0.0, 0.0)),
])
def test_lockstep_probes_match_one_direction_probes(eqs, ins, x0):
    sys = ConstraintSystem.from_strings("probe", ("x1", "x2"), None, eqs, ins)
    pd = evaluate_point(sys, x0)
    cone = build_linearized_cone(pd, active_set(pd, CFG.tol_active))
    faces = face_directions(cone, DIRECTION_COUNT, CFG.tol_cone)
    batch = _probe_directions(sys, pd, faces, CFG)
    alone = [_probe_directions(sys, pd, [face], CFG)[0] for face in faces]
    assert _render(batch) == _render(alone)


def test_probe_case_leaves_the_domain_at_one_t_only():
    sys = ConstraintSystem.from_strings(
        "probe", ("x1", "x2"), None, ("x2 + 0.01*log(x1 + 0.05) - 0.01*log(0.05)",), ())
    pd = evaluate_point(sys, (0.0, 0.0))
    faces = face_directions(build_linearized_cone(pd, ()), DIRECTION_COUNT, CFG.tol_cone)
    left = sorted(tuple(r is None for r in p.trace.initial_residuals)
                  for p in _probe_directions(sys, pd, faces, CFG))
    assert left == [(False,) * 5, (True, False, False, False, False)]


def test_lockstep_groups_mix_pivot_counts_and_domain_exits():
    # At t = 0.1: J = (2, 4) holds jobs of pivot count 1 (on the cylinder's
    # axis) and 2; in the one-pivot group of J = (3,) one job leaves the
    # domain at its first step while the others go on.
    job_list = as_arrays([
        ((3,), (1.8, 0.0, 0.0)),
        ((3,), (0.5, 0.5, 0.0)),
        ((3,), (1.6, 0.0, 0.1)),
        ((2, 4), (0.0, 1.0, 0.0)),
        ((2, 4), (0.3, 0.5, 0.2)),
        ((1, 2), (0.0, 0.6, 0.8)),
        ((1, 6), (0.0, 0.0, 1.0)),
    ])
    t = 1e-1
    batch = _correct_lockstep(CORRECTOR_SYSTEM, X0, (t,), job_list, CFG)[0]
    expected = oracle_corrections(t, job_list)
    for got, want in zip(batch, expected, strict=True):
        assert_same_correction(got, want)
    assert {len(r.pivot_indices) for r in expected[3:5]} == {1, 2}
    assert expected[0].iterations == 1 and "constraint 3" in expected[0].diagnostic
    assert expected[1].converged
    assert expected[2].converged and expected[2].iterations > 1


@SETTINGS
@given(job_list=jobs)
def test_lockstep_schedule_matches_one_direction_corrections_at_each_t(job_list):
    # Along the whole schedule each (J, pivot count) group iterates once,
    # and every correction equals the one-direction correction at its t.
    job_list = as_arrays(job_list)
    assert len(CFG.t_schedule) == 5
    batch = _correct_lockstep(CORRECTOR_SYSTEM, X0, CFG.t_schedule, job_list, CFG)
    assert len(batch) == len(CFG.t_schedule)
    for t, got_t in zip(CFG.t_schedule, batch):
        for got, want in zip(got_t, oracle_corrections(t, job_list), strict=True):
            assert_same_correction(got, want)


def test_lockstep_pseudoinverse_zeroes_a_singular_value_of_dependent_pivot_rows():
    # J = (2, 5) has independent rows at the base points, so both are
    # pivots, but the first Gauss-Newton step takes x2 to about 0, where the
    # row of x2^2 + 1 is about zero: the pseudoinverse drops its singular
    # value, below 1e-15 times the largest, at that iterate.
    job_list = as_arrays([
        ((2, 5), (0.0, 2.0, 0.0)),
        ((2, 5), (0.2, 2.0, 0.3)),
    ])
    t = 0.5
    functions = [CORRECTOR_SYSTEM.constraint(i) for i in (2, 5)]
    for _, d in job_list:
        base = X0 + t * d
        values, rows, _ = evaluate_rows(functions, base[None])
        first = np.linalg.pinv(rows[0]) @ -values[0]
        _, rows, _ = evaluate_rows(functions, (base + first)[None])
        sigma = np.linalg.svd(rows[0], compute_uv=False)
        assert 0.0 < sigma[-1] <= 1e-15 * sigma[0]
    batch = _correct_lockstep(CORRECTOR_SYSTEM, X0, (t,), job_list, CFG)[0]
    expected = oracle_corrections(t, job_list)
    for got, want in zip(batch, expected, strict=True):
        assert_same_correction(got, want)
    assert all(r.pivot_indices == (2, 5) and r.iterations == 50 for r in expected)
