import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, Generator

from cq_analyzer.cones import (
    LinearizedCone,
    build_linearized_cone,
    cone_member,
    dual_cone_decomposition,
    face_directions,
    kernel_basis,
    nonneg_lstsq,
)
from cq_analyzer.config import DIRECTION_COUNT
from cq_analyzer.model import ConstraintSystem, active_set, evaluate_point


def make_cone(eq_rows, ineq_rows, n=None):
    eq = np.asarray(eq_rows, dtype=float).reshape(len(eq_rows), -1) if eq_rows else None
    ineq = (
        np.asarray(ineq_rows, dtype=float).reshape(len(ineq_rows), -1)
        if ineq_rows
        else None
    )
    if n is None:
        n = (eq if eq is not None else ineq).shape[1]
    return LinearizedCone(
        eq_rows=eq if eq is not None else np.zeros((0, n)),
        ineq_rows=ineq if ineq is not None else np.zeros((0, n)),
        eq_indices=tuple(range(1, (len(eq_rows) if eq_rows else 0) + 1)),
        ineq_indices=tuple(
            range(
                (len(eq_rows) if eq_rows else 0) + 1,
                (len(eq_rows) if eq_rows else 0) + (len(ineq_rows) if ineq_rows else 0) + 1,
            )
        ),
        base_point=np.zeros(n),
    )


def cone_from_system(eqs=(), ins=(), variables=("x1", "x2"), x0=(0.0, 0.0)):
    sys = ConstraintSystem.from_strings("sys", variables, None, eqs, ins)
    pd = evaluate_point(sys, list(x0))
    return build_linearized_cone(pd, active_set(pd, 1e-8))


# ---------------------------------------------------------------------------
# build / membership
# ---------------------------------------------------------------------------


def test_build_no_constraints_gives_whole_space():
    # No constraint at all, or an inactive inequality alone: no active row.
    for cone in (cone_from_system(), cone_from_system(ins=["x1 - 1"])):
        for rows in (cone.eq_rows, cone.ineq_rows):
            assert rows.shape == (0, 2) and rows.dtype == np.float64
        assert cone_member(cone, [3.0, -4.0], 1e-8)


def test_build_keeps_zero_row_for_x_squared():
    cone = cone_from_system(ins=["x^2"], variables=("x",), x0=(0.0,))
    assert cone.ineq_rows.shape == (1, 1)
    assert cone.ineq_rows[0, 0] == 0.0
    # Gamma = R: every direction is a member.
    assert cone_member(cone, [1.0], 1e-8)
    assert cone_member(cone, [-1.0], 1e-8)


def test_build_excludes_inactive_rows():
    cone = cone_from_system(eqs=["x1"], ins=["x2", "x1 - 5"])
    assert cone.eq_indices == (1,)
    assert cone.ineq_indices == (2,)
    assert np.array_equal(cone.eq_rows, [[1.0, 0.0]])
    assert np.array_equal(cone.ineq_rows, [[0.0, 1.0]])


def test_member_zero_direction_always():
    cone = make_cone([[1.0, 1.0]], [[0.0, -1.0]])
    assert cone_member(cone, [0.0, 0.0], 1e-8)


def test_member_equality_row_hand_values():
    cone = make_cone([[1.0, 1.0]], [])
    assert cone_member(cone, [1.0, -1.0], 1e-8)
    assert not cone_member(cone, [1.0, 0.0], 1e-8)


def test_member_closed_under_scaling_and_addition():
    cone = make_cone([[1.0, 1.0, 0.0]], [[0.0, 0.0, 1.0], [-1.0, 1.0, 0.0]])
    rng = Generator(PCG64(3))
    members = []
    while len(members) < 20:
        d = rng.standard_normal(3)
        d[1] = -d[0] if rng.uniform() < 0.5 else d[1]
        if cone_member(cone, d, 1e-8):
            members.append(d)
    for d in members:
        for factor in (0.0, 0.5, 2.0, 10.0):
            assert cone_member(cone, factor * d, 1e-8)
    for d1, d2 in itertools.combinations(members[:8], 2):
        assert cone_member(cone, d1 + d2, 1e-8)


# ---------------------------------------------------------------------------
# nonneg_lstsq against a brute-force active-set enumeration oracle
# ---------------------------------------------------------------------------


def nnls_oracle(a, b):
    """Exact NNLS by enumerating all sign-support sets (tiny instances only)."""
    m, n = a.shape
    best = (np.zeros(n), np.linalg.norm(b))
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            cols = list(support)
            sol, *_ = np.linalg.lstsq(a[:, cols], b, rcond=None)
            if np.any(sol < -1e-12):
                continue
            x = np.zeros(n)
            x[cols] = np.clip(sol, 0.0, None)
            r = np.linalg.norm(b - a @ x)
            if r < best[1] - 1e-12:
                best = (x, r)
    return best


def test_nnls_frozen_instance():
    # Unconstrained solution (-0.5, 3); clipping the first coordinate gives
    # x = (0, 3) with residual 1 (checked by hand).
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    b = np.array([-1.0, 3.0])
    x, rnorm = nonneg_lstsq(a, b)
    assert np.allclose(x, [0.0, 3.0], atol=1e-12)
    assert rnorm == pytest.approx(1.0, abs=1e-12)


def test_nnls_matches_enumeration_oracle():
    rng = Generator(PCG64(99))
    for k in range(60):
        m, n = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        x, rnorm = nonneg_lstsq(a, b)
        assert np.all(x >= 0.0)
        _, oracle_norm = nnls_oracle(a, b)
        assert rnorm <= oracle_norm + 1e-9, (k, a, b, x)


def test_nnls_zero_rhs():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    x, rnorm = nonneg_lstsq(a, np.zeros(2))
    assert np.array_equal(x, np.zeros(2))
    assert rnorm == 0.0


# ---------------------------------------------------------------------------
# dual_cone_decomposition
# ---------------------------------------------------------------------------


def test_dual_member_zero_vector():
    cone = make_cone([[1.0, 0.0]], [[0.0, -1.0]])
    lam = dual_cone_decomposition(cone, [0.0, 0.0], 1e-8)[0]
    assert lam is not None and sorted(lam) == [1, 2]
    assert all(abs(v) <= 1e-10 for v in lam.values())


def test_dual_member_hand_expansion():
    cone = make_cone([], [[-1.0, 0.0], [0.0, -1.0]])
    lam = dual_cone_decomposition(cone, [-1.0, -1.0], 1e-8)[0]
    assert lam is not None
    assert lam[1] == pytest.approx(1.0, abs=1e-9)
    assert lam[2] == pytest.approx(1.0, abs=1e-9)


def test_dual_member_sign_obstruction():
    cone = make_cone([], [[-1.0, 0.0]])
    assert dual_cone_decomposition(cone, [1.0, 0.0], 1e-8)[0] is None


def test_dual_member_minimal_norm_duplicate_rows():
    # rows (-1) and (-2); v = -1 has solutions {l1 + 2 l2 = 1, l >= 0};
    # min |l| is the projection (0.2, 0.4) (closed form; grid-checked below).
    cone = make_cone([], [[-1.0], [-2.0]])
    lam = dual_cone_decomposition(cone, [-1.0], 1e-8)[0]
    assert lam[1] == pytest.approx(0.2, abs=1e-8)
    assert lam[2] == pytest.approx(0.4, abs=1e-8)
    grid = [(l1, (1.0 - l1) / 2.0) for l1 in np.linspace(0.0, 1.0, 2001)]
    best = min(grid, key=lambda p: p[0] ** 2 + p[1] ** 2)
    assert best[0] == pytest.approx(lam[1], abs=1e-3)


def test_dual_member_free_equality_coefficient():
    cone = make_cone([[2.0, 0.0]], [])
    lam = dual_cone_decomposition(cone, [-1.0, 0.0], 1e-8)[0]
    assert lam is not None
    assert lam[1] == pytest.approx(-0.5, abs=1e-9)


def test_dual_member_no_rows():
    # With no row the residual is v itself, bit for bit (-0.0 included).
    cone = make_cone([], [], n=2)
    for v, member in (([0.0, -0.0], True), ([1.0, -0.0], False)):
        lam, residual = dual_cone_decomposition(cone, v, 1e-8)
        assert lam == ({} if member else None)
        assert residual.view(np.int64).tolist() == np.array(v).view(np.int64).tolist()


def corpus_cones():
    from cq_analyzer.corpus import CORPUS, load_case
    from cq_analyzer.model import ConstraintDomainError

    cones = []
    for name in sorted(CORPUS):
        _, pf = load_case(name)
        sys = pf.system
        try:
            pd = evaluate_point(sys, pf.x0)
        except ConstraintDomainError:
            continue
        cones.append(build_linearized_cone(pd, active_set(pd, 1e-8)))
    return cones


def test_farkas_consistency_property():
    # Whenever v decomposes over the rows, <v, d> <= tol for every face
    # direction d of the cone; checked on hand-made cones and every corpus cone.
    cones = [
        make_cone([[1.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]]),
        make_cone([], [[-1.0, 0.0], [0.0, -1.0]]),
        make_cone([[1.0, 0.0]], [[0.0, -1.0]]),
    ] + corpus_cones()
    rng = Generator(PCG64(21))
    for cone in cones:
        n = cone.dimension
        faces = face_directions(cone, 24, 1e-8)
        for _ in range(100):
            v = rng.standard_normal(n)
            lam = dual_cone_decomposition(cone, v, 1e-8)[0]
            if lam is None:
                continue
            for _, d in faces:
                assert float(v @ d) <= 1e-6


def test_residual_direction_certifies_exclusion():
    cone = make_cone([], [[-1.0, 0.0]])
    v = np.array([1.0, 0.5])
    lam, r = dual_cone_decomposition(cone, v, 1e-8)
    assert lam is None
    assert np.linalg.norm(r) > 1e-6
    assert cone_member(cone, r / np.linalg.norm(r), 1e-8)
    assert float(v @ r) > 0.0


# ---------------------------------------------------------------------------
# kernel_basis
# ---------------------------------------------------------------------------


def test_kernel_single_unit_row():
    basis = kernel_basis(np.array([[1.0, 0.0]]), 1e-8)
    assert basis.shape == (1, 2)
    assert abs(basis[0] @ np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-12)


def test_kernel_dependent_rows():
    basis = kernel_basis(np.array([[1.0, 1.0], [2.0, 2.0]]), 1e-8)
    assert basis.shape == (1, 2)
    expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert abs(basis[0] @ expected) == pytest.approx(1.0, abs=1e-12)


def test_kernel_full_rank_empty():
    assert kernel_basis(np.eye(3), 1e-8).shape == (0, 3)


def test_kernel_empty_rows_identity():
    assert np.array_equal(kernel_basis(np.zeros((0, 3)), 1e-8), np.eye(3))


def test_kernel_orthogonal_to_rows():
    rng = Generator(PCG64(31))
    for _ in range(30):
        rows = rng.standard_normal((2, 4))
        rows[1] = 2 * rows[0] if rng.uniform() < 0.3 else rows[1]
        basis = kernel_basis(rows, 1e-8)
        sigma_max = np.linalg.svd(rows, compute_uv=False)[0]
        for vec in basis:
            assert np.max(np.abs(rows @ vec)) <= 1e-8 * sigma_max
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# face_directions
# ---------------------------------------------------------------------------


def face_list(cone, count=DIRECTION_COUNT, tol=1e-8):
    return [(s, d.tolist()) for s, d in face_directions(cone, count, tol)]


def test_faces_of_the_orthant_centre_first_then_each_edge():
    cone = cone_from_system(ins=["-x1", "-x2"])
    faces = face_directions(cone, DIRECTION_COUNT, 1e-8)
    assert [s for s, _ in faces] == [(), (1,), (2,), (), ()]
    # The centre, both edges, then the midpoints of the centre and each edge.
    c, s = np.cos(np.pi / 8.0), np.sin(np.pi / 8.0)
    expected = [np.array([1.0, 1.0]) / np.sqrt(2.0), [0.0, 1.0], [1.0, 0.0], [s, c], [c, s]]
    for (_, d), e in zip(faces, expected):
        assert np.allclose(d, e, rtol=0.0, atol=1e-15)


def test_faces_stop_at_the_count():
    cone = cone_from_system(ins=["-x1", "-x2"])
    assert [s for s, _ in face_directions(cone, 2, 1e-8)] == [(), (1,)]
    with pytest.raises(ValueError):
        face_directions(cone, 0, 1e-8)


def test_faces_of_a_halfline_give_one_direction():
    cone = cone_from_system(ins=["-x1", "-2*x1"], variables=("x1",), x0=(0.0,))
    assert face_list(cone) == [((), [1.0])]


def test_faces_of_the_whole_space_give_both_signs_of_each_axis():
    faces = face_list(cone_from_system(variables=("x1", "x2", "x3"), x0=(0.0,) * 3))
    assert len(faces) == DIRECTION_COUNT
    assert [s for s, _ in faces] == [()] * DIRECTION_COUNT
    assert [np.abs(d).tolist() for _, d in faces[:6]] == [
        [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0],
    ]
    assert [sum(d) for _, d in faces[:6]] == [1.0, -1.0] * 3
    # Then the midpoints of two axes, e1 + e2, e1 - e2, e1 + e3, ..., until
    # the count is reached.
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose([d for _, d in faces[6:9]], [[r, r, 0.0], [r, -r, 0.0], [r, 0.0, r]],
                       rtol=0.0, atol=1e-15)


def test_faces_lie_in_the_equality_kernel():
    faces = face_list(make_cone([[2.0, 0.0]], []))
    assert faces == [((), [0.0, 1.0]), ((), [0.0, -1.0])]


def test_faces_of_the_trivial_cone_are_empty():
    assert face_directions(make_cone([[1.0, 0.0], [0.0, 1.0]], []), 8, 1e-8) == ()


def test_faces_close_over_a_zero_row_and_an_opposite_pair():
    # x^2 <= 0 gives the zero row, so Gamma = R is the lineality space; the
    # pair x1 <= 0, -x1 <= 0 is an implicit equality.
    cone = cone_from_system(ins=["x^2"], variables=("x",), x0=(0.0,))
    assert face_list(cone) == [((1,), [1.0]), ((1,), [-1.0])]
    cone = cone_from_system(ins=["x1", "-x1", "-x2"])
    assert face_list(cone) == [((1, 2), [0.0, 1.0])]


@st.composite
def small_cones(draw):
    """Cones in R^n, n = 1..4, with integer rows in [-2, 2]."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    eq = draw(st.lists(row, max_size=2))
    ineq = draw(st.lists(row, min_size=1, max_size=5))
    return make_cone(eq, ineq, n)


CONE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def unit(rows):
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / np.where(norms > 0.0, norms, 1.0)


@CONE_SETTINGS
@given(cone=small_cones())
def test_face_directions_are_centred_unit_members(cone):
    tol = 1e-8
    ineq = unit(cone.ineq_rows)
    for s, d in face_directions(cone, DIRECTION_COUNT, tol):
        assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)
        assert cone_member(cone, d, 1e-10)
        assert np.all(np.abs(unit(cone.eq_rows) @ d) <= 1e-10)
        on_face = np.isin(cone.ineq_indices, s)
        assert np.all(np.abs(ineq[on_face] @ d) <= 1e-10)
        assert np.all(ineq[~on_face] @ d < -tol / 2.0)


@CONE_SETTINGS
@given(cone=small_cones(), data=st.data())
def test_face_directions_ignore_positive_row_scales(cone, data):
    def scales(k):
        return np.array(data.draw(st.lists(st.sampled_from((0.1, 0.5, 3.0, 1e3)),
                                           min_size=k, max_size=k)))[:, None]

    scaled = LinearizedCone(
        eq_rows=cone.eq_rows * scales(len(cone.eq_rows)),
        ineq_rows=cone.ineq_rows * scales(len(cone.ineq_rows)),
        eq_indices=cone.eq_indices, ineq_indices=cone.ineq_indices,
        base_point=cone.base_point,
    )
    plain = face_directions(cone, DIRECTION_COUNT, 1e-8)
    got = face_directions(scaled, DIRECTION_COUNT, 1e-8)
    assert [s for s, _ in got] == [s for s, _ in plain]
    for (_, d), (_, e) in zip(got, plain):
        assert np.allclose(d, e, rtol=0.0, atol=1e-12)


@CONE_SETTINGS
@given(cone=small_cones(), data=st.data())
def test_face_directions_follow_a_variable_permutation(cone, data):
    order = data.draw(st.permutations(range(cone.dimension)))
    permuted = LinearizedCone(
        eq_rows=cone.eq_rows[:, order], ineq_rows=cone.ineq_rows[:, order],
        eq_indices=cone.eq_indices, ineq_indices=cone.ineq_indices,
        base_point=cone.base_point,
    )
    plain = face_directions(cone, DIRECTION_COUNT, 1e-8)
    got = face_directions(permuted, DIRECTION_COUNT, 1e-8)
    assume(len(plain) < DIRECTION_COUNT)
    assert len(got) == len(plain)
    for s, d in plain:
        assert any(t == s and np.allclose(e, d[order], rtol=0.0, atol=1e-10) for t, e in got)


def count_solves(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return nonneg_lstsq(*args, **kwargs)

    monkeypatch.setattr("cq_analyzer.cones.nonneg_lstsq", counted)
    return calls


def test_implicit_equality_pairs_close_in_one_solve_per_pair(monkeypatch):
    calls = count_solves(monkeypatch)
    n = 10
    rows = np.vstack([np.eye(n), -np.eye(n)])
    assert face_directions(make_cone([], rows.tolist()), DIRECTION_COUNT, 1e-8) == ()
    assert len(calls) <= 2 * n


def test_scaled_copies_of_one_row_bound_the_solves(monkeypatch):
    # The walk takes one row of each group of rows equal after normalization,
    # so 20 positive multiples of -x1 <= 0 cost what the one row costs.
    calls = count_solves(monkeypatch)
    assert face_list(make_cone([], [[-1.0]])) == [((), [1.0])]
    one_row = len(calls)
    calls.clear()
    rows = [[-float(k)] for k in range(1, 21)]
    assert face_list(make_cone([], rows)) == [((), [1.0])]
    assert len(calls) == one_row


def test_faces_list_every_scaled_copy_of_their_rows():
    # Rows 1 and 3 are one group, in the place of row 1: the faces are those
    # of the orthant, each x1 face naming both copies.
    one = face_list(make_cone([], [[-1.0, 0.0], [0.0, -1.0]]))
    copies = face_list(make_cone([], [[-1.0, 0.0], [0.0, -1.0], [-3.0, 0.0]]))
    widen = {(): (), (1,): (1, 3), (2,): (2,), (1, 2): (1, 2, 3)}
    assert copies == [(widen[s], d) for s, d in one]
