import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cq_analyzer.model import (
    ConstraintDomainError,
    ConstraintSystem,
    active_set,
    evaluate_point,
    evaluate_rows,
    feasibility_check,
)
from cq_analyzer.config import ToolConfig
from cq_analyzer.expr import DomainEvaluationError, parse
from cq_analyzer.tangent import abadie_verdict


def make(name="sys", variables=("x1", "x2"), objective=None, eqs=(), ins=()):
    return ConstraintSystem.from_strings(name, variables, objective, eqs, ins)


def test_evaluate_point_coordinate_pair():
    sys = make(eqs=["x1", "x2"])
    pd = evaluate_point(sys, [0.0, 0.0])
    assert np.array_equal(pd.values, np.zeros(2))
    assert np.array_equal(pd.jacobian, np.eye(2))
    assert pd.equality_indices == (1, 2)


def test_evaluate_point_empty_system():
    sys = make()
    pd = evaluate_point(sys, [0.3, -0.7])
    assert pd.values.shape == (0,)
    assert pd.jacobian.shape == (0, 2)


def test_evaluate_point_square():
    sys = make(variables=("x1",), eqs=["x1^2"])
    pd = evaluate_point(sys, [3.0])
    assert pd.values[0] == 9.0
    assert pd.jacobian[0, 0] == 6.0


def test_evaluate_point_objective_and_immutability():
    sys = make(objective="x1 + 2*x2", ins=["-x1"])
    pd = evaluate_point(sys, [1.0, 2.0])
    # Only the constraints are evaluated; the objective is left to kkt_report.
    assert pd.values.tolist() == [-1.0]
    assert pd.jacobian.tolist() == [[-1.0, 0.0]]
    with pytest.raises(ValueError):
        pd.values[0] = 1.0
    with pytest.raises(ValueError):
        pd.jacobian[0, 0] = 1.0


def test_evaluate_point_domain_error_carries_index():
    sys = make(variables=("x",), eqs=["x", "1/x"])
    with pytest.raises(ConstraintDomainError) as exc:
        evaluate_point(sys, [0.0])
    assert exc.value.constraint_index == 2


def test_evaluate_point_reports_the_lowest_failed_index_and_not_the_objective():
    sys = make(variables=("x",), objective="log(x)", eqs=["x", "1/x", "sqrt(x - 1)"])
    with pytest.raises(ConstraintDomainError) as exc:
        evaluate_point(sys, [0.0])
    assert exc.value.constraint_index == 2
    assert str(exc.value) == "constraint 2: division by zero in '1/x'"
    # The objective is not evaluated here (kkt_report reports its error).
    sys = make(variables=("x",), objective="log(x)", eqs=["x"])
    assert evaluate_point(sys, [0.0]).values.tolist() == [0.0]


def test_evaluate_rows_keeps_zeros_and_the_error_of_each_failed_function():
    names = ["x1", "x2"]
    functions = [parse(t, names) for t in ("x1*x2", "log(x1)", "x2^2", "1/x2")]
    values, rows, errors = evaluate_rows(functions, np.array([[-1.0, 0.0]]))
    assert sorted(errors) == [(0, 1), (0, 3)]
    assert all(isinstance(e, DomainEvaluationError) for e in errors.values())
    assert "logarithm" in str(errors[0, 1]) and "division by zero" in str(errors[0, 3])
    assert np.array_equal(values, [[-0.0, 0.0, 0.0, 0.0]])
    assert np.array_equal(rows, [[[0.0, -1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]])
    # Every function is evaluated, the ones after a failure included.
    for i in (0, 2):
        value, grad = functions[i].value_and_gradient([-1.0, 0.0])
        assert values[0, i] == value and np.array_equal(rows[0, i], grad)


def test_evaluate_rows_of_no_functions_and_non_domain_errors():
    values, rows, errors = evaluate_rows([], np.array([[1.0, 2.0]]))
    assert values.shape == (1, 0) and rows.shape == (1, 0, 2) and errors == {}
    with pytest.raises(ValueError):
        evaluate_rows([parse("x1", ["x1", "x2"])], np.array([[1.0, 2.0, 3.0]]))


# Each leaves its domain somewhere near the origin, except the first.
BATCH_FUNCTIONS = [
    parse(text, ["x1", "x2"])
    for text in ("x1*x2 + sin(x1)", "log(x1)", "sqrt(x2 - x1)", "1/(x1 + x2)", "tan(x2)^2")
]
COORDINATES = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1.5707963267948966)),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    points=st.lists(st.tuples(COORDINATES, COORDINATES), min_size=0, max_size=10),
    subset=st.lists(st.integers(0, len(BATCH_FUNCTIONS) - 1), min_size=0, max_size=6),
)
def test_batched_evaluate_rows_matches_one_point_calls(points, subset):
    functions = [BATCH_FUNCTIONS[i] for i in subset]
    batch = np.array(points, dtype=float).reshape(len(points), 2)
    values, rows, errors = evaluate_rows(functions, batch)
    assert values.shape == (len(points), len(functions))
    assert rows.shape == (len(points), len(functions), 2)
    for p, point in enumerate(batch):
        one_values, one_rows, one_errors = evaluate_rows(functions, point[None])
        assert _bits(values[p]) == _bits(one_values[0])
        assert _bits(rows[p]) == _bits(one_rows[0])
        assert {i for (q, i) in errors if q == p} == {i for _, i in one_errors}
        for i, f in enumerate(functions):
            try:
                value, grad = f.value_and_gradient(list(point))
            except DomainEvaluationError as err:
                assert type(errors[p, i]) is type(err) and str(errors[p, i]) == str(err)
                assert str(one_errors[0, i]) == str(err)
                continue
            assert (p, i) not in errors
            assert _bits(values[p, i]) == _bits(value) and _bits(rows[p, i]) == _bits(grad)


def test_batched_evaluate_rows_reports_each_failed_pair():
    points = np.array([[1.0, 2.0], [-1.0, 1.0], [0.5, -0.5], [2.0, 1.0]])
    _, _, errors = evaluate_rows(BATCH_FUNCTIONS, points)
    assert sorted(errors) == [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2)]
    with pytest.raises(ValueError):
        evaluate_rows(BATCH_FUNCTIONS, np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        evaluate_rows(BATCH_FUNCTIONS, np.zeros(2))


def test_active_set_selects_by_tolerance():
    sys = make(ins=["x1 - 0.5", "x2"])
    pd = evaluate_point(sys, [0.0, 0.0])  # values (-0.5, 0.0)
    assert active_set(pd, 1e-8) == (2,)


def test_active_set_never_includes_equalities():
    sys = make(eqs=["x1"], ins=["x2"])
    pd = evaluate_point(sys, [0.0, 0.0])
    assert active_set(pd, 1e-8) == (2,)


def test_active_set_empty_when_strictly_negative():
    sys = make(ins=["x1 - 1", "x2 - 2"])
    pd = evaluate_point(sys, [0.0, 0.0])
    assert active_set(pd, 1e-8) == ()


def test_active_set_boundary_value_within_tolerance():
    sys = make(variables=("x",), ins=["x - 1e-9"])
    pd = evaluate_point(sys, [0.0])  # value -1e-9
    assert active_set(pd, 1e-8) == (1,)


def test_active_set_monotone_in_tolerance():
    sys = make(ins=["x1 - 1e-6", "x2 - 1e-3"])
    pd = evaluate_point(sys, [0.0, 0.0])
    small = set(active_set(pd, 1e-7))
    large = set(active_set(pd, 1e-2))
    assert small <= large


def test_feasibility_x_squared_leq_zero():
    sys = make(variables=("x",), ins=["x^2"])
    pd = evaluate_point(sys, [0.0])
    assert feasibility_check(pd, 1e-12) == ()


def test_feasibility_violation_reported():
    sys = make(eqs=["x1"])
    assert feasibility_check(evaluate_point(sys, [1.0, 1.0]), 1e-12) == ((1, 1.0),)


def test_feasibility_circle_point():
    sys = make(eqs=["x1^2 + x2^2 - 1"])
    assert feasibility_check(evaluate_point(sys, [0.6, -0.8]), 1e-12) == ()


def face_probes(sys, x0):
    """The Abadie probes at ``x0``, each checked to report J(d) = I_0 + S
    with S the active inequalities that vanish on its direction d."""
    pd = evaluate_point(sys, x0)
    active = active_set(pd, 1e-8)
    probes = abadie_verdict(sys, x0, ToolConfig(), pd).gamma_in_T_evidence
    for p in probes:
        vanishing = tuple(
            i for i in active
            if abs(pd.row(i) @ p.direction) <= 1e-12 * np.linalg.norm(pd.row(i))
        )
        assert p.critical_set == vanishing
        assert p.j_set == tuple(sorted(pd.equality_indices + p.critical_set))
    return probes


def test_face_sets_of_the_orthant():
    # The centre, both edges, then the midpoints of the centre and each edge.
    probes = face_probes(make(ins=["x1", "x2"]), [0.0, 0.0])
    assert [p.critical_set for p in probes] == [(), (1,), (2,), (), ()]
    assert [p.j_set for p in probes] == [(), (1,), (2,), (), ()]


def test_critical_active_set_of_the_lineality_space_keeps_all():
    # x1 <= 0 and -x1 <= 0 vanish on the whole cone, the line x1 = 0.
    probes = face_probes(make(ins=["x1", "-x1"]), [0.0, 0.0])
    assert [(p.critical_set, p.direction.tolist()) for p in probes] == [
        ((1, 2), [0.0, 1.0]), ((1, 2), [0.0, -1.0]),
    ]


def test_critical_active_set_orthogonal_row():
    probes = face_probes(make(ins=["x1"]), [0.0, 0.0])
    r = 1.0 / np.sqrt(2.0)
    assert [p.critical_set for p in probes] == [(), (1,), (1,), (), ()]
    assert np.allclose([p.direction for p in probes],
                       [[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [-r, r], [-r, -r]],
                       rtol=0.0, atol=1e-15)


def test_critical_active_set_hand_inner_products():
    # Active rows (1,0) and (1,1); the face of the second is spanned by
    # d = (-1,1)/sqrt(2), with products -1/sqrt(2) and 0.
    probes = face_probes(make(ins=["x1", "x1 + x2"]), [0.0, 0.0])
    on_second = [p.direction for p in probes if p.critical_set == (2,)]
    assert len(on_second) == 1
    assert np.allclose(on_second[0], np.array([-1.0, 1.0]) / np.sqrt(2.0), atol=1e-15)


def test_critical_subset_of_active():
    sys = make(variables=("x1", "x2", "x3"), eqs=["x1 + x2"], ins=["x1", "x3", "x1 - 1"])
    probes = face_probes(sys, [0.0, 0.0, 0.0])
    assert [(p.critical_set, p.j_set) for p in probes] == [
        ((), (1,)), ((2,), (1, 2)), ((3,), (1, 3)), ((), (1,)), ((), (1,)),
    ]


def test_jacobian_first_order_consistency():
    sys = make(
        objective=None,
        eqs=["x1^2 + x2^2 - 1", "sin(x1) - x2^3"],
        ins=["exp(x1) - 2"],
    )
    x = np.array([0.6, -0.8])
    pd = evaluate_point(sys, x)
    for eps in (1e-3, 1e-4, 1e-5):
        for j in range(2):
            step = np.zeros(2)
            step[j] = eps
            shifted = evaluate_point(sys, x + step)
            predicted = pd.values + eps * pd.jacobian[:, j]
            assert np.max(np.abs(shifted.values - predicted)) <= 10.0 * eps**2


def test_jacobian_first_order_consistency_on_corpus():
    from cq_analyzer.corpus import CORPUS, load_case

    for name in sorted(CORPUS):
        _, pf = load_case(name)
        sys = pf.system
        try:
            pd = evaluate_point(sys, pf.x0)
        except ConstraintDomainError:
            continue  # base point outside some constraint's domain
        for eps in (1e-3, 1e-4, 1e-5):
            for j in range(sys.dimension):
                step = np.zeros(sys.dimension)
                step[j] = eps
                shifted = evaluate_point(sys, pf.x0 + step)
                predicted = pd.values + eps * pd.jacobian[:, j]
                assert np.max(
                    np.abs(shifted.values - predicted), initial=0.0
                ) <= 10.0 * eps**2, (name, eps, j)


def test_constraint_index_lookup():
    sys = make(eqs=["x1"], ins=["x2"])
    assert sys.constraint(1).source == "x1"
    assert sys.constraint(2).source == "x2"
    with pytest.raises(IndexError):
        sys.constraint(3)


def test_dimension_mismatch_rejected():
    sys = make(eqs=["x1"])
    with pytest.raises(ValueError):
        evaluate_point(sys, [0.0])
