import numpy as np
import pytest

from cq_analyzer.model import (
    ConstraintDomainError,
    ConstraintSystem,
    active_set,
    critical_active_set,
    evaluate_point,
    evaluate_rows,
    feasibility_check,
)
from cq_analyzer.expr import DomainEvaluationError, parse


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
    assert pd.objective_value == 5.0
    assert np.array_equal(pd.objective_gradient, [1.0, 2.0])
    with pytest.raises(ValueError):
        pd.values[0] = 1.0
    with pytest.raises(ValueError):
        pd.jacobian[0, 0] = 1.0


def test_evaluate_point_domain_error_carries_index():
    sys = make(variables=("x",), eqs=["x", "1/x"])
    with pytest.raises(ConstraintDomainError) as exc:
        evaluate_point(sys, [0.0])
    assert exc.value.constraint_index == 2


def test_evaluate_point_reports_the_lowest_failed_index_then_the_objective():
    sys = make(variables=("x",), objective="log(x)", eqs=["x", "1/x", "sqrt(x - 1)"])
    with pytest.raises(ConstraintDomainError) as exc:
        evaluate_point(sys, [0.0])
    assert exc.value.constraint_index == 2
    assert str(exc.value) == "constraint 2: division by zero in '1/x'"
    sys = make(variables=("x",), objective="log(x)", eqs=["x"])
    with pytest.raises(ConstraintDomainError) as exc:
        evaluate_point(sys, [0.0])
    assert exc.value.constraint_index == 0
    assert str(exc.value).startswith("objective: logarithm of a non-positive value")


def test_evaluate_rows_keeps_zeros_and_the_error_of_each_failed_function():
    names = ["x1", "x2"]
    functions = [parse(t, names) for t in ("x1*x2", "log(x1)", "x2^2", "1/x2")]
    values, rows, errors = evaluate_rows(functions, [-1.0, 0.0])
    assert sorted(errors) == [1, 3]
    assert all(isinstance(e, DomainEvaluationError) for e in errors.values())
    assert "logarithm" in str(errors[1]) and "division by zero" in str(errors[3])
    assert np.array_equal(values, [-0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(rows, [[0.0, -1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    # Every function is evaluated, the ones after a failure included.
    for i in (0, 2):
        value, grad = functions[i].value_and_gradient([-1.0, 0.0])
        assert values[i] == value and np.array_equal(rows[i], grad)


def test_evaluate_rows_of_no_functions_and_non_domain_errors():
    values, rows, errors = evaluate_rows([], [1.0, 2.0])
    assert values.shape == (0,) and rows.shape == (0, 2) and errors == {}
    with pytest.raises(ValueError):
        evaluate_rows([parse("x1", ["x1", "x2"])], [1.0, 2.0, 3.0])


def test_active_set_selects_by_tolerance():
    sys = make(ins=["x1 - 0.5", "x2"])
    pd = evaluate_point(sys, [0.0, 0.0])  # values (-0.5, 0.0)
    aset = active_set(pd, 1e-8)
    assert aset.indices == (2,)


def test_active_set_never_includes_equalities():
    sys = make(eqs=["x1"], ins=["x2"])
    pd = evaluate_point(sys, [0.0, 0.0])
    assert active_set(pd, 1e-8).indices == (2,)


def test_active_set_empty_when_strictly_negative():
    sys = make(ins=["x1 - 1", "x2 - 2"])
    pd = evaluate_point(sys, [0.0, 0.0])
    assert active_set(pd, 1e-8).indices == ()


def test_active_set_boundary_value_within_tolerance():
    sys = make(variables=("x",), ins=["x - 1e-9"])
    pd = evaluate_point(sys, [0.0])  # value -1e-9
    assert active_set(pd, 1e-8).indices == (1,)


def test_active_set_monotone_in_tolerance():
    sys = make(ins=["x1 - 1e-6", "x2 - 1e-3"])
    pd = evaluate_point(sys, [0.0, 0.0])
    small = set(active_set(pd, 1e-7).indices)
    large = set(active_set(pd, 1e-2).indices)
    assert small <= large


def test_feasibility_x_squared_leq_zero():
    sys = make(variables=("x",), ins=["x^2"])
    pd = evaluate_point(sys, [0.0])
    assert feasibility_check(pd, 1e-12).feasible


def test_feasibility_violation_reported():
    sys = make(eqs=["x1"])
    result = feasibility_check(evaluate_point(sys, [1.0, 1.0]), 1e-12)
    assert not result.feasible
    assert result.violations == ((1, 1.0),)


def test_feasibility_circle_point():
    sys = make(eqs=["x1^2 + x2^2 - 1"])
    assert feasibility_check(evaluate_point(sys, [0.6, -0.8]), 1e-12).feasible


def test_critical_active_set_zero_direction_keeps_all():
    sys = make(ins=["x1", "x2"])
    pd = evaluate_point(sys, [0.0, 0.0])
    aset = active_set(pd, 1e-8)
    crit = critical_active_set(pd, aset, [0.0, 0.0], 1e-8)
    assert crit.critical == (1, 2)
    assert crit.j_set == (1, 2)


def test_critical_active_set_orthogonal_row():
    sys = make(ins=["x1"])
    pd = evaluate_point(sys, [0.0, 0.0])
    aset = active_set(pd, 1e-8)
    crit = critical_active_set(pd, aset, [0.0, 1.0], 1e-8)
    assert crit.critical == (1,)


def test_critical_active_set_hand_inner_products():
    # Active rows (1,0) and (1,1); d = (1,-1) gives products 1 and 0.
    sys = make(ins=["x1", "x1 + x2"])
    pd = evaluate_point(sys, [0.0, 0.0])
    aset = active_set(pd, 1e-8)
    crit = critical_active_set(pd, aset, [1.0, -1.0], 1e-8)
    assert crit.critical == (2,)


def test_critical_subset_of_active():
    sys = make(eqs=["x1 + x2"], ins=["x1", "x2", "x1 - 1"])
    pd = evaluate_point(sys, [0.0, 0.0])
    aset = active_set(pd, 1e-8)
    for d in ([1.0, 0.0], [0.0, 1.0], [1.0, -1.0], [0.3, 0.4]):
        crit = critical_active_set(pd, aset, d, 1e-8)
        assert set(crit.critical) <= set(aset.indices)
        assert set(crit.j_set) == set(pd.equality_indices) | set(crit.critical)


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
        sys = pf.to_system()
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
    assert sys.constraint(1).unparse() == "x1"
    assert sys.constraint(2).unparse() == "x2"
    assert sys.is_equality(1) and not sys.is_equality(2)
    with pytest.raises(IndexError):
        sys.constraint(3)


def test_dimension_mismatch_rejected():
    sys = make(eqs=["x1"])
    with pytest.raises(ValueError):
        evaluate_point(sys, [0.0])
