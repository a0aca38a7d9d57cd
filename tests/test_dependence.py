import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cq_analyzer.dependence import (
    FittedMap,
    ReconstructionError,
    _poly_exponents,
    classify_dependence,
    image_dimension_probe,
    reconstruct_dependent,
    witness_check,
)
from cq_analyzer.expr import Expression, parse
from cq_analyzer.rank import (
    NeighborhoodSampler,
    SampleJacobian,
    check_crc,
    numerical_rank,
    sample_jacobian,
)

TORNADO = ["x^3 * sin(1/x)", "x^3 * cos(1/x)", "x^3"]


def fns(texts, names):
    return [parse(t, names) for t in texts]


def sampler_at(center, **kw):
    return NeighborhoodSampler(center=tuple(center), **kw)


def jacobian_at(functions, center, **kw):
    return sample_jacobian(functions, sampler_at(center, **kw))


def classify(functions, center, **kw):
    return classify_dependence(jacobian_at(functions, center, **kw), 1e-8)


# ---------------------------------------------------------------------------
# classify_dependence
# ---------------------------------------------------------------------------


def test_classify_coordinate_projections_independent():
    verdict = classify(fns(["x1", "x2"], ["x1", "x2"]), [0.0, 0.0])
    assert verdict.sense == "independent"
    assert verdict.rank_k == 2 and verdict.kappa == 2
    assert not verdict.laszlo_at_point


def test_classify_affine_pair_dependent():
    verdict = classify(fns(["x1", "2*x1 + 3"], ["x1", "x2"]), [0.0, 0.0])
    assert verdict.sense == "dependent-with-relation"
    assert verdict.rank_k == 1
    assert verdict.pivot_indices == (1,)
    fitted = verdict.reconstructions[0]
    assert fitted.cross_validated_residual <= 1e-8
    for y in (-0.5, 0.0, 0.03, 0.4):
        assert fitted.predict([y]) == pytest.approx(2 * y + 3, abs=1e-8)


def test_classify_axis_squares_inconclusive():
    verdict = classify(fns(["x1^2", "x2^2"], ["x1", "x2"]), [0.0, 0.0])
    assert verdict.sense == "crc-failed-inconclusive"
    assert verdict.crc.verdict == "refuted"


def test_classify_requires_functions():
    with pytest.raises(ValueError):
        classify([], [0.0])


# ---------------------------------------------------------------------------
# reconstruct_dependent
# ---------------------------------------------------------------------------


def test_reconstruct_identity_map():
    functions = fns(["x1 + x2", "x1 + x2"], ["x1", "x2"])
    fitted = reconstruct_dependent(jacobian_at(functions, [0.0, 0.0]), (1,), 2)
    assert fitted.cross_validated_residual <= 1e-12
    assert fitted.predict([0.37]) == pytest.approx(0.37, abs=1e-10)


def test_reconstruct_square_relation_at_generic_point():
    functions = fns(["x1", "x1^2"], ["x1", "x2"])
    x0 = [1.0, 0.0]
    verdict = classify(functions, x0)
    assert verdict.sense == "dependent-with-relation"
    assert verdict.pivot_indices == (1,)
    fitted = verdict.reconstructions[0]
    assert fitted.cross_validated_residual <= 1e-9
    for y in (0.93, 1.0, 1.08):
        assert fitted.predict([y]) == pytest.approx(y**2, abs=1e-9)


def test_reconstruct_sin_composition_small_radius():
    # Cubic surrogate of sin on |y| <= ~1.4e-2; Taylor remainder |y|^5/120
    # bounds the best cubic error far below the asserted 1e-7.
    functions = fns(["x1 + x2", "sin(x1 + x2)"], ["x1", "x2"])
    jacobian = jacobian_at(functions, [0.0, 0.0], radii=(1e-2, 1e-3, 1e-4))
    fitted = reconstruct_dependent(jacobian, (1,), 2)
    assert fitted.training_radius == 1e-2
    assert fitted.cross_validated_residual <= 1e-7
    assert fitted.predict([0.01]) == pytest.approx(math.sin(0.01), abs=1e-7)


def test_reconstruct_failure_carries_residual():
    # sin over a radius-1 ball is not a cubic to 1e-6: the fit must refuse.
    functions = fns(["x1 + x2", "sin(x1 + x2)"], ["x1", "x2"])
    jacobian = jacobian_at(functions, [0.0, 0.0], radii=(1.0, 0.5))
    with pytest.raises(ReconstructionError) as exc:
        reconstruct_dependent(jacobian, (1,), 2)
    assert exc.value.residual > exc.value.bound


def numpy_scalar_predict(fitted, pivot_values):
    """``FittedMap.predict`` as it was computed in numpy float64 scalars."""
    z = np.asarray(pivot_values, dtype=float) - np.asarray(fitted.center)
    total = fitted.base_value
    with np.errstate(all="ignore"):
        for e, coef in zip(fitted.exponents, fitted.coefficients):
            term = coef
            for zj, ej in zip(z, e):
                term *= zj**ej
            total += term
    return float(total)


def fitted_map(exponents, coefficients, center=(0.0,), base_value=0.0):
    return FittedMap(
        target_index=len(center) + 1, input_indices=tuple(range(1, len(center) + 1)),
        exponents=tuple(exponents), coefficients=tuple(coefficients), center=tuple(center),
        base_value=base_value, training_radius=0.1, cross_validated_residual=0.0,
    )


def test_predict_overflow_is_the_signed_infinity_of_numpy_scalars():
    # Python's float ** int raises OverflowError where numpy gives +-inf.
    cube = fitted_map([(1,), (2,), (3,)], [1.0, 0.0, 1.0])
    square = fitted_map([(2,)], [1.0])
    assert cube.predict([1e120]) == math.inf
    assert cube.predict([-1e120]) == -math.inf
    assert square.predict([-1e160]) == math.inf
    assert math.isnan(fitted_map([(3,)], [0.0]).predict([1e120]))   # 0 * inf
    for fitted, y in ((cube, 1e120), (cube, -1e120), (square, -1e160)):
        assert fitted.predict([y]) == numpy_scalar_predict(fitted, [y])


def test_reconstruct_overflowing_held_out_value_fails_its_bound():
    # w = y + y^3 on small training values; the second sample point, which
    # is held out, has pivot value 1e120, where the cubic term overflows:
    # its error is infinite, so the fit fails its bound instead of crashing.
    y = np.linspace(-0.1, 0.1, 41)
    w = y + y**3
    y[1], w[1] = 1e120, 0.0
    values = np.column_stack([np.concatenate([[0.0], y]), np.concatenate([[0.0], w])])
    count = len(values)
    jacobian = SampleJacobian(
        radius=np.concatenate([[0.0], np.full(count - 1, 0.1)]), points=np.zeros((count, 1)),
        values=values, rows=np.zeros((count, 2, 1)), failed=np.zeros((count, 2), dtype=bool),
    )
    with pytest.raises(ReconstructionError) as exc:
        reconstruct_dependent(jacobian, (1,), 2, degree=3)
    assert exc.value.residual == math.inf


FIT_FLOATS = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from((0.0, -0.0, 1e120, -1e120, 1e-160, -1e200)),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), k=st.integers(1, 3), degree=st.integers(1, 4))
def test_predict_matches_numpy_scalars_bit_for_bit(data, k, degree):
    exponents = _poly_exponents(k, degree)
    floats = st.lists(FIT_FLOATS, min_size=k, max_size=k)
    fitted = fitted_map(
        exponents,
        data.draw(st.lists(FIT_FLOATS, min_size=len(exponents), max_size=len(exponents))),
        data.draw(floats), data.draw(FIT_FLOATS),
    )
    y = data.draw(floats)
    got, want = fitted.predict(y), numpy_scalar_predict(fitted, y)
    assert type(got) is float
    assert np.array([got]).view(np.int64) == np.array([want]).view(np.int64)


def test_reconstruct_rejects_pivot_target():
    functions = fns(["x1", "x1^2"], ["x1", "x2"])
    with pytest.raises(ValueError):
        reconstruct_dependent(jacobian_at(functions, [1.0, 0.0]), (1,), 1)


def test_reconstruction_consistency_on_fresh_samples():
    cases = [
        (["x1", "2*x1 + 3"], ["x1", "x2"], [0.0, 0.0]),
        (["x1", "x1^2"], ["x1", "x2"], [1.0, 0.0]),
        (["x1 + x2", "sin(x1 + x2)"], ["x1", "x2"], [0.0, 0.0]),
    ]
    for texts, names, x0 in cases:
        functions = fns(texts, names)
        radii = (1e-2, 1e-3, 1e-4)
        jacobian = jacobian_at(functions, x0, radii=radii, seed=42)
        fitted = reconstruct_dependent(jacobian, (1,), 2)
        fresh = sampler_at(x0, radii=radii, seed=4242)
        allowed = 10.0 * max(fitted.cross_validated_residual, 1e-14)
        for p in fresh.plan()[1][1:]:
            y = [functions[0].evaluate(p)]
            assert abs(fitted.predict(y) - functions[1].evaluate(p)) <= allowed


def test_classification_and_image_probe_evaluate_nothing(monkeypatch):
    # Some radius-0.1 points leave the domain of log; the family stays exactly
    # dependent where it evaluates, so a reconstruction runs too.
    functions = fns(["x1", "2*x1 + 0*log(x2 + 0.05)"], ["x1", "x2"])
    jacobian = jacobian_at(functions, [0.0, 0.0])
    calls = Counter()
    for method in ("evaluate", "value_and_gradient"):
        def counting(self, point, _method=method, _original=getattr(Expression, method)):
            calls[_method] += 1
            return _original(self, point)
        monkeypatch.setattr(Expression, method, counting)
    assert classify_dependence(jacobian, 1e-8).sense == "dependent-with-relation"
    assert image_dimension_probe(jacobian) == 1
    assert calls == {}


# ---------------------------------------------------------------------------
# the rank-at-a-point test (laszlo_at_point)
# ---------------------------------------------------------------------------


def laszlo_at(functions, x):
    # Small radii keep the reconstruction that classification runs on a
    # smooth rank-deficient family within its bound.
    return classify(functions, x, radii=(1e-5, 1e-6, 1e-7)).laszlo_at_point


def test_laszlo_tornado_true_at_origin():
    # All three derivatives vanish at 0 (rank 0 < 3); the two oscillating
    # rows are unevaluable there and counted as absent, reproducing rank 0.
    assert laszlo_at(fns(TORNADO, ["x"]), [0.0])


def test_laszlo_tornado_true_nearby_too():
    # Three functions of one variable: gradient rank is at most 1 < 3.
    assert laszlo_at(fns(TORNADO, ["x"]), [0.01])


def test_laszlo_coordinate_projections_false():
    functions = fns(["x1", "x2"], ["x1", "x2"])
    for x in ([0.0, 0.0], [0.3, -0.2], [5.0, 5.0]):
        assert not laszlo_at(functions, x)


def test_laszlo_cusp_true_at_zero_false_elsewhere():
    functions = fns(["t^3", "t^2"], ["t"])
    assert laszlo_at(functions, [0.0])
    assert laszlo_at(functions, [0.5])  # rank 1 < 2 away from 0 as well


# ---------------------------------------------------------------------------
# image_dimension_probe
# ---------------------------------------------------------------------------


def test_image_probe_full_rank_pair():
    functions = fns(["x1", "x2"], ["x1", "x2"])
    assert image_dimension_probe(jacobian_at(functions, [0.0, 0.0])) == 2


def test_image_probe_repeated_function():
    functions = fns(["x1", "x1"], ["x1", "x2"])
    assert image_dimension_probe(jacobian_at(functions, [0.0, 0.0])) == 1


def test_image_probe_tornado_curve():
    # The image is a curve in R^3; the center value is unevaluable at 0 so
    # the probe centers on the sample mean.
    functions = fns(TORNADO, ["x"])
    assert image_dimension_probe(jacobian_at(functions, [0.0])) == 1


# ---------------------------------------------------------------------------
# witness_check
# ---------------------------------------------------------------------------


def test_witness_cusp_relation_zero_residual():
    # y1^2 - y2^3 composed with (t^3, t^2) is t^6 - t^6 = 0 identically.
    # Note the orientation: y1^3 - y2^2 composed in listed order would give
    # t^9 - t^4, which is NOT identically zero.
    relation = parse("y1^2 - y2^3", ["y1", "y2"])
    residual = witness_check(relation, jacobian_at(fns(["t^3", "t^2"], ["t"]), [0.0]))
    assert residual <= 1e-14


def test_witness_equal_functions():
    relation = parse("y1 - y2", ["y1", "y2"])
    functions = fns(["x1 + x2", "x1 + x2"], ["x1", "x2"])
    assert witness_check(relation, jacobian_at(functions, [0.0, 0.0])) == 0.0


def test_witness_clear_failure():
    relation = parse("y1 + 1", ["y1", "y2"])
    functions = fns(["x1", "x2"], ["x1", "x2"])
    residual = witness_check(relation, jacobian_at(functions, [0.0, 0.0]))
    assert residual >= 0.9


def test_witness_skips_the_points_the_rank_check_skips():
    # log(x1) leaves its domain at the radius-0.1 points with x1 <= 0; the
    # witness check reads the plan's values and skips those points too.
    jacobian = jacobian_at(fns(["log(x1)", "2*log(x1)"], ["x1"]), [0.05])
    skipped = int(jacobian.failed[1:].any(axis=1).sum())
    assert skipped == check_crc(jacobian, 1e-8).skipped_points > 0
    assert witness_check(parse("y2 - 2*y1", ["y1", "y2"]), jacobian) == 0.0


def test_witness_arity_mismatch():
    relation = parse("y1", ["y1"])
    with pytest.raises(ValueError):
        witness_check(relation, jacobian_at(fns(["x1", "x2"], ["x1", "x2"]), [0.0, 0.0]))


# ---------------------------------------------------------------------------
# cross-cutting properties
# ---------------------------------------------------------------------------


def test_independent_implies_laszlo_false_at_point():
    cases = [
        (["x1", "x2"], ["x1", "x2"], [0.0, 0.0]),
        (["x1 + x2", "x1 - x2"], ["x1", "x2"], [0.3, 0.1]),
    ]
    for texts, names, x0 in cases:
        functions = fns(texts, names)
        verdict = classify(functions, x0)
        assert verdict.sense == "independent"
        assert not verdict.laszlo_at_point


def test_local_stability_of_dependence():
    # Dependent at x0 stays dependent at every smallest-radius sample point.
    functions = fns(["x1", "2*x1 + 3"], ["x1", "x2"])
    jacobian = jacobian_at(functions, [0.0, 0.0])
    verdict = classify_dependence(jacobian, 1e-8)
    assert verdict.sense == "dependent-with-relation"
    smallest_layer = jacobian.points[jacobian.radius == jacobian.radius[-1]]
    for p in smallest_layer:
        shifted = classify(functions, p, radii=(1e-4, 1e-5, 1e-6))
        assert shifted.sense == "dependent-with-relation"


def test_dependent_implies_laszlo_true_on_neighborhood():
    functions = fns(["x1", "2*x1 + 3"], ["x1", "x2"])
    jacobian = jacobian_at(functions, [0.0, 0.0])
    verdict = classify_dependence(jacobian, 1e-8)
    assert verdict.sense == "dependent-with-relation"
    assert verdict.laszlo_at_point
    # The point test at every sample point: the gradient rank there is below 2.
    for p in jacobian.points[1:]:
        rows = [f.gradient(p) for f in functions]
        assert numerical_rank(rows, 1e-8).rank < len(functions)
