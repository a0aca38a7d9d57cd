import math
from collections import Counter

import numpy as np
import pytest
from one_point_oracle import (
    correct_equalities,
    estimate_memberships,
    feasible_at_scale,
    ljusternik_correct,
    tangent_direction_estimate,
)

from cq_analyzer import tangent
from cq_analyzer.analysis import _render
from cq_analyzer.cones import build_linearized_cone, face_directions
from cq_analyzer.config import DIRECTION_COUNT, ToolConfig
from cq_analyzer.expr import Expression
from cq_analyzer.model import ConstraintSystem, active_set, evaluate_point
from cq_analyzer.rank import check_rcrcq, sample_jacobian
from cq_analyzer.tangent import (
    InfeasibleBasePointError,
    _correct_lockstep,
    _probe_directions,
    abadie_verdict,
)

CFG = ToolConfig()


def make(eqs=(), ins=(), variables=("x1", "x2"), objective=None):
    return ConstraintSystem.from_strings("sys", variables, objective, eqs, ins)


def rcrcq_verdict(sys, x0):
    active = active_set(evaluate_point(sys, x0), CFG.tol_active)
    rows = [sys.constraint(i) for i in sys.equality_indices + active]
    jacobian = sample_jacobian(rows, x0, CFG)
    return check_rcrcq(sys, active, jacobian, CFG.tol_rank).verdict


def probe_one(sys, x0, d, cfg=CFG):
    """The probe of ``d`` at ``x0``, which must be one of the cone's face
    directions."""
    pd = evaluate_point(sys, x0)
    cone = build_linearized_cone(pd, active_set(pd, cfg.tol_active))
    faces = face_directions(cone, DIRECTION_COUNT, cfg.tol_cone)
    face = next(s for s, e in faces if np.allclose(e, d, rtol=0.0, atol=1e-12))
    return _probe_directions(sys, pd, [(face, np.asarray(d, dtype=float))], cfg)[0]


# ---------------------------------------------------------------------------
# the corrector
# ---------------------------------------------------------------------------


def test_correct_linear_equality_kernel_direction():
    sys = make(eqs=["x1 + 2*x2"])
    d = np.array([2.0, -1.0]) / np.sqrt(5.0)
    for t in (1e-1, 1e-3, 1e-5):
        result = _correct_lockstep(sys, [0.0, 0.0], (t,), [((1,), d)], CFG)[0][0]
        assert result.converged
        assert np.linalg.norm(result.r) <= 1e-14


def test_correct_circle_matches_closed_form():
    # Nearest circle point to (1, t) is (1, t)/sqrt(1+t^2), so
    # ||r(t)|| = sqrt(1+t^2) - 1 ~ t^2/2.
    sys = make(eqs=["x1^2 + x2^2 - 1"])
    t = 1e-2
    result = _correct_lockstep(sys, [1.0, 0.0], (t,), [((1,), [0.0, 1.0])], CFG)[0][0]
    assert result.converged
    expected = math.sqrt(1.0 + t * t) - 1.0
    assert np.linalg.norm(result.r) == pytest.approx(expected, rel=1e-6)
    assert np.linalg.norm(result.r) == pytest.approx(t * t / 2.0, rel=0.2)


def test_correct_parallel_rows_pivot_already_satisfied():
    sys = make(eqs=["x1", "2*x1"])
    result = _correct_lockstep(sys, [0.0, 0.0], (1e-2,), [((1, 2), [0.0, 1.0])], CFG)[0][0]
    assert result.converged
    assert result.iterations == 0
    assert np.linalg.norm(result.r) == 0.0


def test_correct_pivots_on_the_row_the_rank_keeps():
    # J = {1e-20*x1, x2} has rank 1; a pivot on the 1e-20 row would stall
    # the Gauss-Newton steps, the row x2 settles x2 = 0 in one.
    sys = make(eqs=["1e-20*x1", "x2"])
    result = _correct_lockstep(sys, [0.0, 0.0], (0.1,), [((1, 2), [0.0, 1.0])], CFG)[0][0]
    assert result.converged
    assert result.iterations == 1
    assert result.final_residual == 0.0


def test_correct_empty_j_set():
    sys = make(ins=["-x1"])
    result = _correct_lockstep(sys, [0.0, 0.0], (1e-2,), [((), [1.0, 0.0])], CFG)[0][0]
    assert result.converged and np.linalg.norm(result.r) == 0.0


def test_corrector_evaluates_each_iterate_once(gradient_calls):
    # Sphere and a curved surface through (1, 0, 0), both pivot rows; d is
    # tangent to both, and t = 0.1 takes several Gauss-Newton steps.
    sys = make(eqs=["x1^2 + x2^2 + x3^2 - 1", "x3 - x1*x2"], variables=("x1", "x2", "x3"))
    d = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    result = _correct_lockstep(sys, [1.0, 0.0, 0.0], (0.1,), [((1, 2), d)], CFG)[0][0]
    assert result.converged and result.iterations >= 2
    # Once at x0 + t*d, which selects the pivots and is the cold start's
    # first iterate r = 0, then once per later iterate up to the converged
    # one: the pivot rows are slices.
    per_expression = Counter()
    for (source, _), n in gradient_calls.items():
        per_expression[source] += n
    assert per_expression == {f.source: result.iterations + 1 for f in sys.equalities}


def test_one_group_iterates_over_the_whole_schedule_at_once(monkeypatch):
    # On the circle, J = (1,) has one pivot row at every t, so the five
    # corrections are one group: one evaluation of the base points, then
    # one per Gauss-Newton step of the slowest t, not one per step and t.
    sys = make(eqs=["x1^2 + x2^2 - 1"])
    calls = []
    evaluate_rows = tangent.evaluate_rows

    def evaluating(functions, points):
        calls.append(len(points))
        return evaluate_rows(functions, points)

    monkeypatch.setattr(tangent, "evaluate_rows", evaluating)
    assert len(CFG.t_schedule) == 5
    per_t = _correct_lockstep(sys, [1.0, 0.0], CFG.t_schedule, [((1,), [0.0, 1.0])], CFG)
    iterations = [at_t[0].iterations for at_t in per_t]
    assert all(at_t[0].converged for at_t in per_t)
    assert sum(iterations) > max(iterations)
    assert len(calls) == 1 + max(iterations) and calls[0] == 5


def test_cold_start_reads_the_base_evaluation_at_base_plus_zero(gradient_calls):
    # A -0.0 coordinate of x0 + t*d turns into +0.0 in every iterate
    # x0 + t*d + r, the first one r = 0 included, so the base point is
    # evaluated once, as x0 + t*d + 0, and the cold start reads that
    # evaluation; its result is the one-direction corrector's.
    sys = make(eqs=["x1^2 + x2^2 + x3^2 - 1", "x3 - x1*x2"],
               variables=("x1", "x2", "x3", "x4"))
    x0 = np.array([1.0, 0.0, 0.0, -0.0])
    d = np.array([0.0, 1.0, 1.0, -0.0]) / np.sqrt(2.0)
    result = _correct_lockstep(sys, x0, (0.1,), [((1, 2), d)], CFG)[0][0]
    assert result.converged and result.iterations >= 2
    base = x0 + 0.1 * d
    assert np.signbit(base[3]) and not np.signbit((base + 0.0)[3])
    for f in sys.equalities:
        assert gradient_calls[f.source, base.tobytes()] == 0
        assert gradient_calls[f.source, (base + 0.0).tobytes()] == 1
    expected = ljusternik_correct(sys, (1, 2), x0, d, 0.1, CFG)
    assert result.r.tobytes() == expected.r.tobytes()
    assert (result.iterations, result.final_residual) == (expected.iterations,
                                                          expected.final_residual)


def test_probes_evaluate_and_rank_the_base_points_once_per_critical_set(monkeypatch):
    # On the sphere with x3 >= 0 at (1, 0, 0) the face walk gives directions
    # with J = (1,) and with J = (1, 2).  The base points x0 + t*d of each J,
    # over the whole schedule, are one evaluate_rows call and one stacked
    # numerical_rank.
    sys = make(eqs=["x1^2 + x2^2 + x3^2 - 1"], ins=["-x3"], variables=("x1", "x2", "x3"))
    pd = evaluate_point(sys, [1.0, 0.0, 0.0])
    cone = build_linearized_cone(pd, active_set(pd, CFG.tol_active))
    faces = face_directions(cone, DIRECTION_COUNT, CFG.tol_cone)
    bases: dict = {}                       # J -> base points over the schedule
    for t in CFG.t_schedule:
        for s, d in faces:
            bases.setdefault((1,) + s, []).append(pd.point + t * d)
    assert set(bases) == {(1,), (1, 2)}
    evaluated, ranked = [], []
    evaluate_rows, numerical_rank = tangent.evaluate_rows, tangent.numerical_rank

    def evaluating(functions, points):
        evaluated.append((functions, np.array(points)))
        return evaluate_rows(functions, points)

    def ranking(rows, tol_rank):
        ranked.append(rows.shape)
        return numerical_rank(rows, tol_rank)

    monkeypatch.setattr(tangent, "evaluate_rows", evaluating)
    monkeypatch.setattr(tangent, "numerical_rank", ranking)
    batched = _probe_directions(sys, pd, faces, CFG)
    for j, points in bases.items():
        # The first call per J evaluates the base points; the later ones are
        # Gauss-Newton steps over the whole schedule, at other points.
        calls = [p for f, p in evaluated if f == [sys.constraint(i) for i in j]]
        assert np.array_equal(calls[0], points)
        assert not any(np.array_equal(p, points) for p in calls[1:])
    assert sorted(ranked) == sorted((len(p), len(j), 3) for j, p in bases.items())
    monkeypatch.undo()
    alone = [_probe_directions(sys, pd, [face], CFG)[0] for face in faces]
    assert _render(batched) == _render(alone)


def test_equality_projection_evaluates_each_iterate_once(gradient_calls):
    # The estimator oracle's projection on two parallel rows: only the pivot
    # row steps; every (row, point) pair is evaluated at most once, the
    # starting point included.
    sys = make(eqs=["x1^2 + x2^2 - 1", "2*x1^2 + 2*x2^2 - 2"])
    x = correct_equalities(sys, (1, 2), np.array([1.05, 0.02]), 1e-14, CFG)
    assert x is not None
    assert abs(x[0] ** 2 + x[1] ** 2 - 1.0) <= 1e-14
    assert max(gradient_calls.values()) == 1
    steps = sum(1 for source, _ in gradient_calls if source == sys.equalities[0].source) - 1
    assert steps >= 2


def test_correct_requires_positive_t():
    # abadie_verdict, the corrector's caller, checks the schedule.
    sys = make(eqs=["x1"])
    with pytest.raises(ValueError, match="positive"):
        abadie_verdict(sys, [0.0, 0.0], ToolConfig(t_schedule=(0.1, 0.01, 0.0)))


# ---------------------------------------------------------------------------
# the cone-direction probe
# ---------------------------------------------------------------------------


def test_probe_unconstrained_passes_trivially():
    sys = make()
    x0 = [0.3, -0.4]
    probe = probe_one(sys, x0, [1.0, 0.0])
    assert probe.passed
    assert probe.j_set == ()
    assert all(r == 0.0 for r in probe.trace.r_norms)


def test_probe_parallel_equalities_exact_kernel():
    sys = make(eqs=["x1 + x2", "2*x1 + 2*x2"])
    x0 = [0.0, 0.0]
    d = np.array([1.0, -1.0]) / np.sqrt(2.0)
    probe = probe_one(sys, x0, d)
    assert probe.passed
    assert all(probe.trace.converged)
    assert all(ratio <= 1e-12 for ratio in probe.trace.ratio)


def test_probe_circle_decay_slope_near_two():
    sys = make(eqs=["x1^2 + x2^2 - 1"])
    x0 = [1.0, 0.0]
    probe = probe_one(sys, x0, [0.0, 1.0], ToolConfig(t_schedule=(1e-1, 1e-2, 1e-3, 1e-4)))
    assert probe.passed
    assert probe.trace.decay_slope is not None
    assert probe.trace.decay_slope >= 1.8


def test_probe_circle_r_norms_match_closed_form():
    sys = make(eqs=["x1^2 + x2^2 - 1"])
    x0 = [1.0, 0.0]
    probe = probe_one(sys, x0, [0.0, 1.0])
    for t, rn in zip(probe.trace.t_values, probe.trace.r_norms):
        expected = math.sqrt(1.0 + t * t) - 1.0
        assert rn == pytest.approx(expected, rel=1e-3)


def test_probe_x_squared_hard_failure():
    # Gamma = R but F = {0}: the correction collapses back onto the origin,
    # leaving ||r||/t near 1 at every t.
    sys = make(ins=["x^2"], variables=("x",))
    x0 = [0.0]
    probe = probe_one(sys, x0, [1.0])
    assert not probe.passed
    assert probe.hard_fail
    assert probe.j_set == (1,)
    final_ratio = probe.trace.ratio[-1]
    assert final_ratio is not None and final_ratio >= 0.5


def test_probe_inactive_constraints_stay_strictly_negative():
    sys = make(ins=["-x1", "-2*x1"], variables=("x1",))
    x0 = [0.0]
    probe = probe_one(sys, x0, [1.0])
    assert probe.passed
    assert probe.critical_set == ()
    assert all(ok for ok in probe.inactive_ok)
    assert probe.inactive_eps0 == max(CFG.t_schedule)


def test_probe_inactive_domain_error_counts_as_unsafe():
    # log(x1 + 0.05) is undefined at the corrected point for t = 0.1 only.
    sys = make(ins=["x1", "log(x1 + 0.05) - 10"], variables=("x1",))
    x0 = [0.0]
    probe = probe_one(sys, x0, [-1.0])
    assert probe.inactive_ok == (False, True, True, True, True)
    assert probe.passed


def test_probe_inactive_check_propagates_non_domain_errors(monkeypatch):
    sys = make(ins=["-x1", "x1 - 1"], variables=("x1",))
    x0 = [0.0]
    pd = evaluate_point(sys, x0)

    def broken(self, grad):
        def code(point):
            raise ValueError("point has the wrong dimension")
        return code

    # J(d) is empty, so the inactive check is the only evaluation left.
    monkeypatch.setattr(Expression, "_compiled", broken)
    with pytest.raises(ValueError, match="wrong dimension"):
        _probe_directions(sys, pd, [((), np.array([1.0]))], CFG)


def test_probe_without_inactive_inequalities_fails_on_an_unconverged_tail(monkeypatch):
    # With no inactive inequality every converged point is safe, so the
    # unconverged small-t tail alone decides the probe.
    sys = make(eqs=["x1"])
    pd = evaluate_point(sys, [0.0, 0.0])

    def correct(sys, x0, t_schedule, jobs, cfg):
        return [[tangent.CorrectionResult(r=np.zeros(2), converged=t > 1e-3, iterations=1,
                                          initial_residual=1.0, final_residual=0.5)]
                for t in t_schedule]

    monkeypatch.setattr(tangent, "_correct_lockstep", correct)
    probe = _probe_directions(sys, pd, [((), np.array([0.0, 1.0]))], CFG)[0]
    assert probe.inactive_ok == (True, True, None, None, None)
    assert not probe.passed and not probe.hard_fail
    assert probe.fail_reason == "corrector did not converge on the small-t tail"


def test_feasible_at_scale_propagates_non_domain_errors():
    # In the estimator oracle's filter a domain error marks the point
    # infeasible; a wrong-dimension point is a programming error and must
    # surface.
    sys = make(ins=["log(x1)"])
    assert not feasible_at_scale(sys, (1,), np.array([-1.0, 0.0]), 0.1, 1e-8)
    with pytest.raises(ValueError):
        feasible_at_scale(sys, (1,), np.zeros(3), 0.1, 1e-8)


def test_probe_ljusternik_bound_shape_on_circle():
    # On the full-rank equality problem the correction obeys
    # ||r(t)|| <= K ||h(x0 + t d)|| with K stable across t (within 50%).
    sys = make(eqs=["x1^2 + x2^2 - 1"])
    x0 = np.array([1.0, 0.0])
    d = np.array([0.0, 1.0])
    probe = probe_one(sys, x0, d)
    ks = []
    for t, rn in zip(probe.trace.t_values, probe.trace.r_norms):
        h = abs(sys.constraint(1).evaluate(x0 + t * d))
        ks.append(rn / h)
    k_mid = sorted(ks)[len(ks) // 2]
    assert all(0.5 * k_mid <= k <= 1.5 * k_mid for k in ks)


# ---------------------------------------------------------------------------
# tangent_direction_estimate (the test oracle; T within Gamma is a theorem,
# so the Abadie check no longer samples it)
# ---------------------------------------------------------------------------


def test_estimate_isolated_point_is_empty():
    sys = make(ins=["x^2"], variables=("x",))
    est = tangent_direction_estimate(sys, [0.0], 32, CFG.radii, seed=44, cfg=CFG)
    assert est.directions == ()
    assert est.trivial


def test_estimate_line_gives_both_axis_directions():
    sys = make(eqs=["x1"])
    est = tangent_direction_estimate(sys, [0.0, 0.0], 32, CFG.radii, seed=44, cfg=CFG)
    assert len(est.directions) == 2
    signs = sorted(float(d[1]) for d in est.directions)
    assert signs[0] == pytest.approx(-1.0, abs=1e-8)
    assert signs[1] == pytest.approx(1.0, abs=1e-8)
    for d in est.directions:
        assert abs(d[0]) <= 1e-8


def test_estimate_circle_gives_tangent_line():
    sys = make(eqs=["x1^2 + x2^2 - 1"])
    est = tangent_direction_estimate(sys, [1.0, 0.0], 32, CFG.radii, seed=44, cfg=CFG)
    assert len(est.directions) == 2
    for d in est.directions:
        assert abs(d[1]) == pytest.approx(1.0, abs=1e-4)
        assert abs(d[0]) <= 1e-4


def test_estimate_halfline():
    sys = make(ins=["-x1", "-2*x1"], variables=("x1",))
    est = tangent_direction_estimate(sys, [0.0], 32, CFG.radii, seed=44, cfg=CFG)
    assert len(est.directions) == 1
    assert est.directions[0][0] == pytest.approx(1.0)


def test_estimate_origin_only_equalities():
    sys = make(eqs=["x1", "x2"])
    est = tangent_direction_estimate(sys, [0.0, 0.0], 32, CFG.radii, seed=44, cfg=CFG)
    assert est.trivial


def test_estimate_deterministic():
    sys = make(eqs=["x1^2 + x2^2 - 1"])
    a = tangent_direction_estimate(sys, [1.0, 0.0], 16, CFG.radii, seed=9, cfg=CFG)
    b = tangent_direction_estimate(sys, [1.0, 0.0], 16, CFG.radii, seed=9, cfg=CFG)
    assert len(a.directions) == len(b.directions)
    for p, q in zip(a.directions, b.directions):
        assert np.array_equal(p, q)


# ---------------------------------------------------------------------------
# abadie_verdict
# ---------------------------------------------------------------------------


def test_abadie_x_squared_violated_with_witness():
    sys = make(ins=["x^2"], variables=("x",))
    report = abadie_verdict(sys, [0.0], CFG)
    assert report.verdict == "violated"
    # Gamma = R: the single inequality row is identically zero.
    assert report.cone.ineq_rows.shape == (1, 1)
    assert report.cone.ineq_rows[0, 0] == 0.0
    assert report.witness is not None
    assert report.witness["kind"] == "cone-direction-not-tangent"
    assert rcrcq_verdict(sys, [0.0]) == "refuted"


def test_abadie_parallel_equalities_consistent():
    sys = make(eqs=["x1 + x2", "2*x1 + 2*x2"])
    report = abadie_verdict(sys, [0.0, 0.0], CFG)
    assert report.verdict == "consistent"
    assert rcrcq_verdict(sys, [0.0, 0.0]) == "certified-by-sampling"
    assert all(p.passed for p in report.gamma_in_T_evidence)
    assert all(member for _, member, _ in estimate_memberships(sys, [0.0, 0.0], CFG))


def test_abadie_unconstrained_consistent():
    sys = make()
    report = abadie_verdict(sys, [0.7, -0.1], CFG)
    assert report.verdict == "consistent"


def test_abadie_trivial_cone_consistent():
    # Gamma = {0} = T for the origin cut out by both coordinates.
    sys = make(eqs=["x1", "x2"])
    report = abadie_verdict(sys, [0.0, 0.0], CFG)
    assert report.verdict == "consistent"
    assert report.trivial_cone
    assert report.gamma_in_T_evidence == ()


def test_abadie_skips_probe_points_outside_the_domain():
    # log(x1) - x2 = 0 near x1 = 0.05: probes with t = 0.1 along -x1 leave
    # the domain of log, which must skip them, not fail the whole section.
    sys = make(eqs=["log(x1) - x2"])
    x0 = [0.05, math.log(0.05)]
    result = _correct_lockstep(sys, x0, (0.1,), [([1], [-1.0, 0.0])], CFG)[0][0]
    assert not result.converged
    assert abadie_verdict(sys, x0, CFG).verdict == "consistent"


def test_probe_rejects_a_schedule_shorter_than_its_tail():
    # The probe judges the T_SCHEDULE_TAIL smallest t, as the option table
    # requires of a t_schedule; a library ToolConfig is not checked there.
    sys = make(ins=["x1^2 + x2^2 - 1", "-x2"])
    with pytest.raises(ValueError, match="at least 3 values"):
        abadie_verdict(sys, [1.0, 0.0], ToolConfig(t_schedule=(0.1,)))


def test_probe_rejects_repeated_t():
    # A library ToolConfig is not checked by the option table.
    cfg = ToolConfig(t_schedule=(0.1, 0.01, 0.01, 0.001))
    with pytest.raises(ValueError, match="strictly descending"):
        abadie_verdict(make(), [0.3, -0.4], cfg)


def test_abadie_builds_the_linearized_cone_once(monkeypatch):
    # The probes read the cone the verdict has built; they build none.
    calls = []

    def counting(pd, active):
        calls.append(active)
        return build_linearized_cone(pd, active)

    monkeypatch.setattr(tangent, "build_linearized_cone", counting)
    report = abadie_verdict(make(objective="x1 + x2", ins=["x1^2 + x2^2 - 1", "-x2"]),
                            [1.0, 0.0], CFG)
    assert report.gamma_in_T_evidence and calls == [(1, 2)]


def test_abadie_infeasible_point_rejected():
    sys = make(eqs=["x1"])
    with pytest.raises(InfeasibleBasePointError):
        abadie_verdict(sys, [1.0, 0.0], CFG)


def test_abadie_halfdisk_corner_consistent():
    # LICQ corner of the half-disk: a near-boundary cone direction violates
    # the inactive circle constraint at the coarsest t but re-enters for
    # small t; the safety requirement is asymptotic, so the probe must pass.
    sys = make(objective="x1 + x2", ins=["x1^2 + x2^2 - 1", "-x2"])
    report = abadie_verdict(sys, [1.0, 0.0], CFG)
    assert report.verdict == "consistent"
    assert rcrcq_verdict(sys, [1.0, 0.0]) == "certified-by-sampling"
    assert all(p.passed for p in report.gamma_in_T_evidence)


def test_abadie_squared_redundant_equality_consistent():
    # h2 = (x1 + x2)^2 duplicates h1 = x1 + x2 with a vanishing gradient on
    # the feasible line; the family still has constant rank 1.
    sys = make(eqs=["x1 + x2", "x1^2 + 2*x1*x2 + x2^2"])
    report = abadie_verdict(sys, [0.0, 0.0], CFG)
    assert rcrcq_verdict(sys, [0.0, 0.0]) == "certified-by-sampling"
    assert report.verdict == "consistent"


def test_abadie_parabola_line_tangency_violated():
    # {x2 = 0, x1^2 - x2 <= 0} = {0}, yet Gamma is the whole x1-axis.
    sys = make(eqs=["x2"], ins=["x1^2 - x2"])
    report = abadie_verdict(sys, [0.0, 0.0], CFG)
    assert rcrcq_verdict(sys, [0.0, 0.0]) == "refuted"
    assert report.verdict == "violated"
    assert report.witness["kind"] == "cone-direction-not-tangent"


@pytest.mark.parametrize("eqs, ins, verdict", [
    (["x1*x2"], [], "violated"),
    ([], ["x1*x2"], "violated"),
    (["x1*x2*(x1 - x2)"], ["-x1", "-x2"], "inconclusive"),
])
def test_abadie_sees_a_tangent_cone_through_every_face_centre(eqs, ins, verdict):
    # Gamma is the plane (the orthant), T is the two axes (both edges and the
    # diagonal): T holds the centre of every face and every axis direction,
    # but not the midpoints between them.  On the cubic the corrector stalls
    # short of a hard failure.
    report = abadie_verdict(make(eqs=eqs, ins=ins), [0.0, 0.0], CFG)
    assert report.verdict == verdict
    assert rcrcq_verdict(make(eqs=eqs, ins=ins), [0.0, 0.0]) == "refuted"


def test_abadie_t_subset_gamma_even_when_rcrcq_fails():
    # T is always contained in Gamma: no tangent estimate may fail cone
    # membership, including on constant-rank failures.
    for sys, x0 in [
        (make(ins=["x^2"], variables=("x",)), [0.0]),
        (make(eqs=["x1^2", "x2^2"]), [0.0, 0.0]),
        (make(eqs=["t^3", "t^2"], variables=("t",)), [0.0]),
    ]:
        assert all(not hard for _, _, hard in estimate_memberships(sys, x0, CFG))
