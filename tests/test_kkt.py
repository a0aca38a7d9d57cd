from dataclasses import replace

import numpy as np
import pytest

from cq_analyzer.analysis import run_analyses
from cq_analyzer.cones import cone_member
from cq_analyzer.config import ToolConfig
from cq_analyzer.kkt import MissingObjectiveError, kkt_report
from cq_analyzer.model import ConstraintDomainError, ConstraintSystem, active_set, evaluate_point
from cq_analyzer.tangent import abadie_verdict

CFG = ToolConfig()


def make(objective=None, eqs=(), ins=(), variables=("x1", "x2")):
    return ConstraintSystem.from_strings("sys", variables, objective, eqs, ins)


def aset_for(sys, x0, tol=1e-8):
    return active_set(evaluate_point(sys, x0), tol)


def test_multipliers_orthant_corner():
    # min x1 + x2 s.t. -x1 <= 0, -x2 <= 0 at the origin: lambda = (1, 1).
    sys = make(objective="x1 + x2", ins=["-x1", "-x2"])
    report = kkt_report(sys, [0.0, 0.0], CFG)
    lam = report.multipliers
    assert lam[1] == pytest.approx(1.0, abs=1e-9)
    assert lam[2] == pytest.approx(1.0, abs=1e-9)
    assert report.stationarity_residual <= 1e-12


def test_multipliers_duplicate_constraint_minimal_norm():
    # min x1 s.t. -x1 <= 0, -2 x1 <= 0 at 0: the multiplier polytope is
    # {l1 + 2 l2 = 1, l >= 0}; its minimal-norm element is (0.2, 0.4).
    sys = make(objective="x1", ins=["-x1", "-2*x1"], variables=("x1",))
    x0 = [0.0]
    report = kkt_report(sys, x0, CFG)
    lam = report.multipliers
    assert lam[1] == pytest.approx(0.2, abs=1e-8)
    assert lam[2] == pytest.approx(0.4, abs=1e-8)
    assert report.minimal_norm_selected
    assert report.stationarity_residual <= 1e-10


def test_multipliers_sign_obstruction_empty():
    # min x1 s.t. x1 <= 0 at 0: -grad h0 = (-1) needs lambda = -1 < 0.
    sys = make(objective="x1", ins=["x1"], variables=("x1",))
    report = kkt_report(sys, [0.0], CFG)
    assert report.multipliers is None
    assert not report.dual_feasible
    assert report.primal_value == "unbounded-below"


def test_multipliers_inactive_get_zero():
    sys = make(objective="x1 + x2", ins=["-x1", "-x2", "x1 - 5"])
    x0 = [0.0, 0.0]
    lam = kkt_report(sys, x0, CFG).multipliers
    assert lam[3] == 0.0


def test_multipliers_equality_sign_free():
    # min -x1 s.t. circle at (1, 0): -grad h0 = (1, 0) = 0.5 * (2, 0).
    sys = make(objective="-x1", eqs=["x1^2 + x2^2 - 1"])
    report = kkt_report(sys, [1.0, 0.0], CFG)
    lam = report.multipliers
    assert lam[1] == pytest.approx(0.5, abs=1e-9)
    assert not report.minimal_norm_selected


def test_missing_objective_raises():
    sys = make(eqs=["x1"])
    with pytest.raises(MissingObjectiveError):
        kkt_report(sys, [0.0, 0.0], CFG)


def test_objective_domain_error_comes_after_the_constraints():
    sys = make(variables=("x",), objective="log(x)", eqs=["x", "1/x"])
    with pytest.raises(ConstraintDomainError) as exc:
        kkt_report(sys, [0.0], CFG)
    assert exc.value.constraint_index == 2
    sys = make(variables=("x",), objective="log(x)", eqs=["x"])
    with pytest.raises(ConstraintDomainError) as exc:
        kkt_report(sys, [0.0], CFG)
    assert exc.value.constraint_index == 0
    assert str(exc.value).startswith("objective: logarithm of a non-positive value")


def test_stationarity_zero_lambda_gives_gradient_norm():
    # No constraints, so no multiplier can reduce the gradient.
    sys = make(objective="3*x1 + 4*x2")
    assert kkt_report(sys, [0.0, 0.0], CFG).stationarity_residual == pytest.approx(5.0)


def test_primal_value_zero_with_certificate():
    sys = make(objective="x1 + x2", ins=["-x1", "-x2"])
    report = kkt_report(sys, [0.0, 0.0], CFG)
    assert report.primal_value == "zero"
    assert report.multipliers[1] == pytest.approx(1.0, abs=1e-9)


def test_primal_unbounded_with_descent_certificate():
    sys = make(objective="x1", ins=["x1"], variables=("x1",))
    report = kkt_report(sys, [0.0], CFG)
    assert report.primal_value == "unbounded-below"
    assert report.descent_certificate[0] == pytest.approx(-1.0, abs=1e-9)


def test_primal_zero_objective_gradient():
    sys = make(objective="x1^2 + x2^2", eqs=["x1"])
    report = kkt_report(sys, [0.0, 0.0], CFG)
    assert report.primal_value == "zero"
    assert all(abs(v) <= 1e-10 for v in report.multipliers.values())
    # Without constraints the cone has no row: nothing to select among.
    report = kkt_report(make(objective="x1^2 + x2^2"), [0.0, 0.0], CFG)
    assert report.dual_feasible and report.primal_value == "zero"
    assert report.multipliers == {}
    assert report.minimal_norm_selected is False
    assert report.stationarity_residual == 0.0


def test_duality_equivalence_across_cases():
    cases = [
        make(objective="x1 + x2", ins=["-x1", "-x2"]),
        make(objective="x1", ins=["-x1", "-2*x1"], variables=("x1",)),
        make(objective="x1", ins=["x1"], variables=("x1",)),
        make(objective="-x1", eqs=["x1^2 + x2^2 - 1"]),
        make(objective="x1^2 + x2^2", eqs=["x1 + x2", "2*x1 + 2*x2"]),
    ]
    points = [[0.0, 0.0], [0.0], [0.0], [1.0, 0.0], [0.0, 0.0]]
    for sys, x0 in zip(cases, points):
        report = kkt_report(sys, x0, CFG)
        assert report.dual_feasible == (report.primal_value == "zero")
        assert report.dual_feasible == (report.multipliers is not None)


def test_complementarity_on_active_sets():
    sys = make(objective="x1 + x2", ins=["-x1", "-x2", "x1 - 5"])
    x0 = [0.0, 0.0]
    pd = evaluate_point(sys, x0)
    lam = kkt_report(sys, x0, CFG).multipliers
    for i in (1, 2, 3):
        assert abs(lam[i] * pd.value(i)) <= 1e-10 * (1.0 + abs(pd.value(i)))


def test_weak_duality_on_sampled_cone_directions():
    # With multipliers present, every face direction of the cone has
    # <grad h0, d> >= -tol: d = 0 is optimal for the linearized primal.
    sys = make(objective="x1 + x2", ins=["-x1", "-x2"])
    x0 = [0.0, 0.0]
    report = abadie_verdict(sys, x0, CFG)
    kkt = kkt_report(sys, x0, CFG)
    assert kkt.dual_feasible
    grad = sys.objective.gradient(x0)
    from cq_analyzer.cones import face_directions

    for _, d in face_directions(report.cone, 32, 1e-8):
        assert float(grad @ d) >= -1e-9


def test_objective_scaling_scales_multipliers():
    for c in (0.1, 1.0, 10.0):
        sys = make(objective=f"{c}*(x1 + x2)", ins=["-x1", "-x2"])
        report = kkt_report(sys, [0.0, 0.0], CFG)
        lam = report.multipliers
        assert lam[1] == pytest.approx(c, rel=1e-8)
        assert lam[2] == pytest.approx(c, rel=1e-8)
        assert report.primal_value == "zero"
    for c in (0.1, 1.0, 10.0):
        sys = make(objective=f"{c}*x1", ins=["x1"], variables=("x1",))
        assert kkt_report(sys, [0.0], CFG).primal_value == "unbounded-below"


def candidate_sections(sys, x0):
    """Sections of the RCRCQ / Abadie / KKT run at an asserted local minimum."""
    return run_analyses(
        sys, x0, replace(CFG, assert_local_min=True), ["rcrcq", "abadie", "kkt"]
    )


def test_verify_candidate_stationary_unconstrained_minimum():
    sys = make(objective="x1^2 + x2^2", eqs=["x1 + x2", "2*x1 + 2*x2"])
    sections = candidate_sections(sys, [0.0, 0.0])
    assert sections["rcrcq"]["verdict"] == "certified-by-sampling"
    assert sections["kkt"]["dual_feasible"]
    assert sections["kkt"]["contradiction"] is False
    lam = sections["kkt"]["multipliers"]
    assert all(abs(v) <= 1e-10 for v in lam.values())


def test_verify_candidate_rank_refuted_no_contradiction():
    # min x1 over {x1^2 <= 0} = {0}: x0 = 0 is the (unique) minimizer, the
    # constant-rank hypothesis fails, and no multipliers exist; with the
    # hypothesis unmet this is not a contradiction.
    sys = make(objective="x1", ins=["x1^2"], variables=("x1",))
    sections = candidate_sections(sys, [0.0])
    assert sections["rcrcq"]["verdict"] == "refuted"
    assert sections["kkt"]["multipliers"] is None
    assert sections["kkt"]["contradiction"] is False
    assert any("refuted" in n for n in sections["kkt"]["notes"])


def test_verify_candidate_licq_all_positive():
    sys = make(objective="-x1", eqs=["x1^2 + x2^2 - 1"])
    sections = candidate_sections(sys, [1.0, 0.0])
    assert sections["rcrcq"]["verdict"] == "certified-by-sampling"
    assert sections["abadie"]["verdict"] == "consistent"
    assert sections["kkt"]["dual_feasible"]
    assert sections["kkt"]["contradiction"] is False


def test_verify_candidate_sign_obstruction_is_contradiction():
    # min x1 over {x1 <= 0}: RCRCQ holds and no multipliers exist, so the
    # asserted minimum is contradicted; without the assertion it is not.
    sys = make(objective="x1", ins=["x1"], variables=("x1",))
    sections = candidate_sections(sys, [0.0])
    assert sections["rcrcq"]["verdict"] == "certified-by-sampling"
    assert sections["kkt"]["contradiction"] is True
    assert len(sections["kkt"]["notes"]) == 1
    plain = run_analyses(sys, [0.0], CFG, ["rcrcq", "kkt"])
    assert plain["kkt"]["contradiction"] is False
    assert plain["kkt"]["notes"] == []


def test_kkt_section_alone_has_no_candidate_check():
    sys = make(objective="x1", ins=["x1"], variables=("x1",))
    assert "contradiction" not in run_analyses(sys, [0.0], CFG, ["kkt"])["kkt"]


def test_descent_certificate_is_cone_member():
    sys = make(objective="x1 + 0.5*x2", ins=["x1"], variables=("x1", "x2"))
    x0 = [0.0, 0.0]
    report = kkt_report(sys, x0, CFG)
    assert report.primal_value == "unbounded-below"
    d = np.array(report.descent_certificate)
    pd = evaluate_point(sys, x0)
    from cq_analyzer.cones import build_linearized_cone

    cone = build_linearized_cone(pd, aset_for(sys, x0))
    assert cone_member(cone, d, 1e-8)
    assert float(sys.objective.gradient(x0) @ d) < 0.0


def test_failed_descent_certificate_is_an_error_section(monkeypatch, capsys):
    # A certificate that fails its own verification used to escape
    # run_analyses as a bare RuntimeError and end the CLI in a traceback.
    from cq_analyzer import kkt
    from cq_analyzer.analysis import exit_code_for
    from cq_analyzer.cli import main
    from cq_analyzer.corpus import corpus_path
    from cq_analyzer.problem import load_problem_file

    monkeypatch.setattr(kkt, "cone_member", lambda cone, d, tol: False)
    path = str(corpus_path("sign-obstructed.json"))
    pf = load_problem_file(path)
    with pytest.raises(kkt.CertificateVerificationError):
        kkt_report(pf.system, pf.x0, CFG)
    sections = run_analyses(pf.system, pf.x0, CFG, ["kkt"])
    assert sections["kkt"]["error_kind"] == "CertificateVerificationError"
    assert "descent certificate failed verification" in sections["kkt"]["error"]
    assert exit_code_for(sections) == 2
    assert main(["multipliers", path]) == 2
    assert "kkt=error" in capsys.readouterr().out


def test_dual_infeasible_report_solves_the_cone_problem_once(monkeypatch):
    # On sign-obstructed the dual cone excludes -grad h0: the membership
    # solve and the residual direction used to be two nonneg_lstsq solves,
    # plus a rank for a minimal-norm flag this branch never reads.
    from cq_analyzer import cones, kkt
    from cq_analyzer.corpus import load_case

    counts = {"nonneg_lstsq": 0, "_ranks": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(cones, "nonneg_lstsq")
    counted(kkt, "_ranks")
    _, pf = load_case("sign-obstructed")
    report = kkt_report(pf.system, pf.x0, CFG)
    assert not report.dual_feasible and report.descent_certificate is not None
    assert counts == {"nonneg_lstsq": 1, "_ranks": 0}
    # The counter does see the rank the dual-feasible branch takes.
    _, pf = load_case("duplicate-bounds")
    assert kkt_report(pf.system, pf.x0, CFG).minimal_norm_selected
    assert counts["_ranks"] == 1
