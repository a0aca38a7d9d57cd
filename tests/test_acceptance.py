"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import time

import numpy as np
from conftest import random_domain_points
from finite_diff import finite_diff_gradient
from one_point_oracle import ESTIMATE_PROBES, estimate_memberships, tangent_direction_estimate

from cq_analyzer.cli import main as cli_main
from cq_analyzer.config import ToolConfig
from cq_analyzer.corpus import CORPUS, load_case
from cq_analyzer.dependence import classify_dependence, reconstruct_dependent, witness_check
from cq_analyzer.expr import parse
from cq_analyzer.kkt import kkt_report
from cq_analyzer.model import active_set, evaluate_point
from cq_analyzer.cones import build_linearized_cone, cone_member
from cq_analyzer.rank import NeighborhoodSampler, check_rcrcq, sample_jacobian
from cq_analyzer.tangent import _probe_directions, abadie_verdict

CFG = ToolConfig()

CERTIFIED_CASES = (
    "coordinate-projections",
    "parallel-equalities",
    "circle-point",
    "duplicate-bounds",
    "sign-obstructed",
)


def _report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {status} - {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


def _jacobian(system, x0):
    return sample_jacobian(list(system.all_constraints), CFG.sampler(x0))


def _all_corpus_systems():
    for name in sorted(CORPUS):
        case, pf = load_case(name)
        yield name, case, pf, pf.system


def test_criterion_1_ad_matches_finite_differences():
    """AD vs central differences over the corpus: rel error <= 1e-6, < 5 s."""
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for name, _, pf, system in _all_corpus_systems():
        expressions = list(system.all_constraints)
        if system.objective is not None:
            expressions.append(system.objective)
        for e_idx, e in enumerate(expressions):
            for x in random_domain_points(e, 100, seed=910_000 + hash(name) % 1000 + e_idx):
                g = e.gradient(x)
                fd = finite_diff_gradient(e, x, 1e-6)
                rel = float(np.max(np.abs(g - fd))) / (1.0 + float(np.max(np.abs(g))))
                worst = max(worst, rel)
                checked += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "AD gradient matches finite differences within 1e-6 on the corpus",
        worst <= 1e-6 and elapsed < 5.0,
        f"{checked} points, worst rel {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_rank_verdicts_match_hand_ranks():
    """CRC/RCRCQ verdicts match the hand-computed ranks on all nine cases."""
    expectations = {
        # name -> (rcrcq verdict or None, {J: rank at center})
        "coordinate-projections": ("certified-by-sampling", {(1, 2): 2}),
        "axis-squares": ("refuted", {(1, 2): 0}),
        "cusp-powers": ("refuted", {(1, 2): 0}),
        "x-squared-leq-zero": ("refuted", {(): 0, (1,): 0}),
        "parallel-equalities": ("certified-by-sampling", {(1, 2): 1}),
        "circle-point": ("certified-by-sampling", {(1,): 1}),
        "duplicate-bounds": (
            "certified-by-sampling",
            {(): 0, (1,): 1, (2,): 1, (1, 2): 1},
        ),
        "sign-obstructed": ("certified-by-sampling", {(): 0, (1,): 1}),
    }
    failures = []
    for name, (verdict, ranks) in expectations.items():
        _, pf = load_case(name)
        system = pf.system
        pd = evaluate_point(system, pf.x0)
        report = check_rcrcq(
            system, active_set(pd, CFG.tol_active), _jacobian(system, pf.x0), CFG.tol_rank
        )
        if report.verdict != verdict:
            failures.append(f"{name}: verdict {report.verdict} != {verdict}")
        base = dict(report.base_ranks)
        for j, expected_rank in ranks.items():
            if base.get(j) != expected_rank:
                failures.append(f"{name}: rank(J={j}) {base.get(j)} != {expected_rank}")
    # The spiral curve: the gradient family is rank-deficient at 0
    # (hand rank 0 < 3), which the point test must report as dependent.
    _, pf = load_case("tornado-curve")
    system = pf.system
    verdict = classify_dependence(_jacobian(system, pf.x0), CFG.tol_rank)
    if not verdict.laszlo_at_point:
        failures.append("tornado-curve: rank test at 0 not dependent")
    _report(
        2,
        "CRC/RCRCQ verdicts match hand-computed ranks on all nine cases",
        not failures,
        "; ".join(failures),
    )


def test_criterion_3_abadie_equivalence_on_certified_cases():
    """Certified cases: every cone probe and tangent estimate passes, < 30 s."""
    start = time.perf_counter()
    failures = []
    for name in CERTIFIED_CASES:
        _, pf = load_case(name)
        system = pf.system
        rcrcq = check_rcrcq(
            system, active_set(evaluate_point(system, pf.x0), CFG.tol_active),
            _jacobian(system, pf.x0), CFG.tol_rank,
        )
        if rcrcq.verdict != "certified-by-sampling":
            failures.append(f"{name}: rcrcq {rcrcq.verdict}")
        report = abadie_verdict(system, pf.x0, CFG)
        for probe in report.probes:
            if not probe.passed:
                failures.append(f"{name}: probe {probe.direction} failed: {probe.fail_reason}")
            ratios = [r for r in probe.trace.ratio if r is not None]
            if ratios and ratios[-1] > 1e-3:
                failures.append(f"{name}: final ratio {ratios[-1]:.2e} > 1e-3")
            slope = probe.trace.decay_slope
            if slope is not None and slope < 1.5:
                failures.append(f"{name}: decay slope {slope:.3f} < 1.5")
        for direction, member, _ in estimate_memberships(system, pf.x0, CFG):
            if not member:
                failures.append(f"{name}: tangent estimate {direction} outside cone")
    elapsed = time.perf_counter() - start
    _report(
        3,
        "Abadie equivalence evidence is 100% positive on certified cases",
        not failures and elapsed < 30.0,
        "; ".join(failures) or f"{elapsed:.2f}s",
    )


def test_criterion_4_abadie_counterexample_detected():
    """{x^2 <= 0} at 0: verdict violated, Gamma = R, explicit witness."""
    _, pf = load_case("x-squared-leq-zero")
    report = abadie_verdict(pf.system, pf.x0, CFG)
    gamma_is_whole_line = (
        report.cone.eq_rows.shape[0] == 0
        and report.cone.ineq_rows.shape == (1, 1)
        and report.cone.ineq_rows[0, 0] == 0.0
    )
    ok = (
        report.verdict == "violated"
        and gamma_is_whole_line
        and report.witness is not None
        and report.witness["kind"] == "cone-direction-not-tangent"
    )
    _report(
        4,
        "x^2 <= 0 yields 'violated' with Gamma = R and a non-tangent witness",
        ok,
        f"verdict={report.verdict}, witness={report.witness and report.witness['direction']}",
    )


def test_criterion_5_corrector_decay_on_circle():
    """Circle at (1,0), d = e2: ||r(t)|| within 20% of t^2/2; slope in [1.8, 2.2]."""
    _, pf = load_case("circle-point")
    system = pf.system
    pd = evaluate_point(system, pf.x0)
    probe = _probe_directions(system, pd, [((), np.array([0.0, 1.0]))], CFG)[0]
    failures = []
    by_t = dict(zip(probe.trace.t_values, probe.trace.r_norms))
    for t in (1e-2, 1e-3, 1e-4):
        expected = t * t / 2.0
        rn = by_t[t]
        if rn is None or abs(rn - expected) > 0.2 * expected:
            failures.append(f"t={t}: ||r||={rn} vs {expected:.3e}")
    slope = probe.trace.decay_slope
    if slope is None or not 1.8 <= slope <= 2.2:
        failures.append(f"slope {slope}")
    _report(
        5,
        "circle corrector follows ||r|| ~ t^2/2 with slope in [1.8, 2.2]",
        not failures,
        "; ".join(failures) or f"slope {slope:.4f}",
    )


def test_criterion_6_tangent_estimates_inside_cone_universally():
    """T within Gamma on every corpus case: no estimate fails at 10x tolerance."""
    failures = []
    for name, _, pf, system in _all_corpus_systems():
        estimates = tangent_direction_estimate(
            system, pf.x0, ESTIMATE_PROBES, CFG.radii, CFG.seed + 2, CFG
        )
        if not estimates.directions:
            continue  # vacuous: isolated or unstable feasible set
        pd = evaluate_point(system, pf.x0)  # reachable: estimates exist
        cone = build_linearized_cone(pd, active_set(pd, CFG.tol_active))
        est_tol = max(CFG.tol_cone, min(CFG.radii))
        for d in estimates.directions:
            if not cone_member(cone, d, 10.0 * est_tol):
                failures.append(f"{name}: estimate {d} outside 10x tolerance")
    _report(
        6,
        "every tangent estimate lies in the linearized cone (all nine cases)",
        not failures,
        "; ".join(failures),
    )


def test_criterion_7_kkt_duality_and_minimal_norm():
    """Multipliers exist iff primal value is zero; duplicate case (0.2, 0.4)."""
    failures = []
    for name, _, pf, system in _all_corpus_systems():
        if system.objective is None:
            continue
        report = kkt_report(system, pf.x0, CFG)
        if report.dual_feasible != (report.primal_value == "zero"):
            failures.append(f"{name}: duality mismatch")
        if report.dual_feasible != (report.multipliers is not None):
            failures.append(f"{name}: multiplier/dual flag mismatch")
        if report.dual_feasible:
            pd = evaluate_point(system, pf.x0)
            scale = 1.0 + float(np.linalg.norm(pd.objective_gradient))
            if report.stationarity > 1e-10 * scale:
                failures.append(f"{name}: stationarity {report.stationarity:.2e}")
    _, pf = load_case("duplicate-bounds")
    lam = kkt_report(pf.system, pf.x0, CFG).multiplier_dict()
    if abs(lam[1] - 0.2) > 1e-8 or abs(lam[2] - 0.4) > 1e-8:
        failures.append(f"duplicate-bounds multipliers {lam}")
    _report(
        7,
        "KKT/LP duality holds; duplicate case returns minimal-norm (0.2, 0.4)",
        not failures,
        "; ".join(failures),
    )


def test_criterion_8_dependence_reconstruction_residuals():
    """Certified k < kappa instances reconstruct within their bounds."""
    failures = []

    def build(texts, names):
        return [parse(t, names) for t in texts]

    polynomial_cases = [
        ("affine", build(["x1", "2*x1 + 3"], ["x1", "x2"]), [0.0, 0.0], CFG.radii),
        ("square", build(["x1", "x1^2"], ["x1", "x2"]), [1.0, 0.0], CFG.radii),
    ]
    for label, functions, x0, radii in polynomial_cases:
        sampler = NeighborhoodSampler(center=tuple(x0), radii=radii, seed=42)
        fitted = reconstruct_dependent(sample_jacobian(functions, sampler), (1,), 2)
        scale = max(1.0, max(abs(functions[1].evaluate(p)) for p in sampler.plan()[1][1:]))
        if fitted.cross_validated_residual > 1e-6 * scale:
            failures.append(f"{label}: residual {fitted.cross_validated_residual:.2e}")
    sin_functions = build(["x1 + x2", "sin(x1 + x2)"], ["x1", "x2"])
    sin_sampler = NeighborhoodSampler(
        center=(0.0, 0.0), radii=(1e-2, 1e-3, 1e-4), seed=42
    )
    sin_fit = reconstruct_dependent(sample_jacobian(sin_functions, sin_sampler), (1,), 2)
    if sin_fit.cross_validated_residual > 1e-5:
        failures.append(f"sin: residual {sin_fit.cross_validated_residual:.2e}")
    _report(
        8,
        "dependence reconstructions meet 1e-6*scale (polynomial) and 1e-5 (sin)",
        not failures,
        "; ".join(failures),
    )


def test_criterion_9_corpus_run_byte_identical(capsys):
    """'corpus run all' twice produces byte-identical machine reports."""
    code1 = cli_main(["corpus", "run", "all", "--format", "machine"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["corpus", "run", "all", "--format", "machine"])
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2 and json.loads(out1)["all_pass"]
    with capsys.disabled():
        _report(9, "corpus run all is byte-deterministic and all-green", ok,
                f"{len(out1)} bytes")


def test_criterion_10_witness_relation_residual():
    """y1^2 - y2^3 over (t^3, t^2): residual <= 1e-14 on the sample set."""
    _, pf = load_case("cusp-powers")
    system = pf.system
    relation = parse("y1^2 - y2^3", ["y1", "y2"])
    sampler = NeighborhoodSampler(center=tuple(pf.x0), radii=CFG.radii, seed=CFG.seed)
    residual = witness_check(relation, sample_jacobian(list(system.all_constraints), sampler))
    _report(
        10,
        "explicit witness relation composes to <= 1e-14 over the samples",
        residual <= 1e-14,
        f"residual {residual:.3e}",
    )
