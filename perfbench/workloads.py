"""Seeded problem generators and independent output checkers, one per workload.

Every generated problem is drawn from ``numpy.random.default_rng`` keyed by
(workload seed, round, slot), so the same seed always yields the same files.
A round is a fixed list of problem shapes: the coefficients change with the
seed, the amount of work does not, so every run measures the same mix.

The checkers never call ``cq_analyzer``.  They recompute what they compare
against from closed-form gradients written out here, or hold a hand-derived
table (the corpus), and they test properties the method must have.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Defaults of the analyzer that the checks rely on; the generated files set
# no options, so these are the effective settings.
RADII_COUNT = 5
SAMPLES_PER_RADIUS = 32
TOL_RANK = 1e-8
TOL_CONE = 1e-8

RCRCQ_VERDICT_CODE = {"certified-by-sampling": 0, "refuted": 1, "inconclusive": 2}
ABADIE_VERDICT_CODE = {"consistent": 0, "violated": 1, "inconclusive": 2}


class CheckFailure(AssertionError):
    """An analyzer output disagrees with the independent expectation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _num(x: float) -> str:
    return repr(float(x))


def _rank(rows: np.ndarray) -> int:
    if rows.size == 0 or not np.any(rows):
        return 0
    sigma = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(sigma > TOL_RANK * sigma[0]))


@dataclass(frozen=True)
class Problem:
    """One generated problem: the file to write plus what the checker needs."""

    name: str
    data: dict                       # problem-file JSON object
    gradients: Callable[[np.ndarray], np.ndarray]   # closed-form Jacobian rows
    expect: dict


# ---------------------------------------------------------------------------
# rcrcq-chain: -x_i + c_i x_{i+1 mod k}^2 <= 0, optionally x0^2 - c x1^2 <= 0
# ---------------------------------------------------------------------------

# (k, with the always-active extra constraint) per slot of one round.
CHAIN_ROUND = ((3, True), (4, False), (5, True), (6, False))


def chain_problem(k: int, extra: bool, rng: np.random.Generator, name: str) -> Problem:
    c = rng.uniform(0.5, 2.0, size=k)
    w = rng.uniform(0.5, 2.0, size=k)
    c_extra = float(rng.uniform(0.5, 2.0))
    names = [f"x{i}" for i in range(k)]
    inequalities = [
        f"-x{i} + {_num(c[i])}*x{(i + 1) % k}^2" for i in range(k)
    ]
    if extra:
        inequalities.append(f"x0^2 - {_num(c_extra)}*x1^2")
    data = {
        "name": name,
        "variables": names,
        "objective": " + ".join(f"{_num(w[i])}*x{i}" for i in range(k)),
        "inequalities": inequalities,
        "point": [0.0] * k,
    }

    def gradients(x: np.ndarray) -> np.ndarray:
        rows = []
        for i in range(k):
            row = np.zeros(k)
            row[i] -= 1.0
            row[(i + 1) % k] += 2.0 * c[i] * x[(i + 1) % k]
            rows.append(row)
        if extra:
            row = np.zeros(k)
            row[0] = 2.0 * x[0]
            row[1] = -2.0 * c_extra * x[1]
            rows.append(row)
        return np.array(rows)

    return Problem(
        name, data, gradients,
        {"verdict": "refuted" if extra else "certified-by-sampling",
         "active": tuple(range(1, k + 1 + int(extra)))},
    )


def check_rcrcq_chain(problem: Problem, code: int, report: dict) -> None:
    sec = report["analyses"]["rcrcq"]
    _require("error" not in sec, f"rcrcq section is an error: {sec.get('error')}")
    verdict = sec["verdict"]
    _require(verdict == problem.expect["verdict"],
             f"verdict {verdict}, expected {problem.expect['verdict']}")
    _require(code == RCRCQ_VERDICT_CODE[verdict], f"exit code {code} for {verdict}")
    active = tuple(sec["active_indices"])
    _require(active == problem.expect["active"], f"active set {active}")
    _require(sec["subset_count"] == 2 ** len(active) == len(sec["subsets"]),
             f"subset_count {sec['subset_count']} for |I(x0)| = {len(active)}")
    center = problem.gradients(np.zeros(len(problem.data["variables"])))
    refuted = 0
    for sub in sec["subsets"]:
        j = sub["subset"]
        # The empty subset is certified without sampling (rank 0 everywhere).
        points = RADII_COUNT * SAMPLES_PER_RADIUS if j else 0
        _require(sub["total_points"] == points, f"subset {j}: {sub['total_points']} points")
        _require(sub["skipped_points"] == 0, f"subset {j}: skipped points")
        rows0 = center[[i - 1 for i in j]] if j else np.zeros((0, center.shape[1]))
        rank0 = _rank(rows0)
        _require(sub["rank_at_center"] == rank0,
                 f"subset {j}: rank at center {sub['rank_at_center']}, closed form {rank0}")
        if sub["verdict"] == "refuted":
            refuted += 1
            wit = sub["witness"]
            rows = problem.gradients(np.array(wit["point"]))[[i - 1 for i in j]]
            rank_w = _rank(rows)
            _require(rank_w == wit["rank"],
                     f"subset {j}: witness rank {wit['rank']}, closed form {rank_w}")
            _require(rank_w != rank0, f"subset {j}: witness rank equals the center rank")
    if verdict == "certified-by-sampling":
        _require(_rank(center) == center.shape[0], "certified, yet not full rank")
        _require(refuted == 0, "certified with a refuted subset")
    else:
        _require(refuted > 0, "refuted without a refuted subset")


# ---------------------------------------------------------------------------
# analyze-manifold: a_j.x + b x_p^2 + d (cos(x_q) - 1) = 0, one active
# inequality, objective built from chosen multipliers
# ---------------------------------------------------------------------------

# (n variables, m equalities, append the dependent equality h1 + h2^2).
MANIFOLD_ROUND = ((3, 1, False), (4, 2, True), (5, 3, False), (6, 2, True),
                  (7, 4, False), (8, 2, True))


def manifold_problem(n: int, m: int, dependent: bool, rng: np.random.Generator,
                     name: str) -> Problem:
    a = rng.standard_normal((m, n))
    b = rng.uniform(-1.0, 1.0, size=m)
    d = rng.uniform(-1.0, 1.0, size=m)
    p = rng.integers(0, n, size=m)
    q = rng.integers(0, n, size=m)
    c = rng.standard_normal(n)
    e = float(rng.uniform(-1.0, 1.0))
    r = int(rng.integers(0, n))
    lam = rng.uniform(0.5, 2.0, size=m) * rng.choice((-1.0, 1.0), size=m)
    mu = float(rng.uniform(0.5, 2.0))
    s = rng.uniform(0.1, 1.0, size=n)
    names = [f"x{i + 1}" for i in range(n)]

    def lin(coef) -> str:
        return " + ".join(f"{_num(v)}*{names[i]}" for i, v in enumerate(coef))

    eqs = [
        f"{lin(a[j])} + {_num(b[j])}*{names[p[j]]}^2 + {_num(d[j])}*(cos({names[q[j]]}) - 1)"
        for j in range(m)
    ]
    if dependent:
        eqs.append(f"({eqs[0]}) + ({eqs[1]})^2")
    ineq = f"{lin(c)} + {_num(e)}*{names[r]}^2"
    w = -(a.T @ lam + mu * c)
    objective = lin(w) + " + " + " + ".join(
        f"{_num(s[i])}*{names[i]}^2" for i in range(n)
    )
    data = {
        "name": name,
        "variables": names,
        "objective": objective,
        "equalities": eqs,
        "inequalities": [ineq],
        "point": [0.0] * n,
    }

    def gradients(x: np.ndarray) -> np.ndarray:
        rows = []
        for j in range(m):
            row = a[j].copy()
            row[p[j]] += 2.0 * b[j] * x[p[j]]
            row[q[j]] -= d[j] * math.sin(x[q[j]])
            rows.append(row)
        if dependent:
            h2 = float(a[1] @ x + b[1] * x[p[1]] ** 2 + d[1] * (math.cos(x[q[1]]) - 1.0))
            rows.append(rows[0] + 2.0 * h2 * rows[1])
        g = c.copy()
        g[r] += 2.0 * e * x[r]
        rows.append(g)
        return np.array(rows)

    # Multipliers in constraint-index order: equalities, then the inequality.
    if dependent:
        g0 = gradients(np.zeros(n))
        expected = np.linalg.pinv(g0.T) @ (-w)   # the minimal-norm split
    else:
        expected = np.concatenate([lam, [mu]])
    return Problem(
        name, data, gradients,
        {"multipliers": expected, "objective_gradient": w, "dependent": dependent},
    )


def _check_theorem(sections: dict) -> None:
    """RCRCQ implies Abadie: certified RCRCQ never meets a violated Abadie."""
    rc, ab = sections.get("rcrcq"), sections.get("abadie")
    if rc is None or ab is None or "error" in rc or "error" in ab:
        return
    _require(not (rc["verdict"] == "certified-by-sampling" and ab["verdict"] == "violated"),
             "RCRCQ certified but Abadie violated")


def _exit_code(sections: dict) -> int:
    codes = []
    for name, sec in sections.items():
        if "error" in sec:
            codes.append(2)
        elif name == "rcrcq":
            codes.append(RCRCQ_VERDICT_CODE[sec["verdict"]])
        elif name == "abadie":
            codes.append(ABADIE_VERDICT_CODE[sec["verdict"]])
        elif name == "dependence":
            codes.append(2 if sec["sense"] == "crc-failed-inconclusive" else 0)
        elif name == "kkt":
            codes.append(0 if sec["dual_feasible"] else 1)
    return 1 if 1 in codes else 2 if 2 in codes else 0


def check_analyze_manifold(problem: Problem, code: int, report: dict) -> None:
    sec = report["analyses"]
    _require(sorted(sec) == ["abadie", "dependence", "kkt", "rcrcq"],
             f"sections {sorted(sec)}")
    for name, s in sec.items():
        _require("error" not in s, f"{name} section is an error: {s.get('error')}")
    _require(code == _exit_code(sec), f"exit code {code}")
    _require(sec["rcrcq"]["verdict"] == "certified-by-sampling",
             f"rcrcq {sec['rcrcq']['verdict']}")
    # Abadie holds here (RCRCQ does), so "violated" is wrong.  "inconclusive"
    # without a witness is the analyzer's verdict for soft evidence: a cone
    # direction barely off the active inequality's boundary can leave that
    # inequality positive at the scheduled t > 0.
    abadie = sec["abadie"]
    _require(abadie["verdict"] == "consistent"
             or (abadie["verdict"] == "inconclusive" and abadie["witness"] is None),
             f"abadie {abadie['verdict']}")
    _check_theorem(sec)
    dep = problem.expect["dependent"]
    want_sense = "dependent-with-relation" if dep else "independent"
    _require(sec["dependence"]["sense"] == want_sense,
             f"dependence {sec['dependence']['sense']}, expected {want_sense}")
    kkt = sec["kkt"]
    _require(kkt["dual_feasible"] is True, "no multipliers found")
    _require(kkt["minimal_norm_selected"] is dep, "minimal-norm flag")
    expected = problem.expect["multipliers"]
    got = np.array([kkt["multipliers"][str(i + 1)] for i in range(len(expected))])
    scale = 1.0 + float(np.max(np.abs(expected)))
    _require(float(np.max(np.abs(got - expected))) <= 1e-6 * scale,
             f"multipliers {got.tolist()}, expected {expected.tolist()}")
    n = len(problem.data["variables"])
    w = problem.expect["objective_gradient"]
    residual = float(np.linalg.norm(w + problem.gradients(np.zeros(n)).T @ got))
    _require(residual <= TOL_CONE * (1.0 + float(np.linalg.norm(w))),
             f"stationarity residual {residual:.3e}")


# ---------------------------------------------------------------------------
# corpus: hand-derived verdicts for the nine bundled cases
# ---------------------------------------------------------------------------

# Derived from the constraint formulas in the README table, not read from
# the analyzer's golden definitions: (section, key) -> expected value.
CORPUS_TABLE = {
    "coordinate-projections": {
        ("rcrcq", "verdict"): "certified-by-sampling",
        ("abadie", "verdict"): "consistent",
        ("dependence", "sense"): "independent",
        ("dependence", "rank_k"): 2,
    },
    "axis-squares": {
        ("rcrcq", "verdict"): "refuted",
        ("abadie", "verdict"): "violated",
        ("dependence", "sense"): "crc-failed-inconclusive",
        ("dependence", "rank_k"): 0,
    },
    "cusp-powers": {
        ("rcrcq", "verdict"): "refuted",
        ("abadie", "verdict"): "violated",
        ("dependence", "sense"): "crc-failed-inconclusive",
        ("dependence", "rank_k"): 0,
    },
    "tornado-curve": {
        ("dependence", "sense"): "crc-failed-inconclusive",
        ("dependence", "image_dimension"): 1,
    },
    "x-squared-leq-zero": {
        ("rcrcq", "verdict"): "refuted",
        ("abadie", "verdict"): "violated",
    },
    "parallel-equalities": {
        ("rcrcq", "verdict"): "certified-by-sampling",
        ("abadie", "verdict"): "consistent",
        ("kkt", "dual_feasible"): True,
        ("kkt", "minimal_norm_selected"): True,
        ("kkt", "multipliers"): {"1": 0.0, "2": 0.0},
    },
    "circle-point": {
        ("rcrcq", "verdict"): "certified-by-sampling",
        ("abadie", "verdict"): "consistent",
        ("kkt", "dual_feasible"): True,
        ("kkt", "minimal_norm_selected"): False,
        ("kkt", "multipliers"): {"1": 0.5},
    },
    "duplicate-bounds": {
        ("rcrcq", "verdict"): "certified-by-sampling",
        ("abadie", "verdict"): "consistent",
        ("kkt", "dual_feasible"): True,
        ("kkt", "minimal_norm_selected"): True,
        ("kkt", "multipliers"): {"1": 0.2, "2": 0.4},
    },
    "sign-obstructed": {
        ("rcrcq", "verdict"): "certified-by-sampling",
        ("abadie", "verdict"): "consistent",
        ("kkt", "dual_feasible"): False,
        ("kkt", "primal_value"): "unbounded-below",
    },
}


def check_corpus(code: int, report: dict) -> None:
    cases = report["cases"]
    _require(sorted(cases) == sorted(CORPUS_TABLE), f"cases {sorted(cases)}")
    _require(report["all_pass"] is True and code == 0, f"all_pass / exit code {code}")
    for name, table in CORPUS_TABLE.items():
        sec = cases[name]["analyses"]
        for (section, key), want in table.items():
            got = sec[section].get(key)
            if isinstance(want, dict):
                ok = got is not None and sorted(got) == sorted(want) and all(
                    abs(got[i] - v) <= 1e-8 for i, v in want.items())
            else:
                ok = got == want
            _require(ok, f"{name}: {section}.{key} = {got!r}, expected {want!r}")
        _check_theorem(sec)
        kkt = sec.get("kkt")
        if kkt is not None and not kkt["dual_feasible"]:
            # The descent certificate must be a strict descent direction.
            _require(kkt["descent_slope"] < 0.0, f"{name}: descent slope {kkt['descent_slope']}")
        rc = sec.get("rcrcq")
        if rc is not None and rc["verdict"] == "refuted":
            _require(any(s["witness"] is not None for s in rc["subsets"]),
                     f"{name}: refuted without a witness")
        ab = sec.get("abadie")
        if ab is not None and ab["verdict"] == "violated":
            _require(ab["witness"] is not None, f"{name}: violated without a witness")


def round_problems(workload: str, seed: int, round_index: int) -> list[Problem]:
    """The problems of one round; identical for identical (seed, round)."""
    out = []
    shapes = CHAIN_ROUND if workload == "rcrcq-chain" else MANIFOLD_ROUND
    for slot, shape in enumerate(shapes):
        rng = np.random.default_rng([seed, round_index, slot])
        name = f"{workload}-s{seed}-r{round_index}-{slot}"
        if workload == "rcrcq-chain":
            out.append(chain_problem(*shape, rng, name))
        else:
            out.append(manifold_problem(*shape, rng, name))
    return out


def problem_json(problem: Problem) -> str:
    return json.dumps(problem.data, indent=1) + "\n"
