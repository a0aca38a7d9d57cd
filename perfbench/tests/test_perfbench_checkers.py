"""Each workload's checker accepts a real report and rejects corrupted ones."""

import contextlib
import copy
import io
import json

import numpy as np
import pytest

import workloads as W
from cq_analyzer import cli


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def _report(tmp_path, problem, command):
    path = tmp_path / f"{problem.name}.json"
    path.write_text(W.problem_json(problem))
    return _run([command, str(path), "--format", "machine"])


@pytest.fixture(scope="module")
def chain_refuted(tmp_path_factory):
    problem = W.chain_problem(3, True, np.random.default_rng(5), "chain-e")
    return (problem,) + _report(tmp_path_factory.mktemp("c"), problem, "rcrcq")


@pytest.fixture(scope="module")
def chain_certified(tmp_path_factory):
    problem = W.chain_problem(3, False, np.random.default_rng(6), "chain-p")
    return (problem,) + _report(tmp_path_factory.mktemp("c"), problem, "rcrcq")


@pytest.fixture(scope="module", params=[(3, 1, False), (4, 2, True)])
def manifold(request, tmp_path_factory):
    problem = W.manifold_problem(*request.param, np.random.default_rng(7), "m")
    return (problem,) + _report(tmp_path_factory.mktemp("m"), problem, "analyze")


@pytest.fixture(scope="module")
def corpus_report():
    return _run(["corpus", "run", "all", "--format", "machine"])


def test_chain_accepts_real_reports(chain_refuted, chain_certified):
    for problem, code, report in (chain_refuted, chain_certified):
        W.check_rcrcq_chain(problem, code, report)


def test_chain_rejects_flipped_verdict(chain_certified):
    problem, code, report = chain_certified
    bad = copy.deepcopy(report)
    bad["analyses"]["rcrcq"]["verdict"] = "refuted"
    with pytest.raises(W.CheckFailure):
        W.check_rcrcq_chain(problem, 1, bad)


def test_chain_rejects_witness_with_unchanged_rank(chain_refuted):
    problem, code, report = chain_refuted
    bad = copy.deepcopy(report)
    for sub in bad["analyses"]["rcrcq"]["subsets"]:
        if sub["witness"] is not None:
            # At the center itself the rank cannot differ from the center rank.
            sub["witness"]["point"] = [0.0] * len(sub["witness"]["point"])
            sub["witness"]["rank"] = sub["rank_at_center"]
    with pytest.raises(W.CheckFailure):
        W.check_rcrcq_chain(problem, code, bad)


def test_chain_rejects_wrong_exit_code(chain_refuted):
    problem, code, report = chain_refuted
    with pytest.raises(W.CheckFailure):
        W.check_rcrcq_chain(problem, 0, report)


def test_manifold_accepts_real_report(manifold):
    W.check_analyze_manifold(*manifold)


def test_manifold_rejects_perturbed_multiplier(manifold):
    problem, code, report = manifold
    bad = copy.deepcopy(report)
    bad["analyses"]["kkt"]["multipliers"]["1"] += 1e-4
    with pytest.raises(W.CheckFailure):
        W.check_analyze_manifold(problem, code, bad)


def test_manifold_rejects_flipped_verdict(manifold):
    problem, code, report = manifold
    bad = copy.deepcopy(report)
    bad["analyses"]["abadie"]["verdict"] = "violated"
    with pytest.raises(W.CheckFailure):
        W.check_analyze_manifold(problem, 1, bad)


def test_manifold_inconclusive_abadie_needs_exit_2_and_no_witness(manifold):
    problem, code, report = manifold
    soft = copy.deepcopy(report)
    soft["analyses"]["abadie"]["verdict"] = "inconclusive"
    W.check_analyze_manifold(problem, 2, soft)
    with pytest.raises(W.CheckFailure):
        W.check_analyze_manifold(problem, 0, soft)
    soft["analyses"]["abadie"]["witness"] = {"kind": "cone-direction-not-tangent"}
    with pytest.raises(W.CheckFailure):
        W.check_analyze_manifold(problem, 2, soft)


def test_corpus_accepts_real_report(corpus_report):
    W.check_corpus(*corpus_report)


@pytest.mark.parametrize("case, section, key, value", [
    ("axis-squares", "rcrcq", "verdict", "certified-by-sampling"),
    ("sign-obstructed", "kkt", "dual_feasible", True),
    ("tornado-curve", "dependence", "image_dimension", 2),
])
def test_corpus_rejects_flipped_verdict(corpus_report, case, section, key, value):
    code, report = corpus_report
    bad = copy.deepcopy(report)
    bad["cases"][case]["analyses"][section][key] = value
    with pytest.raises(W.CheckFailure):
        W.check_corpus(code, bad)


def test_corpus_rejects_perturbed_multiplier(corpus_report):
    code, report = corpus_report
    bad = copy.deepcopy(report)
    bad["cases"]["duplicate-bounds"]["analyses"]["kkt"]["multipliers"]["1"] = 0.3
    with pytest.raises(W.CheckFailure):
        W.check_corpus(code, bad)


def test_theorem_check_rejects_certified_rcrcq_with_violated_abadie(corpus_report):
    code, report = corpus_report
    bad = copy.deepcopy(report)
    bad["cases"]["circle-point"]["analyses"]["abadie"]["verdict"] = "violated"
    with pytest.raises(W.CheckFailure, match="Abadie"):
        W._check_theorem(bad["cases"]["circle-point"]["analyses"])
