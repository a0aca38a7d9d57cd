import json

import pytest

from cq_analyzer.cli import main
from cq_analyzer.corpus import CORPUS, corpus_path
from cq_analyzer.problem import (
    ProblemFileError,
    load_problem_file,
    parse_problem_dict,
    parse_schedule,
)
from cq_analyzer.report import machine_dumps


def corpus_file(name):
    return str(corpus_path(CORPUS[name].filename))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------


def test_load_corpus_problem():
    pf = load_problem_file(corpus_file("circle-point"))
    assert pf.name == "circle-point"
    assert pf.variables == ("x1", "x2")
    assert pf.objective == "-x1"
    assert pf.point == (1.0, 0.0)
    assert pf.assert_local_min


def test_problem_rejects_unknown_keys():
    with pytest.raises(ProblemFileError):
        parse_problem_dict({"name": "x", "variables": ["x"], "point": [0.0], "extra": 1})


def test_problem_rejects_unknown_option():
    with pytest.raises(ProblemFileError) as exc:
        parse_problem_dict(
            {"name": "x", "variables": ["x"], "point": [0.0], "options": {"tol": 1}}
        )
    assert "tol" in str(exc.value)


@pytest.mark.parametrize("samples", [0, -3, 2.5, True, "32"])
def test_problem_rejects_samples_that_are_not_positive_integers(samples):
    with pytest.raises(ProblemFileError) as exc:
        parse_problem_dict(
            {"name": "x", "variables": ["x"], "point": [0.0], "options": {"samples": samples}}
        )
    assert "samples" in str(exc.value)


def _with(**extra):
    return {"name": "x", "variables": ["x"], "point": [0.0], **extra}


@pytest.mark.parametrize("key", ["tol_rank", "tol_cone", "seed", "fit_degree"])
def test_problem_rejects_non_numeric_option_values(key):
    with pytest.raises(ProblemFileError) as exc:
        parse_problem_dict(_with(options={key: "abc"}))
    assert key in str(exc.value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_problem_rejects_non_finite_point(value):
    with pytest.raises(ProblemFileError) as exc:
        parse_problem_dict(_with(point=[value]))
    assert "point" in str(exc.value)


@pytest.mark.parametrize("key", ["tol_rank", "tol_feas", "ratio_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_problem_rejects_non_finite_float_option(key, value):
    with pytest.raises(ProblemFileError) as exc:
        parse_problem_dict(_with(options={key: value}))
    assert key in str(exc.value)


@pytest.mark.parametrize("value", [0, 0.0, 1.0, 1.5, -1e-8])
def test_problem_rejects_tol_rank_outside_unit_interval(value):
    with pytest.raises(ProblemFileError) as exc:
        parse_problem_dict(_with(options={"tol_rank": value}))
    assert "(0, 1)" in str(exc.value)


@pytest.mark.parametrize("radii", [[0.1, float("nan")], [float("inf"), 0.1], "inf:1e-5:x10"])
def test_problem_rejects_non_finite_schedule(radii):
    # "inf:1e-5:x10" used to loop forever expanding the schedule.
    with pytest.raises(ProblemFileError) as exc:
        parse_problem_dict(_with(options={"radii": radii}))
    assert "schedule" in str(exc.value)


@pytest.mark.parametrize(
    "text",
    [
        '"point": [NaN]',
        '"point": [0.0], "options": {"tol_rank": "abc"}',
        '"point": [0.0], "options": {"tol_rank": Infinity}',
        '"point": [0.0], "options": {"tol_rank": 2.0}',
    ],
)
def test_cli_rejects_invalid_values_with_usage_exit(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "variables": ["x"], "inequalities": ["x"], %s}' % text)
    code, out, err = run_cli(capsys, "rcrcq", str(path))
    assert code == 64
    assert out == ""
    assert "bad.json" in err


@pytest.mark.parametrize("flags", [["--tol-rank", "2"], ["--tol-feas", "nan"]])
def test_cli_rejects_invalid_float_flags_with_usage_exit(capsys, flags):
    code, out, err = run_cli(capsys, "rcrcq", corpus_file("circle-point"), *flags)
    assert code == 64
    assert out == ""


def test_cli_rejects_short_t_schedule_in_file(capsys, tmp_path):
    # One or two values leave the tangent probe no decay slope to fit, yet
    # Abadie used to come out consistent with exit 0.
    path = corpus_copy(tmp_path, "circle-point", options={"t_schedule": [0.001]})
    code, out, err = run_cli(capsys, "abadie", path)
    assert code == 64 and out == ""
    assert "circle-point.json" in err and "at least 3 values" in err


def test_cli_rejects_short_t_schedule_flag(capsys):
    code, out, err = run_cli(
        capsys, "abadie", corpus_file("circle-point"), "--t-schedule", "1e-3:1e-3:x10"
    )
    assert code == 64 and out == ""
    assert "at least 3 values" in err


def test_cli_trig_of_overflowed_argument_is_an_error_section(capsys, tmp_path):
    # sin(x1^400) at x1 = 10 is sin(inf): this used to end in a bare
    # "ValueError: math domain error" traceback with exit 1.
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "name": "overflow", "variables": ["x1", "x2"],
        "equalities": ["x2 - sin(x1^400)"], "point": [10, 0],
    }))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "machine")
    assert code == 2
    sections = json.loads(out)["analyses"]
    for name in ("rcrcq", "abadie"):
        assert sections[name]["error_kind"] == "ConstraintDomainError"
        assert "sin of an infinite value in 'sin(x1^400)'" in sections[name]["error"]


def deep_sum_problem(tmp_path, terms):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({
        "name": "deep", "variables": ["x1", "x2"],
        "equalities": [" + ".join(["x1*x2"] * terms)], "point": [0.0, 0.0],
    }))
    return str(path)


def test_cli_rejects_an_over_deep_expression_with_usage_exit(capsys, tmp_path):
    # Compiling recurses once per tree level: a 1000-term sum used to end
    # rcrcq in a RecursionError traceback with exit 1.
    code, out, err = run_cli(capsys, "rcrcq", deep_sum_problem(tmp_path, 1000))
    assert code == 64 and out == ""
    assert "problem 'deep'" in err and "deeper than 250 levels" in err


def test_cli_analyzes_a_sum_of_240_terms(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "analyze", deep_sum_problem(tmp_path, 240),
                           "--format", "machine")
    sections = json.loads(out)["analyses"]
    assert all("error" not in section for section in sections.values())
    # The gradient 240 * (x2, x1) vanishes at the origin only.
    assert sections["rcrcq"]["verdict"] == "refuted"
    assert code == 1


def test_problem_rejects_point_length_mismatch():
    with pytest.raises(ProblemFileError):
        parse_problem_dict({"name": "x", "variables": ["x", "y"], "point": [0.0]})


def test_problem_reports_expression_error():
    with pytest.raises(ProblemFileError) as exc:
        parse_problem_dict(
            {"name": "x", "variables": ["x"], "point": [0.0], "equalities": ["x +* 1"]}
        )
    assert "offset" in str(exc.value)


def test_problem_options_override_config():
    from cq_analyzer.config import ToolConfig

    pf = parse_problem_dict(
        {
            "name": "x",
            "variables": ["x"],
            "point": [0.0],
            "options": {"tol_rank": 1e-6, "seed": 7, "radii": "1e-2:1e-4:x10"},
        }
    )
    cfg = pf.config(ToolConfig())
    assert cfg.tol_rank == 1e-6
    assert cfg.seed == 7
    assert cfg.radii == (1e-2, 1e-3, 1e-4)


def test_parse_schedule_forms():
    assert parse_schedule("1e-1:1e-5:x10") == (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
    assert parse_schedule([0.1, 0.01]) == (0.1, 0.01)
    with pytest.raises(ProblemFileError):
        parse_schedule("1e-5:1e-1:x10")
    with pytest.raises(ProblemFileError):
        parse_schedule("nonsense")


# ---------------------------------------------------------------------------
# machine format
# ---------------------------------------------------------------------------


def test_machine_dumps_sorted_and_17_digits():
    out = machine_dumps({"b": 0.1, "a": [1, True, None, "s"]})
    assert out == '{"a": [1, true, null, "s"], "b": 0.10000000000000001}\n'


def test_machine_dumps_is_valid_json():
    out = machine_dumps({"x": [1e-05, 123456789.0, -0.0, 3.5]})
    data = json.loads(out)
    assert data["x"][0] == 1e-05
    assert data["x"][2] == 0.0


def test_machine_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        machine_dumps({"x": float("inf")})


def test_emit_report_empty_analysis_minimal_document():
    from cq_analyzer.report import emit_report

    report = {
        "report_version": 1,
        "tool": {"name": "cq-analyzer", "version": "0.1.0"},
        "problem": {"name": "empty", "file": "empty.json"},
        "config": {"tol_rank": 1e-8, "seed": 42},
        "analyses": {},
        "summary": "",
    }
    machine = emit_report(report, "machine")
    parsed = json.loads(machine)
    assert parsed["report_version"] == 1
    assert parsed["config"]["seed"] == 42
    text = emit_report(report, "text")
    assert "config:" in text and "seed=42" in text


# ---------------------------------------------------------------------------
# CLI behaviour
# ---------------------------------------------------------------------------


def test_cli_abadie_violated_exit_one(capsys):
    code, out, _ = run_cli(capsys, "abadie", corpus_file("x-squared-leq-zero"), "--format", "text")
    assert code == 1
    assert "violated" in out
    assert "witness" in out


def test_cli_rcrcq_certified_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "rcrcq", corpus_file("parallel-equalities"))
    assert code == 0
    assert "certified-by-sampling" in out
    # The per-subset rank table is part of the report.
    assert "J={1,2}" in out


def test_cli_multipliers_dual_infeasible_exit_one(capsys):
    code, out, _ = run_cli(capsys, "multipliers", corpus_file("sign-obstructed"))
    assert code == 1
    assert "dual-infeasible" in out
    assert "unbounded-below" in out


def test_cli_dependence_inconclusive_exit_two(capsys):
    code, out, _ = run_cli(capsys, "dependence", corpus_file("tornado-curve"))
    assert code == 2
    assert "crc-failed-inconclusive" in out


def test_cli_dependence_skips_unevaluable_sample_points(capsys, tmp_path):
    # 11 of the 160 sample points leave the domain of log; the rank check
    # skips them, and so must the reconstruction (it used to evaluate there
    # and end in an error section with exit 2).
    path = tmp_path / "log-guarded.json"
    path.write_text(json.dumps({
        "name": "log-guarded", "variables": ["x1", "x2"],
        "equalities": ["x1", "2*x1 + 0*log(x2 + 0.05)"], "point": [0, 0],
    }))
    code, out, _ = run_cli(capsys, "dependence", str(path), "--format", "machine")
    section = json.loads(out)["analyses"]["dependence"]
    assert code == 0
    assert section["sense"] == "dependent-with-relation"
    assert (section["crc"]["skipped_points"], section["crc"]["total_points"]) == (11, 160)
    assert section["reconstructions"][0]["cross_validated_residual"] <= 1e-8


def test_cli_analyze_survives_domain_errors_exit_two(capsys):
    # The spiral curve is unevaluable at its own base point: the rank and
    # cone analyses degrade to error sections, the dependence analysis still
    # runs, and the overall run is inconclusive.
    code, out, _ = run_cli(capsys, "analyze", corpus_file("tornado-curve"), "--format", "machine")
    assert code == 2
    report = json.loads(out)
    assert "error" in report["analyses"]["rcrcq"]
    assert "error" in report["analyses"]["abadie"]
    assert report["analyses"]["dependence"]["sense"] == "crc-failed-inconclusive"


def test_cli_analyze_includes_config_snapshot(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", corpus_file("circle-point"),
        "--format", "machine", "--tol-rank", "1e-7",
    )
    assert code == 0
    report = json.loads(out)
    assert report["report_version"] == 2
    assert report["config"]["tol_rank"] == 1e-7
    assert report["config"]["seed"] == 42
    assert set(report["analyses"]) == {"rcrcq", "abadie", "dependence", "kkt"}
    assert "rcrcq" not in report["analyses"]["abadie"]
    assert report["analyses"]["kkt"]["contradiction"] is False


def corpus_copy(tmp_path, name, **changes):
    problem = json.loads(open(corpus_file(name)).read())
    problem.update(changes)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(problem))
    return str(path)


def test_cli_analyze_flags_asserted_minimum_contradiction(capsys, tmp_path):
    path = corpus_copy(tmp_path, "sign-obstructed", assert_local_min=True)
    code, out, _ = run_cli(capsys, "analyze", path, "--format", "machine")
    assert code == 1
    report = json.loads(out)
    assert report["analyses"]["rcrcq"]["verdict"] == "certified-by-sampling"
    assert report["analyses"]["kkt"]["dual_feasible"] is False
    assert report["analyses"]["kkt"]["contradiction"] is True
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 1
    assert "note: constant rank certified" in out


def test_cli_zero_samples_exit_64(capsys, tmp_path):
    # Zero samples would certify constant rank on no evidence at all.
    path = corpus_copy(tmp_path, "circle-point", options={"samples": 0})
    code, out, err = run_cli(capsys, "rcrcq", path)
    assert code == 64 and out == ""
    assert "samples" in err
    code, out, err = run_cli(capsys, "rcrcq", corpus_file("circle-point"), "--samples", "0")
    assert code == 64 and out == ""
    assert "--samples" in err


def test_cli_flag_overrides_file_option(capsys, tmp_path):
    problem = {
        "name": "p",
        "variables": ["x"],
        "point": [0.0],
        "equalities": ["x"],
        "options": {"seed": 9, "tol_rank": 1e-6},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run_cli(capsys, "rcrcq", str(path), "--format", "machine", "--seed", "11")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["seed"] == 11          # flag beats file option
    assert report["config"]["tol_rank"] == 1e-6    # file option beats default


def test_cli_env_seed_used_when_flag_absent(capsys, monkeypatch):
    monkeypatch.setenv("CQ_ANALYZER_SEED", "123")
    code, out, _ = run_cli(capsys, "rcrcq", corpus_file("circle-point"), "--format", "machine")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 123


def test_cli_env_seed_ignored_when_flag_present(capsys, monkeypatch):
    monkeypatch.setenv("CQ_ANALYZER_SEED", "123")
    code, out, _ = run_cli(
        capsys, "rcrcq", corpus_file("circle-point"), "--format", "machine", "--seed", "5"
    )
    assert json.loads(out)["config"]["seed"] == 5


@pytest.mark.parametrize("flag, env", [("-1", None), (None, "-1"), (None, "abc")])
def test_cli_rejects_invalid_seed_with_usage_exit(capsys, monkeypatch, flag, env):
    if env is not None:
        monkeypatch.setenv("CQ_ANALYZER_SEED", env)
    flags = ["--seed", flag] if flag is not None else []
    code, out, err = run_cli(capsys, "rcrcq", corpus_file("circle-point"), *flags)
    assert code == 64
    assert out == ""
    assert "seed" in err.lower()


def test_cli_malformed_file_exit_64(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "variables": ["x"], "point": [0.0]')
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 64
    assert "line" in err and "column" in err


def test_cli_unknown_corpus_case_exit_64(capsys):
    code, _, err = run_cli(capsys, "corpus", "run", "not-a-case")
    assert code == 64
    assert "corpus list" in err


def test_cli_corpus_list(capsys):
    code, out, _ = run_cli(capsys, "corpus", "list")
    assert code == 0
    for name in CORPUS:
        assert name in out


def test_cli_corpus_run_single(capsys):
    code, out, _ = run_cli(capsys, "corpus", "run", "duplicate-bounds", "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert report["cases"]["duplicate-bounds"]["pass"] is True


def test_cli_corpus_run_all_passes_and_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "corpus", "run", "all", "--format", "machine")
    code2, out2, _ = run_cli(capsys, "corpus", "run", "all", "--format", "machine")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["all_pass"] is True
    assert len(report["cases"]) == 9


def test_cli_machine_report_round_trips_as_json(capsys):
    code, out, _ = run_cli(capsys, "abadie", corpus_file("circle-point"), "--format", "machine")
    assert code == 0
    report = json.loads(out)
    probes = report["analyses"]["abadie"]["gamma_in_T_evidence"]
    assert probes, "expected per-direction traces"
    for probe in probes:
        trace = probe["trace"]
        assert len(trace["t_values"]) == len(trace["r_norms"]) == len(trace["ratio"])


def test_cli_text_report_has_trace_columns(capsys):
    _, out, _ = run_cli(capsys, "abadie", corpus_file("circle-point"), "--format", "text")
    assert "||r||" in out and "ratio" in out and "converged" in out
