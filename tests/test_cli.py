import dataclasses
import json
import math
from pathlib import Path

import pytest

from cq_analyzer import cli, corpus
from cq_analyzer.cli import main
from cq_analyzer.config import ToolConfig
from cq_analyzer.corpus import CORPUS, corpus_path
from cq_analyzer.model import ConstraintSystem
from cq_analyzer.problem import (
    OPTIONS,
    ProblemFileError,
    load_problem_file,
    parse_problem_dict,
    parse_schedule,
)
from cq_analyzer.report import machine_dumps


def corpus_file(name):
    return str(corpus_path(f"{name}.json"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------


def test_load_corpus_problem():
    pf = load_problem_file(corpus_file("circle-point"))
    assert pf.system.name == "circle-point"
    assert pf.system.variables == ("x1", "x2")
    assert pf.system.objective.source == "-x1"
    assert pf.point == (1.0, 0.0)
    assert pf.settings["assert_local_min"]


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


@pytest.mark.parametrize("name", [None, 3, 2.5, True, ["line"], {"a": "b"}])
def test_problem_rejects_a_name_that_is_not_a_string(name):
    with pytest.raises(ProblemFileError) as exc:
        parse_problem_dict({**_with(), "name": name})
    assert "'name' must be a string" in str(exc.value)


def test_cli_rejects_a_null_name_with_usage_exit(capsys, tmp_path):
    # Read as the string "None" and analyzed, exit 0, until names were checked.
    path = tmp_path / "null-name.json"
    path.write_text('{"name": null, "variables": ["x"], "inequalities": ["x"], "point": [0.0]}')
    code, out, err = run_cli(capsys, "rcrcq", str(path))
    assert code == 64
    assert out == ""
    assert "null-name.json" in err and "name" in err


@pytest.mark.parametrize("command", ["analyze", "abadie"])
def test_cli_reports_a_probe_base_point_outside_the_domain(capsys, tmp_path, command):
    # Along one kernel direction the base point x0 + 0.1*d leaves the domain
    # of log: its trace residuals are null in the machine report, as its
    # ||r|| is, where they used to crash the report with a non-finite value.
    path = tmp_path / "log.json"
    path.write_text(json.dumps({
        "name": "log", "variables": ["x1", "x2"], "point": [0, 0],
        "equalities": ["x2 + 0.01*log(x1 + 0.05) - 0.01*log(0.05)"]}))
    code, out, err = run_cli(capsys, command, str(path), "--format", "machine")
    assert (code, err) == (0, "")
    abadie = json.loads(out)["analyses"]["abadie"]
    assert abadie["verdict"] == "consistent"
    inside, outside = sorted((p["trace"] for p in abadie["gamma_in_T_evidence"]),
                             key=lambda trace: trace["r_norms"][0] is None)
    assert outside["r_norms"][0] is None
    assert outside["initial_residuals"][0] is None and outside["final_residuals"][0] is None
    residuals = (inside["initial_residuals"] + inside["final_residuals"]
                 + outside["initial_residuals"][1:] + outside["final_residuals"][1:])
    # A residual that reaches exactly zero is written as the integer 0.
    assert all(isinstance(r, (int, float)) and not isinstance(r, bool) and math.isfinite(r)
               for r in residuals)


def test_cli_certifies_a_line_whose_sampled_rank_drops(capsys, tmp_path):
    # The gradient 1 - 10x vanishes at x = 0.1, a sample point of the largest
    # radius, so 16 points there have rank 0.  The rank at 0 is 1 (LICQ), and
    # a drop below the center rank refutes nothing: RCRCQ is certified.
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"name": "line", "variables": ["x"],
                                "equalities": ["x - 5*x^2"], "point": [0.0]}))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "machine")
    assert code == 0
    analyses = json.loads(out)["analyses"]
    assert analyses["rcrcq"]["verdict"] == "certified-by-sampling"
    assert analyses["dependence"]["sense"] == "independent"
    [subset] = analyses["rcrcq"]["subsets"]
    assert subset["witness"] is None
    assert subset["rank_counts_by_radius"][0]["rank_counts"] == {"0": 16, "1": 16}
    assert subset["notes"] == [
        "sample points of rank below the center rank: 16, the largest at "
        "radius 0.1; a drop does not refute constant rank"
    ]


@pytest.mark.parametrize("flags", [["--tol-rank", "2"], ["--tol-feas", "nan"]])
def test_cli_rejects_invalid_float_flags_with_usage_exit(capsys, flags):
    code, out, err = run_cli(capsys, "rcrcq", corpus_file("circle-point"), *flags)
    assert code == 64
    assert out == ""


# Each of these used to end in a traceback mid-analysis or in a verdict
# without meaning: kkt and the face walk use tol_cone as a relative rank
# cutoff, which must lie in (0, 1), and the active set needs a positive
# tol_active.  A negative tol_feas made the base point infeasible (an
# abadie error section) and a negative ratio_tol failed every probe
# (inconclusive), both with exit 2.
OUT_OF_RANGE_TOLERANCES = [
    ("tol_cone", 2.0), ("tol_cone", 1.0), ("tol_cone", 0.0), ("tol_cone", -1.0),
    ("tol_active", 0.0), ("tol_active", -1e-8),
    ("tol_feas", 0.0), ("tol_feas", -1e-8), ("ratio_tol", 0.0), ("ratio_tol", -1.0),
]


@pytest.mark.parametrize("key, value", OUT_OF_RANGE_TOLERANCES)
def test_cli_rejects_an_out_of_range_tolerance_flag(capsys, key, value):
    flag = "--" + key.replace("_", "-")
    for argv in (["multipliers", corpus_file("parallel-equalities")], ["corpus", "run", "all"]):
        code, out, err = run_cli(capsys, *argv, f"{flag}={value}")
        assert code == 64 and out == ""
        assert err.startswith(f"cq-analyzer: {flag}: ")


@pytest.mark.parametrize("flag", ["--tol-feas", "--ratio-tol"])
def test_cli_takes_a_negative_flag_value_with_an_exponent(capsys, flag):
    # argparse's negative-number pattern has no exponent, so the
    # space-separated form used to read -1e-08 as an option name.  Read as
    # a value, it reaches the option table, which names the flag.
    argv = ["rcrcq", corpus_file("circle-point"), "--format", "machine"]
    code, out, err = run_cli(capsys, *argv, flag, "-1e-08")
    assert code == 64 and out == ""
    assert err.startswith(f"cq-analyzer: {flag}: ") and "positive" in err
    assert run_cli(capsys, *argv, f"{flag}=-1e-08") == (code, out, err)


def test_cli_names_a_negative_exponent_flag_value_by_the_option_table(capsys):
    code, out, err = run_cli(capsys, "rcrcq", corpus_file("circle-point"), "--tol-active", "-1e-08")
    assert code == 64 and out == ""
    assert err.startswith("cq-analyzer: --tol-active: ")


@pytest.mark.parametrize("key, value", OUT_OF_RANGE_TOLERANCES)
def test_cli_rejects_an_out_of_range_tolerance_in_file(capsys, tmp_path, key, value):
    path = corpus_copy(tmp_path, "parallel-equalities", options={key: value})
    code, out, err = run_cli(capsys, "multipliers", path)
    assert code == 64 and out == ""
    assert f"option '{key}'" in err and "parallel-equalities.json" in err


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


@pytest.mark.parametrize(
    "key, schedule", [("t_schedule", [0.1, 0.01, 0.01, 0.001]), ("radii", [0.1, 0.1, 0.01])]
)
def test_cli_rejects_repeated_schedule_value_in_file(capsys, tmp_path, key, schedule):
    # A repeated value was accepted with exit 0: the probe ran t = 0.01 twice
    # (leaving two distinct values in its 3-value tail), the plan drew the
    # 0.1 layer twice.
    path = corpus_copy(tmp_path, "circle-point", options={key: schedule})
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 64 and out == ""
    assert f"option '{key}'" in err and "strictly descending" in err


def test_problem_rejects_an_empty_variable_list(tmp_path):
    # With no variables every normal vector of the sample plan is empty, so
    # its zero-norm redraw never ended: analyze did not return.
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "name": "empty", "variables": [], "equalities": [], "inequalities": [], "point": [],
    }))
    with pytest.raises(ProblemFileError) as exc:
        load_problem_file(path)
    assert "empty.json" in str(exc.value) and "'variables'" in str(exc.value)


def test_cli_rejects_an_overlong_schedule_list_in_file(capsys, tmp_path):
    # 101 radii were accepted with exit 0: 101 layers of sample points.
    radii = [0.1 * 0.9 ** k for k in range(101)]
    path = corpus_copy(tmp_path, "circle-point", options={"radii": radii})
    code, out, err = run_cli(capsys, "rcrcq", path)
    assert code == 64 and out == ""
    assert "option 'radii'" in err and "at most 100" in err


def test_cli_rejects_an_overlong_geometric_schedule_flag(capsys):
    # A factor just above 1 expanded to hundreds of thousands of radii.
    with pytest.raises(ProblemFileError):
        parse_schedule("1:0.5:x1.000001")
    code, out, err = run_cli(capsys, "rcrcq", corpus_file("circle-point"),
                             "--radii", "1e-1:1e-3:x1.04")
    assert code == 64 and out == ""
    assert "--radii" in err and "more than 100 values" in err


def log_objective_problem(tmp_path):
    # The objective leaves its domain at the base point; the constraints do not.
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "name": "p", "variables": ["x1", "x2"], "objective": "log(x1)",
        "inequalities": ["-x1", "-x2"], "point": [0, 0],
    }))
    return str(path)


@pytest.mark.parametrize("command,verdict", [
    ("rcrcq", "certified-by-sampling"), ("abadie", "consistent"),
])
def test_cli_objective_domain_error_spares_the_constraint_checks(capsys, tmp_path, command,
                                                                 verdict):
    code, out, _ = run_cli(capsys, command, log_objective_problem(tmp_path), "--format", "machine")
    assert code == 0
    assert json.loads(out)["analyses"][command]["verdict"] == verdict


def test_cli_objective_domain_error_is_only_a_kkt_error(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "analyze", log_objective_problem(tmp_path), "--format", "machine")
    report = json.loads(out)
    assert code == 2
    assert report["summary"] == (
        "rcrcq=certified-by-sampling abadie=consistent dependence=independent kkt=error"
    )
    assert report["analyses"]["kkt"]["error"] == (
        "objective: logarithm of a non-positive value in 'log(x1)'"
    )


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


def test_cli_overflowing_dependence_fit_is_an_error_section(capsys, tmp_path):
    # The pivot offsets near 1e200 overflow the fit's cubic monomials: this
    # used to end in a LinAlgError traceback with exit 70.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "name": "big", "variables": ["x1", "x2"],
        "equalities": ["1e200*x1", "2e200*x1"], "point": [1, 0],
    }))
    code, out, err = run_cli(capsys, "analyze", str(path), "--format", "machine")
    assert (code, err) == (2, "")
    dependence = json.loads(out)["analyses"]["dependence"]
    assert dependence["error_kind"] == "ReconstructionError"
    assert "reconstruction failed for function 2: held-out residual inf" in dependence["error"]


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
    cfg = pf.config()
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


def test_console_main_exits_70_on_a_crash(capsys, monkeypatch):
    # Python exits 1 on an uncaught exception, the code of violated or refuted.
    def crash(argv=None):
        raise RuntimeError("SVD did not converge")

    monkeypatch.setattr(cli, "main", crash)
    with pytest.raises(SystemExit) as exc:
        cli.console_main()
    assert exc.value.code == 70
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "RuntimeError: SVD did not converge" in err


def test_cli_subset_guard_states_the_count_and_the_limit(capsys, tmp_path):
    # 21 active inequalities -x_i <= 0 at 0.  The message used to advise a
    # higher activity tolerance, which keeps more inequalities active.
    names = [f"x{i}" for i in range(1, 22)]
    path = tmp_path / "orthant.json"
    path.write_text(json.dumps({"name": "orthant", "variables": names,
                                "inequalities": [f"-{x}" for x in names], "point": [0.0] * 21}))
    code, out, _ = run_cli(capsys, "rcrcq", str(path), "--format", "machine")
    section = json.loads(out)["analyses"]["rcrcq"]
    assert code == 2 and section["error_kind"] == "SubsetGuardError"
    assert section["error"] == (
        "|I(x0)| = 21 active constraints, more than the 20 whose 2^|I(x0)| subsets "
        "RCRCQ checks; a lower tol_active (--tol-active) leaves out inequalities that "
        "are only nearly active"
    )


def test_cli_analyze_includes_config_snapshot(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", corpus_file("circle-point"),
        "--format", "machine", "--tol-rank", "1e-7",
    )
    assert code == 0
    report = json.loads(out)
    assert report["report_version"] == 5
    assert report["config"]["tol_rank"] == 1e-7
    assert report["config"]["seed"] == 42
    assert set(report["analyses"]) == {"rcrcq", "abadie", "dependence", "kkt"}
    assert "rcrcq" not in report["analyses"]["abadie"]
    assert report["analyses"]["kkt"]["contradiction"] is False


def corpus_copy(tmp_path, name, **changes):
    problem = json.loads(Path(corpus_file(name)).read_text())
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


# Option key -> (non-default file value, the same value as a flag, another
# non-default flag value); fit_degree has no flag.
OPTION_VALUES = {
    "tol_rank": (1e-7, "1e-7", "1e-6"),
    "tol_active": (1e-7, "1e-7", "1e-6"),
    "tol_feas": (1e-7, "1e-7", "1e-6"),
    "tol_cone": (1e-7, "1e-7", "1e-6"),
    "seed": (7, "7", "11"),
    "radii": ("1e-2:1e-4:x10", "1e-2:1e-4:x10", "1e-1:1e-3:x10"),
    "samples": (8, "8", "4"),
    "t_schedule": ([0.1, 0.01, 0.001, 0.0001], "1e-1:1e-4:x10", "1e-2:1e-5:x10"),
    "ratio_tol": (1e-2, "1e-2", "1e-1"),
    "fit_degree": (2, None, None),
}
FLAGGED = [key for key, (_, flag, _) in OPTION_VALUES.items() if flag is not None]


def config_snapshot(capsys, path, *flags):
    code, out, err = run_cli(capsys, "rcrcq", path, "--format", "machine", *flags)
    assert code == 0, err
    return json.loads(out)["config"]


def test_tool_config_fields_are_the_option_table_and_assert_local_min():
    fields = [f.name for f in dataclasses.fields(ToolConfig)]
    table = [field for field, _, _ in OPTIONS.values()]
    assert sorted(fields) == sorted(table + ["assert_local_min"])


@pytest.mark.parametrize("key", sorted(OPTIONS))
def test_file_option_and_flag_give_the_same_snapshot(capsys, tmp_path, key):
    value, flag_value, _ = OPTION_VALUES[key]
    default = config_snapshot(capsys, corpus_file("circle-point"))
    from_file = config_snapshot(
        capsys, corpus_copy(tmp_path, "circle-point", options={key: value})
    )
    field = OPTIONS[key][0]
    assert from_file[field] != default[field]
    assert {k for k in default if default[k] != from_file[k]} == {field}
    if flag_value is not None:
        flag = "--" + key.replace("_", "-")
        assert config_snapshot(capsys, corpus_file("circle-point"), flag, flag_value) == from_file


@pytest.mark.parametrize("key", FLAGGED)
def test_flag_beats_file_option(capsys, tmp_path, key):
    value, _, other = OPTION_VALUES[key]
    flag = "--" + key.replace("_", "-")
    path = corpus_copy(tmp_path, "circle-point", options={key: value})
    assert config_snapshot(capsys, path, flag, other) == config_snapshot(
        capsys, corpus_file("circle-point"), flag, other
    )


@pytest.mark.parametrize(
    "flags", [["--tol-rank", "2"], ["--tol-feas", "nan"], ["--seed", "-1"], ["--samples", "0"],
              ["--radii", "x"], ["--t-schedule", "1e-3:1e-3:x10"]],
)
def test_cli_flag_errors_name_the_flag(capsys, flags):
    code, out, err = run_cli(capsys, "rcrcq", corpus_file("circle-point"), *flags)
    assert code == 64 and out == ""
    assert err.startswith(f"cq-analyzer: {flags[0]}: ")


def test_cli_parses_each_problem_file_once(capsys, monkeypatch):
    calls = []
    parse_system = ConstraintSystem.from_strings.__func__

    def counted(cls, *args, **kwargs):
        calls.append(args[0])
        return parse_system(cls, *args, **kwargs)

    monkeypatch.setattr(ConstraintSystem, "from_strings", classmethod(counted))
    code, _, _ = run_cli(capsys, "analyze", corpus_file("circle-point"))
    assert code == 0
    assert calls == ["circle-point"]


@pytest.mark.parametrize(
    "field, value",
    [("objective", 5), ("inequalities", [5]), ("equalities", "x"), ("assert_local_min", "false"),
     ("options", []), ("variables", ["x", "x"])],
)
def test_cli_rejects_malformed_top_level_field_with_usage_exit(capsys, tmp_path, field, value):
    # A number objective or constraint ended in a TypeError traceback with
    # exit 1; a string of equalities was read as a list of its characters;
    # "false" counted as an asserted local minimum; an empty list of options
    # passed for an empty object; a repeated variable name ended in a
    # ValueError traceback.  All ran at load time.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad", "variables": ["x"], "objective": "x", "equalities": [],
        "inequalities": ["x"], "point": [0.0], field: value,
    }))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 64 and out == ""
    assert "bad.json" in err and f"'{field}'" in err


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


def corpus_case_with_options(monkeypatch, tmp_path, name, options):
    """Make ``corpus run`` read case ``name`` with ``options`` in its problem file."""
    path = corpus_copy(tmp_path, name, options=options)
    monkeypatch.setattr(corpus, "load_case", lambda case: (CORPUS[case], load_problem_file(path)))


def corpus_case_config(capsys, name, *flags):
    code, out, err = run_cli(capsys, "corpus", "run", name, "--format", "machine", *flags)
    assert code == 0, err
    return json.loads(out)["cases"][name]["config"]


def test_cli_corpus_run_flags_beat_case_options(capsys, monkeypatch, tmp_path):
    # corpus run applied a case's options over the flags, unlike every other command.
    corpus_case_with_options(monkeypatch, tmp_path, "circle-point", {"seed": 7, "tol_rank": 1e-7})
    assert corpus_case_config(capsys, "circle-point")["seed"] == 7
    cfg = corpus_case_config(capsys, "circle-point", "--seed", "11", "--tol-rank", "1e-6")
    assert (cfg["seed"], cfg["tol_rank"]) == (11, 1e-6)


def test_cli_corpus_run_env_seed_beats_case_options(capsys, monkeypatch, tmp_path):
    corpus_case_with_options(monkeypatch, tmp_path, "circle-point", {"seed": 7})
    monkeypatch.setenv("CQ_ANALYZER_SEED", "5")
    assert corpus_case_config(capsys, "circle-point")["seed"] == 5


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


def nested_keys(value) -> set:
    """Every key of every dict nested in ``value``."""
    if isinstance(value, dict):
        return set(value).union(*(nested_keys(v) for v in value.values()))
    if isinstance(value, list):
        return set().union(*(nested_keys(v) for v in value))
    return set()


def test_settings_appear_only_in_the_config_snapshot(capsys):
    _, out, _ = run_cli(capsys, "corpus", "run", "all", "--format", "machine")
    reports = [json.loads(out)]
    sections = [case["analyses"] for case in reports[0]["cases"].values()]
    for name in sorted(CORPUS):
        _, out, _ = run_cli(capsys, "analyze", corpus_file(name), "--format", "machine")
        reports.append(json.loads(out))
        sections.append(reports[-1]["analyses"])
    for report in reports:
        assert not nested_keys(report) & {"tolerance_used", "sampler", "base_ranks"}
    for analyses in sections:
        assert "config" not in nested_keys(analyses)


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
