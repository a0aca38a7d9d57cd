"""Generators repeat per seed, tracer counts match hand counts, tiny passes finish."""

import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import tracer as T
import workloads as W
from conftest import BENCH_DIR, ROOT

import cq_analyzer
from cq_analyzer import ToolConfig, run_analyses
from cq_analyzer.model import ConstraintSystem

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["rcrcq-chain", "analyze-manifold"])
def test_generators_are_deterministic_per_seed(workload):
    first = [W.problem_json(p) for p in W.round_problems(workload, 11, 2)]
    again = [W.problem_json(p) for p in W.round_problems(workload, 11, 2)]
    other = [W.problem_json(p) for p in W.round_problems(workload, 12, 2)]
    assert first == again
    assert all(a != b for a, b in zip(first, other))


def _chain_k4() -> ConstraintSystem:
    """The unscaled chain -x_i + x_{i+1 mod 4}^2 <= 0 with objective sum x_i."""
    k = 4
    return ConstraintSystem.from_strings(
        "chain4", [f"x{i}" for i in range(k)],
        objective=" + ".join(f"x{i}" for i in range(k)),
        inequalities=[f"-x{i} + x{(i + 1) % k}^2" for i in range(k)],
    )


def _traced(which):
    tracer = T.Tracer(cq_analyzer)
    tracer.install()
    try:
        tracer.begin_op(0)
        run_analyses(_chain_k4(), np.zeros(4), ToolConfig(), which)
        tracer.end_op()
    finally:
        tracer.uninstall()
    return tracer.spans


def _under(spans, name, ancestor):
    def inside(span):
        while span[3] >= 0:
            span = spans[span[3]]
            if span[0] == ancestor:
                return True
        return False
    return sum(1 for s in spans if s[0] == name and inside(s))


def test_rcrcq_counts_on_unscaled_chain_k4():
    spans = _traced(["rcrcq"])
    assert _under(spans, "rank.check_crc", "rank.check_rcrcq") == 16
    assert _under(spans, "expr.value_and_gradient", "rank.check_rcrcq") == 5152
    assert _under(spans, "rank.numerical_rank", "rank.check_rcrcq") == 2415
    # The tracer is gone again after uninstall.
    assert cq_analyzer.rank.numerical_rank.__module__ == "cq_analyzer.rank"
    assert not hasattr(cq_analyzer.rank.numerical_rank, "__wrapped__")


def test_full_analysis_checks_rcrcq_twice():
    spans = _traced(["rcrcq", "abadie", "dependence", "kkt"])
    assert len(T.spans_under(spans, "rank.check_crc", "rank.check_rcrcq")) == 32
    assert sum(1 for s in spans if s[0] == "rank.check_rcrcq") == 2


def _run(args, cwd, timeout=60):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)
    return proc, time.perf_counter() - t0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_pass_finishes_within_a_minute(workload, trace):
    proc, elapsed = _run(SPEC["command"][1:] + [
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_without_program_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc, _ = _run(SPEC["command"][1:] + [
        "--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
        "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
