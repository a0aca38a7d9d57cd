"""End-to-end benchmark of the cq-analyzer command line.

    python3 perfbench/run.py --workload rcrcq-chain --seed 1 --seconds 20 --trace 0

Runs one workload closed-loop, one operation at a time, in this process.
An operation is one in-process ``cli.main([...])`` call with stdout captured;
after each one the calibration kernel (``calib.py``) runs once per tenth of a
second the operation took (at least once), and times are reported in units
of the mean kernel call (``ref``).  Every output is checked by
``workloads.py``.  The last line of stdout is the result object; the line
before it holds the run's provenance, which is also written with the
per-layer detail to ``perfbench/out/``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass over the same problems and reports the per-layer
metrics from the spans of ``tracer.py``.
"""

from __future__ import annotations

import argparse
import os

# Pin BLAS to one thread before numpy is imported, here and in children.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
OUT = BENCH_DIR / "out"

WORKLOADS = ("rcrcq-chain", "analyze-manifold", "corpus")
SETUP_REPEATS = 5
KERNEL_EVERY_S = 0.1
EXIT_NO_PROGRAM = 3


class Op:
    """One operation: the CLI arguments plus how to check its output."""

    def __init__(self, argv, check):
        self.argv = argv
        self.check = check          # (exit code, report dict) -> None or raises


def _load_program():
    """Import ``cq_analyzer`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "cq_analyzer" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {SRC}\n")
        sys.exit(EXIT_NO_PROGRAM)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cq_analyzer
    import cq_analyzer.cli

    if Path(cq_analyzer.__file__).resolve().parent != (SRC / "cq_analyzer").resolve():
        sys.stderr.write(f"perfbench: cq_analyzer imported from {cq_analyzer.__file__}\n")
        sys.exit(EXIT_NO_PROGRAM)
    return cq_analyzer


def _round_ops(workload: str, seed: int, index: int, workdir: Path) -> list[Op]:
    """Generate and write one round's problem files; return its operations."""
    import workloads as W

    if workload == "corpus":
        return [Op(["corpus", "run", "all", "--format", "machine"],
                   lambda code, report: W.check_corpus(code, report))]
    command = "rcrcq" if workload == "rcrcq-chain" else "analyze"
    checker = W.check_rcrcq_chain if workload == "rcrcq-chain" else W.check_analyze_manifold
    ops = []
    for problem in W.round_problems(workload, seed, index):
        path = workdir / f"{problem.name}.json"
        path.write_text(W.problem_json(problem), encoding="utf-8")
        ops.append(Op([command, str(path), "--format", "machine"],
                      lambda code, report, p=problem: checker(p, code, report)))
    return ops


def _warmup_op(workload: str, workdir: Path) -> Op:
    """A fixed, seed-independent warm-up operation for the workload."""
    return _round_ops(workload, 0, 0, workdir)[0]


def _call(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _setup(workload: str, seed: int, workdir: Path):
    """Everything before the first timed operation; returns (program, ops)."""
    program = _load_program()
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    workdir.mkdir(parents=True, exist_ok=True)
    first = _round_ops(workload, seed, 0, workdir)
    _call(program.cli, _warmup_op(workload, workdir).argv)
    return program, first


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: time one cold set-up and print the seconds."""
    t0 = time.perf_counter()
    workdir = WORK / f"setup-{os.getpid()}"
    try:
        _setup(workload, seed, workdir)
        print(repr(time.perf_counter() - t0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set up cold in fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(proc.returncode or 1)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Timings:
    """Operation seconds and the kernel calls that followed them."""

    def __init__(self):
        self.op_s: list[float] = []
        self.kernel_s: list[float] = []

    def ref_per_op(self) -> float:
        """Mean operation time in units of the mean kernel call."""
        return (sum(self.op_s) / len(self.op_s)) / (sum(self.kernel_s) / len(self.kernel_s))


class Runner:
    """Runs operations, times them against the kernel and checks outputs."""

    def __init__(self, program, kernel, tracer=None):
        self.cli = program.cli
        self.kernel = kernel
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0             # operations that raised instead of reporting
        self.wrong = 0              # outputs the checker rejected
        self.errors: list[str] = []
        self.outputs: list[str] = []

    def run(self, op: Op, timings: Timings, traced: bool = False) -> None:
        self.attempted += 1
        # Each operation and each kernel call starts from a collected heap, as
        # a fresh CLI process would; a collection inherited from the previous
        # call would land in whichever timing happens to trigger it.
        gc.collect()
        if traced:
            self.tracer.begin_op(self.attempted)
        t0 = time.perf_counter()
        try:
            code, out = _call(self.cli, op.argv)
        except Exception as err:  # a crash is a failed operation, not a stop
            code, out = None, ""
            self.errors.append(f"{op.argv}: {type(err).__name__}: {err}")
        op_s = time.perf_counter() - t0
        if traced:
            self.tracer.end_op()
        gc.collect()
        # The machine's speed drifts within an operation, so the kernel
        # samples it in proportion to the operation's length.
        timings.op_s.append(op_s)
        for _ in range(max(1, round(op_s / KERNEL_EVERY_S))):
            timings.kernel_s.append(self.kernel.timed())
        self.outputs.append(out)
        if code is None:
            self.failed += 1
            return
        try:
            op.check(code, json.loads(out))
        except Exception as err:
            self.wrong += 1
            self.errors.append(f"{op.argv}: {type(err).__name__}: {err}")


def _median(values):
    return statistics.median(values) if values else 0.0


def provenance(args, program, setup_times) -> dict:
    import numpy as np

    try:
        # The ceiling keeps git from reporting a repository above the checkout.
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit_id = commit.stdout.strip() if commit.returncode == 0 else "not a git checkout"
    except (OSError, subprocess.SubprocessError):
        commit_id = "not a git checkout"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit_id,
        "program_version": program.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "setup_s_samples": setup_times,
    }


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "cq_analyzer").glob("*.py")))


def per_layer(spans, first_ops: set, timed_ops: set, kernel_mean: float) -> dict:
    """Per-layer metrics: counts from the first traced round, times from all."""
    import tracer as T

    n_first, n_timed = len(first_ops), len(timed_ops)
    counts = T.summarize(spans, first_ops)
    times = T.summarize(spans, timed_ops)

    def calls(name):
        return counts.get(name, {}).get("calls", 0) / n_first

    def mean_s(name):
        row = times.get(name)
        return row["total_ns"] / row["calls"] * 1e-9 if row and row["calls"] else 0.0

    def self_ref(layer):
        ns = sum(row["self_ns"] for name, row in times.items()
                 if T.layer_of(name) == layer)
        return ns * 1e-9 / n_timed / kernel_mean

    def info(name):
        return counts.get(name, {}).get("info", [])

    subsets = T.spans_under(spans, "rank.check_crc", "rank.check_rcrcq", first_ops)
    subset_times = T.spans_under(spans, "rank.check_crc", "rank.check_rcrcq", timed_ops)
    subset_s = (sum(s[2] - s[1] for s in subset_times) * 1e-9 / len(subset_times)
                if subset_times else 0.0)
    crc = info("rank.check_crc")
    corrections = info("tangent.ljusternik_correct")
    domain_errors = sum(
        row["errors"].get("DomainEvaluationError", 0)
        for name, row in counts.items() if T.layer_of(name) == "expr"
    )
    m = {
        "expr.grad_calls": (calls("expr.value_and_gradient"), "count"),
        "expr.value_calls": (calls("expr.evaluate"), "count"),
        "expr.grad_us": (mean_s("expr.value_and_gradient") * 1e6, "us"),
        "expr.domain_errors": (domain_errors / n_first, "count"),
        "model.evaluate_point_calls": (calls("model.evaluate_point"), "count"),
        "rank.rcrcq_calls": (calls("rank.check_rcrcq"), "count"),
        "rank.subsets": (len(subsets) / n_first, "count"),
        "rank.subset_ref": (subset_s / kernel_mean, "ref"),
        "rank.svd_calls": (calls("rank.numerical_rank"), "count"),
        "rank.svd_us": (mean_s("rank.numerical_rank") * 1e6, "us"),
        "rank.points": (sum(t for t, _ in crc) / n_first, "count"),
        "rank.points_skipped": (sum(s for _, s in crc) / n_first, "count"),
        "tangent.probes": (calls("tangent.probe_tangent"), "count"),
        "tangent.probe_ref": (mean_s("tangent.probe_tangent") / kernel_mean, "ref"),
        "tangent.corrector_calls": (calls("tangent.ljusternik_correct"), "count"),
        "tangent.corrector_iters": (sum(i for i, _ in corrections) / n_first, "count"),
        "tangent.corrector_converged": (sum(1 for _, c in corrections if c) / n_first, "count"),
        "tangent.corrector_us": (mean_s("tangent.ljusternik_correct") * 1e6, "us"),
        "tangent.estimate_calls": (calls("tangent.tangent_direction_estimate"), "count"),
        "tangent.estimate_ref": (mean_s("tangent.tangent_direction_estimate") / kernel_mean, "ref"),
        "cones.nnls_calls": (calls("cones.nonneg_lstsq"), "count"),
        "cones.nnls_us": (mean_s("cones.nonneg_lstsq") * 1e6, "us"),
        "kkt.calls": (calls("kkt.kkt_report"), "count"),
        "dependence.fits": (calls("dependence.reconstruct_dependent"), "count"),
        "problem.load_us": (mean_s("problem.load_problem_file") * 1e6, "us"),
        "report.bytes": (sum(info("report.emit_report")) / n_first, "bytes"),
    }
    for layer in T.LAYERS:
        m[f"{layer}.self_ref"] = (self_ref(layer), "ref")
    return m


def measure(args, program, first_ops: list[Op], workdir: Path) -> tuple[dict, dict]:
    import calib
    import tracer as T

    kernel = calib.Kernel()
    for _ in range(20):
        kernel.run()
    tracer = T.Tracer(program) if args.trace else None
    runner = Runner(program, kernel, tracer)
    untraced, traced = Timings(), Timings()
    first_traced: set = set()     # operation ids of the first traced round
    ops = first_ops
    start = time.perf_counter()
    index = 0
    while True:
        for op in ops:
            runner.run(op, untraced)
        if args.trace:
            # The traced pass repeats the round: outputs must match byte for byte.
            outputs = runner.outputs[-len(ops):]
            tracer.install()
            try:
                for op, expected in zip(ops, outputs):
                    runner.run(op, traced, traced=True)
                    if index == 0:
                        first_traced.add(runner.attempted)
                    if runner.outputs[-1] != expected:
                        runner.wrong += 1
                        runner.errors.append(f"{op.argv}: traced output differs")
            finally:
                tracer.uninstall()
        index += 1
        if time.perf_counter() - start >= args.seconds:
            break
        ops = _round_ops(args.workload, args.seed, index, workdir)
    if not args.trace:
        # Determinism: the first operation again, untimed, byte for byte.
        if _call(program.cli, first_ops[0].argv)[1] != runner.outputs[0]:
            runner.wrong += 1
            runner.errors.append("repeated operation gave different output")

    ref_per_problem = untraced.ref_per_op()
    detail = {"errors": runner.errors[:20], "rounds": index,
              "op_s": untraced.op_s, "kernel_s": untraced.kernel_s}
    if not args.trace:
        metrics = {
            "time_per_problem_ref": (ref_per_problem, "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        kernel_mean = sum(traced.kernel_s) / len(traced.kernel_s)
        timed_traced = {s[4] for s in tracer.spans if s[0] == T.ROOT}
        metrics = per_layer(tracer.spans, first_traced, timed_traced, kernel_mean)
        metrics.update({
            "calib.kernel_s": (_median(untraced.kernel_s + traced.kernel_s), "s"),
            "calib.problem_s": (sum(untraced.op_s) / len(untraced.op_s), "s"),
            "trace.overhead_ref": (traced.ref_per_op() - ref_per_problem, "ref"),
            "src.lines": (src_lines(), "lines"),
        })
        detail["layers"] = {
            name: {"calls": row["calls"], "total_ns": row["total_ns"],
                   "self_ns": row["self_ns"], "errors": dict(row["errors"])}
            for name, row in sorted(T.summarize(tracer.spans, first_traced).items())
        }
        first = min(first_traced)
        detail["spans_of_first_traced_op"] = [s[:5] for s in tracer.spans if s[4] == first]
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    _load_program()  # fail fast, before spawning set-up probes
    setup_times = measure_setup(args.workload, args.seed)
    workdir = WORK / f"run-{os.getpid()}"
    try:
        program, first_ops = _setup(args.workload, args.seed, workdir)
        result, detail = measure(args, program, first_ops, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": _median(setup_times), "unit": "s"}
    prov = provenance(args, program, setup_times)
    prov.update(attempted=result["attempted"], failed=result["failed"])
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(
        {"provenance": prov, "result": result, "detail": detail}, indent=1) + "\n")
    for line in detail["errors"]:
        sys.stderr.write(f"perfbench: {line}\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
