"""Dump the command line's outputs, to compare two checkouts byte for byte.

    python tools/dump_outputs.py --src CHECKOUT/src [--seed N ...] OUTDIR

Writes one file per command to OUTDIR, holding the exit code on its first
line and then everything the command wrote:

- ``corpus list``, and ``corpus run all`` in text and in machine format;
- ``corpus run all`` in machine format with every option flag set to a
  non-default value (``FLAGS``);
- ``analyze``, ``rcrcq`` and ``dependence`` in machine format, and
  ``analyze`` in text format, on every problem of rounds 0 and 1 of both
  generated workloads of ``perfbench`` (``workloads.round_problems``), for
  each seed (default 5150);
- ``analyze`` in text format on each bundled corpus problem file (not on
  the ``*.golden.json`` files beside them);
- ``analyze`` in machine format on the first ``analyze-manifold`` problem of
  each seed with an ``options`` block that sets every option key
  (``OPTIONS``), once alone and once with every option flag set too
  (``FLAGS``), so that the order of file options and flags is compared;
- ``--help`` of the top-level parser and of every subcommand (``HELP``),
  wrapped at 80 columns;
- ``analyze`` in machine and text format and ``multipliers`` in machine
  format on each fixed edge problem (``EDGES``): no constraint at all, an
  inactive inequality alone, a zero gradient row, a base point with a
  -0.0 coordinate, a cone direction whose coarsest base point leaves the
  domain, a gradient that vanishes at sample points of the largest radius
  (a rank drop, noted in the constant-rank reports), and an infeasible base
  point.

Usage errors are not dumped; the tests cover their wording.

The program is imported from ``--src``; the problems always come from this
checkout's ``perfbench``.  ``diff -r`` of two dumps is the byte-identity
check between two versions of the program.
"""

from __future__ import annotations

import argparse
import os

# One BLAS thread, as in perfbench/run.py, before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal's width

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rcrcq-chain", "analyze-manifold")
ROUNDS = (0, 1)
COMMANDS = ("analyze", "rcrcq", "dependence")
# Every option flag, each at a value other than its default.
FLAGS = ["--seed", "7", "--samples", "8", "--radii", "1e-2:1e-4:x10",
         "--t-schedule", "1e-1:1e-4:x10", "--tol-rank", "1e-7", "--ratio-tol", "1e-2",
         "--tol-feas", "1e-7", "--tol-cone", "1e-7", "--tol-active", "1e-7"]
# Every problem-file option key, each at a value other than its default and
# other than its flag's value in FLAGS, so that the order of the two shows.
OPTIONS = {"tol_rank": 1e-6, "tol_active": 1e-6, "tol_feas": 1e-6, "tol_cone": 1e-6,
           "seed": 9, "radii": "1e-1:1e-3:x10", "samples": 4,
           "t_schedule": [1e-2, 1e-3, 1e-4, 1e-5], "ratio_tol": 1e-1, "fit_degree": 2}
# Every parser whose --help is dumped: the top level and each subcommand.
HELP = ([], ["analyze"], ["rcrcq"], ["abadie"], ["multipliers"], ["dependence"],
        ["corpus"], ["corpus", "list"], ["corpus", "run"])
# Problems whose cones or critical sets have no rows, or a zero row, one
# whose Abadie probe starts outside the domain at t = 0.1 along -(1, -0.2),
# one whose gradient 1 - 10x vanishes at the radius-0.1 points x = 0.1, and
# one whose base point violates 1 - x1 <= 0.
EDGES = (
    {"name": "edge-unconstrained-minimum", "variables": ["x1", "x2"],
     "objective": "x1^2 + x2^2", "point": [0.0, 0.0]},
    {"name": "edge-unconstrained-slope", "variables": ["x1", "x2"],
     "objective": "3*x1 + 4*x2", "point": [0.0, 0.0]},
    {"name": "edge-inactive-only", "variables": ["x1", "x2"], "objective": "x1",
     "inequalities": ["x1 - 1"], "point": [0.0, 0.0]},
    {"name": "edge-zero-row", "variables": ["x1", "x2"], "objective": "x1 + x2",
     "inequalities": ["x1^2"], "point": [0.0, 0.0]},
    {"name": "edge-negative-zero", "variables": ["x1", "x2"], "objective": "x1 + x2",
     "equalities": ["x1*x2"], "point": [-0.0, 0.0]},
    {"name": "edge-base-point-outside-domain", "variables": ["x1", "x2"],
     "equalities": ["x2 + 0.01*log(x1 + 0.05) - 0.01*log(0.05)"], "point": [0.0, 0.0]},
    {"name": "edge-rank-drop", "variables": ["x"], "equalities": ["x - 5*x^2"], "point": [0.0]},
    {"name": "edge-infeasible-point", "variables": ["x1"], "objective": "x1^2",
     "inequalities": ["1 - x1"], "point": [0.0]},
)


def load_cli(src: Path):
    """``cq_analyzer.cli`` imported from ``src``, never from elsewhere."""
    sys.path.insert(0, str(src))
    import cq_analyzer.cli

    found = Path(cq_analyzer.cli.__file__).resolve().parent
    if found != (src / "cq_analyzer").resolve():
        raise SystemExit(f"dump_outputs: cq_analyzer imported from {found}, not {src}")
    return cq_analyzer.cli


def run(cli, argv: list[str]) -> str:
    """The exit code line, stdout, and stderr (if any) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except SystemExit as exc:  # --help prints, then exits
            code = str(exc.code)
        except Exception as exc:  # a crash is an output to compare too
            code = f"crash {type(exc).__name__}: {exc}"
    text = f"exit {code}\n{out.getvalue()}"
    return text + (f"--- stderr\n{err.getvalue()}" if err.getvalue() else "")


def dump(cli, src: Path, seeds: list[int], outdir: Path) -> int:
    """Write every output to ``outdir``; returns how many were written."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    outdir.mkdir(parents=True, exist_ok=True)
    outputs = {f"corpus.{fmt}": ["corpus", "run", "all", "--format", fmt]
               for fmt in ("text", "machine")}
    outputs["corpus.flags"] = ["corpus", "run", "all", "--format", "machine", *FLAGS]
    outputs["corpus.list.text"] = ["corpus", "list"]
    for command in HELP:
        outputs[".".join(["help", *command, "text"])] = [*command, "--help"]
    for path in sorted((src / "cq_analyzer" / "corpus").glob("*.json")):
        if path.name.endswith(".golden.json"):
            continue
        outputs[f"corpus-file.{path.stem}.analyze.text"] = [
            "analyze", str(path), "--format", "text"]
    with tempfile.TemporaryDirectory() as problems:
        for edge in EDGES:
            path = Path(problems) / f"{edge['name']}.json"
            path.write_text(json.dumps(edge), encoding="utf-8")
            for fmt in ("machine", "text"):
                outputs[f"{edge['name']}.analyze.{fmt}"] = [
                    "analyze", str(path), "--format", fmt]
            outputs[f"{edge['name']}.multipliers"] = [
                "multipliers", str(path), "--format", "machine"]
        for seed in seeds:
            first = workloads.round_problems("analyze-manifold", seed, 0)[0]
            path = Path(problems) / f"{first.name}.options.json"
            path.write_text(json.dumps(dict(first.data, options=OPTIONS)), encoding="utf-8")
            outputs[f"{first.name}.options.analyze"] = [
                "analyze", str(path), "--format", "machine"]
            outputs[f"{first.name}.options.flags.analyze"] = [
                "analyze", str(path), "--format", "machine", *FLAGS]
            for workload in WORKLOADS:
                for index in ROUNDS:
                    for problem in workloads.round_problems(workload, seed, index):
                        path = Path(problems) / f"{problem.name}.json"
                        path.write_text(workloads.problem_json(problem), encoding="utf-8")
                        for command in COMMANDS:
                            outputs[f"{problem.name}.{command}"] = [
                                command, str(path), "--format", "machine"]
                        outputs[f"{problem.name}.analyze.text"] = [
                            "analyze", str(path), "--format", "text"]
        for name, argv in outputs.items():
            (outdir / f"{name}.txt").write_text(run(cli, argv), encoding="utf-8")
    return len(outputs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="the checkout's src directory holding cq_analyzer")
    parser.add_argument("--seed", type=int, action="append",
                        help="workload seed, repeatable (default 5150)")
    parser.add_argument("outdir", type=Path)
    args = parser.parse_args(argv)
    count = dump(load_cli(args.src), args.src, args.seed or [5150], args.outdir)
    print(f"{count} outputs written to {args.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
