"""Dump the command line's outputs, to compare two checkouts byte for byte.

    python tools/dump_outputs.py --src CHECKOUT/src [--seed N ...] OUTDIR

Writes one file per command to OUTDIR, holding the exit code on its first
line and then everything the command wrote:

- ``corpus run all`` in text and in machine format;
- ``analyze``, ``rcrcq`` and ``dependence`` in machine format on every
  problem of rounds 0 and 1 of both generated workloads of ``perfbench``
  (``workloads.round_problems``), for each seed (default 5150).

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

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rcrcq-chain", "analyze-manifold")
ROUNDS = (0, 1)
COMMANDS = ("analyze", "rcrcq", "dependence")


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
        except Exception as exc:  # a crash is an output to compare too
            code = f"crash {type(exc).__name__}: {exc}"
    text = f"exit {code}\n{out.getvalue()}"
    return text + (f"--- stderr\n{err.getvalue()}" if err.getvalue() else "")


def dump(cli, seeds: list[int], outdir: Path) -> int:
    """Write every output to ``outdir``; returns how many were written."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    outdir.mkdir(parents=True, exist_ok=True)
    outputs = {f"corpus.{fmt}": ["corpus", "run", "all", "--format", fmt]
               for fmt in ("text", "machine")}
    with tempfile.TemporaryDirectory() as problems:
        for seed in seeds:
            for workload in WORKLOADS:
                for index in ROUNDS:
                    for problem in workloads.round_problems(workload, seed, index):
                        path = Path(problems) / f"{problem.name}.json"
                        path.write_text(workloads.problem_json(problem), encoding="utf-8")
                        for command in COMMANDS:
                            outputs[f"{problem.name}.{command}"] = [
                                command, str(path), "--format", "machine"]
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
    count = dump(load_cli(args.src), args.seed or [5150], args.outdir)
    print(f"{count} outputs written to {args.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
