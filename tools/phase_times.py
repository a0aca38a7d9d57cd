"""Time each phase of a command-line call, to compare two checkouts.

    python tools/phase_times.py --src CHECKOUT/src [--seed N] [--repeat K]

Runs ``analyze`` in machine format on every problem of rounds 0-5 of the
``analyze-manifold`` workload of ``perfbench`` (``workloads.round_problems``)
and ``corpus run all`` in machine format, each operation ``K`` times through
``cli.main`` in this process, and prints for each phase the best of the
``K`` self times in milliseconds, averaged over the workload's operations:

- ``parser build``: ``cli.build_parser``;
- ``problem load``: ``load_problem_file``, parsing included;
- ``code generation``: building an expression's code, and ``compile()``:
  compiling it;
- ``value-mode evaluation``: an expression's first call in a mode, which
  the code generator computes on the point's numbers;
- ``sample plan``: evaluating the sample Jacobian;
- ``section NAME``: each analysis, without the phases above inside it;
- ``report writing``: ``emit_report``;
- ``other``: the rest of ``cli.main``;
- ``total``: the best of the ``K`` whole calls.

The phases are timed by wrapping those functions in the imported program.
The program is imported from ``--src``; the problems come from this
checkout's ``perfbench/workloads.py``.
"""

from __future__ import annotations

import argparse
import os

# One BLAS thread, as in perfbench/run.py, before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = range(6)


class Phases:
    """Self time per phase of the current call: a phase's time excludes the
    phases that run inside it."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self._stack: list[list] = []   # [name, start, seconds of inner phases]

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            self._stack.append([name, time.perf_counter(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                _, start, inner = self._stack.pop()
                spent = time.perf_counter() - start
                self.self_s[name] = self.self_s.get(name, 0.0) + spent - inner
                if self._stack:
                    self._stack[-1][2] += spent
        return timed

    def install(self, program) -> None:
        cli, analysis = program.cli, program.analysis
        import cq_analyzer.corpus as corpus
        import cq_analyzer.expr as expr

        for module in (cli, corpus):
            module.load_problem_file = self.wrap("problem load", module.load_problem_file)
        cli.build_parser = self.wrap("parser build", cli.build_parser)
        cli.emit_report = self.wrap("report writing", cli.emit_report)
        analysis.sample_jacobian = self.wrap("sample plan", analysis.sample_jacobian)
        generate = self.wrap("code generation", expr._Codegen.function)
        evaluate = self.wrap("value-mode evaluation", expr._Codegen.function)

        def function(codegen, root):  # given the point, the generator evaluates
            return (generate if codegen.x is None else evaluate)(codegen, root)

        expr._Codegen.function = function
        expr.compile = self.wrap("compile()", compile)  # a module global hides the builtin
        for name, runner in list(analysis._RUNNERS.items()):
            analysis._RUNNERS[name] = self.wrap(f"section {name}", runner)


def load_program(src: Path):
    """``cq_analyzer`` imported from ``src``, never from elsewhere."""
    sys.path.insert(0, str(src))
    import cq_analyzer
    import cq_analyzer.analysis
    import cq_analyzer.cli

    found = Path(cq_analyzer.__file__).resolve().parent
    if found != (src / "cq_analyzer").resolve():
        raise SystemExit(f"phase_times: cq_analyzer imported from {found}, not {src}")
    return cq_analyzer


def best_phases(cli, phases: Phases, argv: list[str], repeat: int) -> dict[str, float]:
    """Per phase, the least self time over ``repeat`` calls of ``argv``;
    ``other`` is what no phase covers and ``total`` the whole call."""
    best: dict[str, float] = {}
    for _ in range(repeat):
        gc.collect()
        phases.self_s = {}
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            cli.main(list(argv))
            total = time.perf_counter() - start
        times = dict(phases.self_s, other=total - sum(phases.self_s.values()), total=total)
        for name, seconds in times.items():
            best[name] = min(best.get(name, seconds), seconds)
    return best


def workload_ops(seed: int, workdir: Path) -> dict[str, list[list[str]]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    manifold = []
    for index in ROUNDS:
        for problem in workloads.round_problems("analyze-manifold", seed, index):
            path = workdir / f"{problem.name}.json"
            path.write_text(workloads.problem_json(problem), encoding="utf-8")
            manifold.append(["analyze", str(path), "--format", "machine"])
    return {"analyze-manifold": manifold,
            "corpus": [["corpus", "run", "all", "--format", "machine"]]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="the checkout's src directory holding cq_analyzer")
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--repeat", type=int, default=7,
                        help="calls per operation; the best is kept (default 7)")
    args = parser.parse_args(argv)
    program = load_program(args.src)
    phases = Phases()
    phases.install(program)
    table: dict[str, dict[str, float]] = {}
    with tempfile.TemporaryDirectory() as workdir:
        for workload, ops in workload_ops(args.seed, Path(workdir)).items():
            sums: dict[str, float] = {}
            for op in ops:
                for name, seconds in best_phases(program.cli, phases, op, args.repeat).items():
                    sums[name] = sums.get(name, 0.0) + seconds
            table[workload] = {name: 1e3 * s / len(ops) for name, s in sums.items()}
    names = sorted({name for row in table.values() for name in row},
                   key=lambda name: (name in ("other", "total"), name == "total", name))
    print(f"{'ms per operation':24}" + "".join(f"{w:>18}" for w in table))
    for name in names:
        print(f"{name:24}" + "".join(f"{row.get(name, 0.0):18.3f}" for row in table.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
