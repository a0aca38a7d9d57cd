"""Command-line front end.

Subcommands: ``analyze`` (every applicable analysis), ``rcrcq``, ``abadie``,
``multipliers``, ``dependence``, ``corpus list``, and ``corpus run
[name|all]``.  Exit codes: 0 for consistent/certified verdicts, 1 for
violated/refuted, 2 for inconclusive (including numerical domain errors),
64 for usage or file errors.

Tolerances and schedules resolve as: built-in defaults, then the problem
file's ``options`` block, then explicit command-line flags.  The
``CQ_ANALYZER_SEED`` environment variable overrides the seed when the
``--seed`` flag is absent.  Every effective setting appears in the report's
config snapshot.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .analysis import exit_code_for, run_analyses, summary_line
from .config import ToolConfig
from .problem import OPTIONS, ProblemFileError, load_problem_file, resolve_options
from .report import REPORT_VERSION, emit_report

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64

_ANALYSIS_COMMANDS = {
    "analyze": None,  # resolved per problem: everything applicable
    "rcrcq": ("rcrcq",),
    "abadie": ("abadie",),
    "multipliers": ("kkt",),
    "dependence": ("dependence",),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A flag value such as -1e-08 is a number, not an option name;
        # argparse's own pattern misses the exponent.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):  # argparse would exit(2); the contract is 64
        raise _UsageError(message)


def _common_flags() -> _Parser:
    """The flags every analysis and ``corpus run`` take, as a parent parser."""
    p = _Parser(add_help=False)
    p.add_argument("--tol-rank", type=float, default=None, help="relative SVD rank cutoff (default 1e-8)")
    p.add_argument("--tol-active", type=float, default=None, help="activity tolerance (default 1e-8)")
    p.add_argument("--tol-feas", type=float, default=None, help="feasibility tolerance (default 1e-8)")
    p.add_argument("--tol-cone", type=float, default=None, help="cone membership tolerance (default 1e-8)")
    p.add_argument("--seed", type=int, default=None, help="sampler seed (default 42; env CQ_ANALYZER_SEED)")
    p.add_argument("--radii", default=None, help="radius schedule start:end:xFACTOR (default 1e-1:1e-5:x10)")
    p.add_argument("--samples", type=int, default=None, help="samples per radius (default 32)")
    p.add_argument("--t-schedule", default=None, help="corrector t schedule (default 1e-1:1e-5:x10)")
    p.add_argument("--ratio-tol", type=float, default=None, help="pass bound on final ||r||/t (default 1e-3)")
    p.add_argument("--format", choices=("text", "machine"), default="text", help="report format")
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="cq-analyzer", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cq-analyzer {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_flags()]
    for name, help_text in (
        ("analyze", "run every applicable analysis"),
        ("rcrcq", "constant-rank qualification check over all active subsets"),
        ("abadie", "Abadie check: linearized cone within the tangent cone"),
        ("multipliers", "Lagrange multipliers and the linearized primal/dual pair"),
        ("dependence", "functional dependence classification"),
    ):
        p = sub.add_parser(name, help=help_text, parents=common)
        p.add_argument("file", help="problem file (JSON)")
    corpus = sub.add_parser("corpus", help="bundled example problems")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_sub.add_parser("list", help="list bundled cases")
    runp = corpus_sub.add_parser("run", help="re-run bundled cases against goldens", parents=common)
    runp.add_argument("which", nargs="?", default="all", help="case name or 'all'")
    return parser


def _config_from_args(args, file_options_cfg: ToolConfig) -> ToolConfig:
    """Apply the given flags, checked by the option table, on top of the file's."""
    given = {key: getattr(args, key) for key in OPTIONS if getattr(args, key, None) is not None}
    updates = resolve_options(given, lambda key: "--" + key.replace("_", "-"))
    env_seed = os.environ.get("CQ_ANALYZER_SEED")
    if "seed" not in given and env_seed:
        try:
            seed = int(env_seed)
        except ValueError as err:
            raise _UsageError(f"CQ_ANALYZER_SEED must be an integer: {err}") from err
        updates.update(resolve_options({"seed": seed}, lambda _: "CQ_ANALYZER_SEED"))
    return replace(file_options_cfg, **updates)


def _run_file_command(args) -> int:
    pf = load_problem_file(args.file)
    system = pf.system
    cfg = _config_from_args(args, pf.config(ToolConfig()))
    which = _ANALYSIS_COMMANDS[args.command]
    if which is None:
        which = ["rcrcq", "abadie"]
        if system.all_constraints:
            which.append("dependence")
        if system.objective is not None:
            which.append("kkt")
    sections = run_analyses(system, pf.x0, cfg, which)
    report = {
        "report_version": REPORT_VERSION,
        "tool": {"name": "cq-analyzer", "version": __version__},
        "problem": {"name": system.name, "file": Path(args.file).name},
        "config": cfg.to_dict(),
        "analyses": sections,
        "summary": summary_line(sections),
    }
    sys.stdout.write(emit_report(report, args.format))
    return exit_code_for(sections)


def _run_corpus_command(args) -> int:
    from .corpus import CORPUS, run_all

    if args.corpus_command == "list":
        for name in sorted(CORPUS):
            sys.stdout.write(f"{name}: {CORPUS[name]['description']}\n")
        return EXIT_OK
    cfg = _config_from_args(args, ToolConfig())
    if args.which != "all" and args.which not in CORPUS:
        raise _UsageError(
            f"unknown corpus case '{args.which}'; see 'cq-analyzer corpus list'"
        )
    report = run_all(cfg, None if args.which == "all" else [args.which])
    sys.stdout.write(emit_report(report, args.format))
    return EXIT_OK if report["all_pass"] else EXIT_NEGATIVE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "corpus":
            return _run_corpus_command(args)
        return _run_file_command(args)
    except _UsageError as err:
        sys.stderr.write(f"cq-analyzer: {err}\n")
        return EXIT_USAGE
    except ProblemFileError as err:
        sys.stderr.write(f"cq-analyzer: {err}\n")
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
