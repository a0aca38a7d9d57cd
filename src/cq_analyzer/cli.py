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
import traceback
from pathlib import Path

from . import __version__
from .analysis import exit_code_for, run_analyses, summary_line
from .problem import OPTIONS, ProblemFileError, load_problem_file, resolve_options
from .report import REPORT_VERSION, emit_report

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 64
EXIT_SOFTWARE = 70  # EX_SOFTWARE: an internal error, never a verdict

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


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _common_flags() -> _Parser:
    """The flags every analysis and ``corpus run`` take, as a parent parser:
    one per option key that has a flag, then ``--format``."""
    p = _Parser(add_help=False)
    for key, (_, _, flag) in OPTIONS.items():
        if flag is not None:
            kind, text = flag
            p.add_argument(_flag(key), type=kind, default=None, help=text)
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


def _flag_settings(args) -> dict:
    """The :class:`ToolConfig` updates of the given flags and of
    ``CQ_ANALYZER_SEED``, each checked by the option table."""
    given = {key: getattr(args, key) for key in OPTIONS if getattr(args, key, None) is not None}
    updates = resolve_options(given, _flag)
    env_seed = os.environ.get("CQ_ANALYZER_SEED")
    if "seed" not in given and env_seed:
        try:
            seed = int(env_seed)
        except ValueError as err:
            raise _UsageError(f"CQ_ANALYZER_SEED must be an integer: {err}") from err
        updates.update(resolve_options({"seed": seed}, lambda _: "CQ_ANALYZER_SEED"))
    return updates


def _run_file_command(args) -> int:
    pf = load_problem_file(args.file)
    system = pf.system
    cfg = pf.config(_flag_settings(args))
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
    flags = _flag_settings(args)
    if args.which != "all" and args.which not in CORPUS:
        raise _UsageError(
            f"unknown corpus case '{args.which}'; see 'cq-analyzer corpus list'"
        )
    report = run_all(flags, None if args.which == "all" else [args.which])
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
    """The ``cq-analyzer`` script: :func:`main`, except that an uncaught
    exception prints its traceback and exits 70, not Python's 1, which a
    script would read as violated or refuted."""
    try:
        code = main()
    except Exception:
        traceback.print_exc()
        code = EXIT_SOFTWARE
    sys.exit(code)


if __name__ == "__main__":
    console_main()
