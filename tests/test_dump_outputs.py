"""tools/dump_outputs.py writes every output of one seed, each with its exit code."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_dump_of_one_seed_holds_every_command_and_exit_code(tmp_path):
    outdir = tmp_path / "dump"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "dump_outputs.py"), "--src", str(ROOT / "src"),
         "--seed", "5150", str(outdir)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in outdir.iterdir())
    # corpus list, corpus run in two formats and once with every flag,
    # analyze in text on the 9 corpus problem files, then 2 rounds x
    # (4 chains + 6 manifolds) x 4 outputs, one problem with every option,
    # alone and with every flag, the help of 9 parsers, and 3 outputs of
    # each of the 6 edge problems.
    assert len(names) == 4 + 9 + 2 * 10 * 4 + 2 + 9 + 6 * 3
    assert "corpus.text.txt" in names and "analyze-manifold-s5150-r1-5.dependence.txt" in names
    assert {"corpus.flags.txt", "corpus.list.text.txt",
            "analyze-manifold-s5150-r0-0.options.analyze.txt",
            "analyze-manifold-s5150-r0-0.options.flags.analyze.txt",
            "corpus-file.circle-point.analyze.text.txt",
            "rcrcq-chain-s5150-r1-3.analyze.text.txt", "help.text.txt",
            "help.corpus.run.text.txt", "edge-negative-zero.analyze.machine.txt",
            "edge-unconstrained-minimum.analyze.text.txt",
            "edge-zero-row.multipliers.txt",
            "edge-base-point-outside-domain.analyze.machine.txt"} <= set(names)
    for name in names:
        status, _, body = (outdir / name).read_text(encoding="utf-8").partition("\n")
        assert status in ("exit 0", "exit 1", "exit 2"), name
        assert "--- stderr" not in body, name
        if not name.endswith(".text.txt"):
            json.loads(body)
    assert (outdir / "corpus.machine.txt").read_text(encoding="utf-8").startswith("exit 0\n")
    assert "usage: cq-analyzer analyze" in (outdir / "help.analyze.text.txt").read_text(encoding="utf-8")
