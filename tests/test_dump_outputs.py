"""tools/dump_outputs.py writes every output of one seed, each with its exit code,
and the verdicts of that dump match ``verdicts-5150.json``.

The manifest holds, for each file of the seed-5150 dump, the exit status,
each section's verdict word (``analysis.section_verdict``) and each
``contradiction`` flag; per-probe flags stay out of it.  A change that moves
a verdict on purpose rewrites it with

    python tools/dump_outputs.py --src src --seed 5150 DUMP
    python tests/test_dump_outputs.py DUMP > tests/verdicts-5150.json
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).resolve().parent / "verdicts-5150.json"


@pytest.fixture(scope="module")
def dump(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("dump") / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "dump_outputs.py"), "--src", str(ROOT / "src"),
         "--seed", "5150", str(outdir)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return outdir


def verdicts(outdir: Path) -> dict:
    """Per dump file: ``exit``, then ``SECTION`` (``CASE/SECTION`` in a corpus
    report) to its verdict word and ``SECTION.contradiction`` to its flag."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from cq_analyzer.analysis import section_verdict

    manifest = {}
    for path in sorted(outdir.iterdir()):
        status, _, body = path.read_text(encoding="utf-8").partition("\n")
        entry = {"exit": int(status.removeprefix("exit "))}
        if path.name.endswith(".text.txt"):
            summary = [line for line in body.splitlines() if line.startswith("summary: ")]
            for word in summary[0].split()[1:] if summary else []:
                name, _, verdict = word.partition("=")
                entry[name] = verdict
        else:
            report = json.loads(body)
            cases = {"": report, **{f"{case}/": c for case, c in report.get("cases", {}).items()}}
            for prefix, case in cases.items():
                for name, section in case.get("analyses", {}).items():
                    entry[prefix + name] = section_verdict(name, section)
                    if "contradiction" in section:
                        entry[f"{prefix}{name}.contradiction"] = section["contradiction"]
        manifest[path.name] = entry
    return manifest


def test_dump_of_one_seed_holds_every_command_and_exit_code(dump):
    names = sorted(p.name for p in dump.iterdir())
    # corpus list, corpus run in two formats and once with every flag,
    # analyze in text on the 9 corpus problem files, then 2 rounds x
    # (4 chains + 6 manifolds) x 4 outputs, one problem with every option,
    # alone and with every flag, the help of 9 parsers, and 3 outputs of
    # each of the 7 edge problems.
    assert len(names) == 4 + 9 + 2 * 10 * 4 + 2 + 9 + 7 * 3
    assert "corpus.text.txt" in names and "analyze-manifold-s5150-r1-5.dependence.txt" in names
    assert {"corpus.flags.txt", "corpus.list.text.txt",
            "analyze-manifold-s5150-r0-0.options.analyze.txt",
            "analyze-manifold-s5150-r0-0.options.flags.analyze.txt",
            "corpus-file.circle-point.analyze.text.txt",
            "rcrcq-chain-s5150-r1-3.analyze.text.txt", "help.text.txt",
            "help.corpus.run.text.txt", "edge-negative-zero.analyze.machine.txt",
            "edge-unconstrained-minimum.analyze.text.txt",
            "edge-zero-row.multipliers.txt", "edge-rank-drop.analyze.machine.txt",
            "edge-base-point-outside-domain.analyze.machine.txt"} <= set(names)
    for name in names:
        status, _, body = (dump / name).read_text(encoding="utf-8").partition("\n")
        assert status in ("exit 0", "exit 1", "exit 2"), name
        assert "--- stderr" not in body, name
        if not name.endswith(".text.txt"):
            json.loads(body)
    assert (dump / "corpus.machine.txt").read_text(encoding="utf-8").startswith("exit 0\n")
    assert "usage: cq-analyzer analyze" in (dump / "help.analyze.text.txt").read_text(encoding="utf-8")


def test_dump_verdicts_match_the_manifest(dump):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    actual = verdicts(dump)
    assert sorted(actual) == sorted(expected)
    differ = [f"{name} {key}: expected {expected[name].get(key)!r}, got {entry.get(key)!r}"
              for name, entry in actual.items()
              for key in sorted(set(entry) | set(expected[name]))
              if entry.get(key) != expected[name].get(key)]
    assert not differ, "\n".join(differ)


if __name__ == "__main__":
    lines = [f"{json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
             for name, entry in verdicts(Path(sys.argv[1])).items()]
    print("{\n" + ",\n".join(lines) + "\n}")
