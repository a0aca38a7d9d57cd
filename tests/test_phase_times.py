"""tools/phase_times.py prints one row per phase and one column per workload."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_phase_times_prints_every_phase_for_both_workloads():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "phase_times.py"), "--src", str(ROOT / "src"),
         "--repeat", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[-2:] == ["analyze-manifold", "corpus"]
    table = {row[:24].strip(): [float(v) for v in row[24:].split()] for row in rows}
    sections = {f"section {name}" for name in ("rcrcq", "abadie", "dependence", "kkt")}
    assert {"parser build", "problem load", "code generation", "value-mode evaluation",
            "compile()", "sample plan", "report writing", "other",
            "total"} | sections == set(table)
    assert all(len(times) == 2 and min(times) >= 0.0 for times in table.values())
    # With one call per operation, the phases and the rest add up to the whole
    # call, to the printed 3 decimals.
    for column in (0, 1):
        parts = sum(times[column] for name, times in table.items() if name != "total")
        assert abs(parts - table["total"][column]) <= 0.001 * len(table)
