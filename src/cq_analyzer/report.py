"""Report emission: a byte-stable machine format and a human-ordered text format.

The machine format is JSON with sorted keys and every float printed at 17
significant digits, so identical runs serialize to identical bytes.  The
text format leads with the verdicts and follows with the evidence.
"""

from __future__ import annotations

import json
import math

from .analysis import section_verdict

REPORT_VERSION = 5

__all__ = ["REPORT_VERSION", "emit_report", "machine_dumps", "render_text"]


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot enter a machine report")
    if x == 0.0:
        return "0"
    return format(x, ".17g")


# What json.dumps writes for a string, without its per-call overhead.
_quote = json.encoder.encode_basestring_ascii
_BASES = (str, int, float, dict, list, tuple)  # a subclass is written as its base


def _write(value, out: list[str]) -> None:
    kind = type(value)
    if kind is float:
        out.append(_format_float(value))
    elif kind is str:
        out.append(_quote(value))
    elif kind is dict:
        out.append("{")
        for k, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError(f"machine report keys must be strings, got {key!r}")
            if k:
                out.append(", ")
            out.append(_quote(key))
            out.append(": ")
            _write(value[key], out)
        out.append("}")
    elif kind is list or kind is tuple:
        out.append("[")
        for k, item in enumerate(value):
            if k:
                out.append(", ")
            _write(item, out)
        out.append("]")
    elif kind is int:
        out.append(str(value))
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    else:
        kind = next((t for t in _BASES if isinstance(value, t)), None)
        if kind is None:
            raise TypeError(f"unsupported machine report value {value!r}")
        _write(kind(value), out)


def machine_dumps(obj) -> str:
    """Serialize to the stable machine format (sorted keys, 17-digit floats)."""
    out: list[str] = []
    _write(obj, out)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".6g")
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    return str(v)


def _render_rcrcq(section: dict, lines: list[str]) -> None:
    lines.append(
        f"  equalities={section['equality_indices']} "
        f"active={section['active_indices']} subsets={section['subset_count']}"
    )
    for sub in section["subsets"]:
        j = "{" + ",".join(str(i) for i in sub["subset"]) + "}"
        counts = {}
        for layer in sub["rank_counts_by_radius"]:
            for rank, count in layer["rank_counts"].items():
                counts[rank] = counts.get(rank, 0) + count
        sampled = " ".join(f"rank{r}:{c}" for r, c in sorted(counts.items()))
        line = (
            f"  J={j}: rank@x0={sub['rank_at_center']} sampled[{sampled}]"
            f" -> {sub['verdict']}"
        )
        if sub["witness"] is not None:
            line += f" witness@{_fmt(sub['witness']['point'])} rank={sub['witness']['rank']}"
        lines.append(line)


def _render_trace(probe: dict, lines: list[str]) -> None:
    status = "passed" if probe["passed"] else (
        "HARD FAIL" if probe["hard_fail"] else "soft fail"
    )
    lines.append(f"  direction {_fmt(probe['direction'])}: {status}")
    if probe["fail_reason"]:
        lines.append(f"    reason: {probe['fail_reason']}")
    lines.append(f"    J(d)={probe['j_set']} critical={probe['critical_set']}")
    trace = probe["trace"]
    lines.append(f"    {'t':>10}  {'||r||':>12}  {'ratio':>12}  converged")
    for t, rn, ratio, conv in zip(
        trace["t_values"], trace["r_norms"], trace["ratio"], trace["converged"]
    ):
        rn_s = "-" if rn is None else format(rn, ".6e")
        ratio_s = "-" if ratio is None else format(ratio, ".6e")
        lines.append(f"    {t:>10.1e}  {rn_s:>12}  {ratio_s:>12}  {'yes' if conv else 'no'}")
    slope = trace["decay_slope"]
    lines.append(f"    decay_slope={'-' if slope is None else format(slope, '.4f')}")


def _render_abadie(section: dict, lines: list[str]) -> None:
    if section["witness"] is not None:
        w = section["witness"]
        lines.append(f"  witness: {w['kind']} direction={_fmt(w['direction'])}")
        if w.get("detail"):
            lines.append(f"    {w['detail']}")
    if section["trivial_cone"]:
        lines.append("  linearized cone is trivial ({0}); both inclusions hold vacuously")
    cone = section["cone"]
    lines.append(
        f"  cone rows: eq={cone['eq_indices']} {_fmt(cone['eq_rows'])}"
        f" ineq={cone['ineq_indices']} {_fmt(cone['ineq_rows'])}"
    )
    for probe in section["gamma_in_T_evidence"]:
        _render_trace(probe, lines)
    for note in section.get("notes", []):
        lines.append(f"  note: {note}")


def _render_dependence(section: dict, lines: list[str]) -> None:
    lines.append(
        f"  rank k={section['rank_k']} of kappa={section['kappa']}"
        f" pivots={section['pivot_indices']}"
    )
    lines.append(f"  rank-deficient at the point: {section['laszlo_at_point']}")
    if "image_dimension" in section:
        lines.append(f"  image dimension estimate: {section['image_dimension']}")
    for rec in section["reconstructions"]:
        lines.append(
            f"  f{rec['target_index']} = g(f{list(rec['input_indices'])})"
            f" degree<= {max(sum(e) for e in rec['exponents']) if rec['exponents'] else 0}"
            f" cv-residual={_fmt(rec['cross_validated_residual'])}"
        )
    if "witness_relation" in section:
        lines.append(
            f"  witness relation '{section['witness_relation']}':"
            f" max residual {_fmt(section['witness_residual'])}"
        )
    for note in section.get("notes", []):
        lines.append(f"  note: {note}")


def _render_kkt(section: dict, lines: list[str]) -> None:
    if section["multipliers"] is not None:
        lam = ", ".join(
            f"lambda_{i}={_fmt(v)}" for i, v in sorted(
                ((int(k), v) for k, v in section["multipliers"].items())
            )
        )
        lines.append(f"  {lam}")
        lines.append(f"  stationarity residual: {_fmt(section['stationarity_residual'])}")
        if section["minimal_norm_selected"]:
            lines.append("  multiplier set is not a singleton: minimal-norm element selected")
    lines.append(f"  linearized primal value: {section['primal_value']}")
    if section["descent_certificate"] is not None:
        lines.append(
            f"  descent certificate d={_fmt(section['descent_certificate'])}"
            f" with <grad h0, d>={_fmt(section['descent_slope'])}"
        )
    for note in section.get("notes", []):
        lines.append(f"  note: {note}")


_SECTION_RENDERERS = {
    "rcrcq": _render_rcrcq,
    "abadie": _render_abadie,
    "dependence": _render_dependence,
    "kkt": _render_kkt,
}


def render_text(report: dict) -> str:
    """Human-ordered rendering: verdict summary first, evidence after."""
    lines: list[str] = []
    tool = report.get("tool", {})
    lines.append(f"{tool.get('name', 'cq-analyzer')} {tool.get('version', '')}".rstrip())
    problem = report.get("problem")
    if problem:
        lines.append(f"problem: {problem['name']} ({problem['file']})")
    if "summary" in report:
        lines.append(f"summary: {report['summary']}")
    lines.append("")
    for name, section in report.get("analyses", {}).items():
        lines.append(f"[{name}] {section_verdict(name, section)}")
        if "error" in section:
            lines.append(f"  {section['error']}")
        else:
            _SECTION_RENDERERS[name](section, lines)
        lines.append("")
    if "cases" in report:
        for case_name, case in report["cases"].items():
            status = "PASS" if case["pass"] else "FAIL"
            lines.append(f"{status} {case_name}")
            for check in case["checks"]:
                mark = "ok" if check["pass"] else "MISMATCH"
                lines.append(
                    f"  [{mark}] {check['label']}: expected {check['expected']},"
                    f" got {check['actual']}"
                )
        lines.append("")
    config = report.get("config")
    if config:
        parts = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(config.items()))
        lines.append(f"config: {parts}")
    return "\n".join(lines) + "\n"


def emit_report(report: dict, format: str = "text") -> str:
    """Serialize a report dict; format is "text" or "machine"."""
    if format == "machine":
        return machine_dumps(report)
    if format == "text":
        return render_text(report)
    raise ValueError(f"unknown report format {format!r}")
