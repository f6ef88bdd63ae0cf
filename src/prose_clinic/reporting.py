"""Report assembly and rendering.

A Report bundles one document's diagnostics and malady findings with the
configuration that produced them. It renders two ways: a line-oriented human
form (one finding per line, grep-friendly) and a machine form, one compact
JSON object on one line, that parses back into an equal Report.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .config import AnalysisConfig
from .detectors import REGISTRY, Diagnostic
from .document import Span
from .maladies import EvidenceRef, MaladyFinding, MaladyKind


@dataclass(frozen=True)
class Report:
    document: str
    config: AnalysisConfig
    diagnostics: tuple[Diagnostic, ...]
    maladies: tuple[MaladyFinding, ...]


def build_report(document: str, config: AnalysisConfig, diagnostics,
                 findings) -> Report:
    """Assemble a Report from detector and malady output."""
    return Report(document, config, tuple(diagnostics), tuple(findings))


def _fmt_number(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def render_human(report: Report) -> str:
    if not report.diagnostics and not report.maladies:
        return f"{report.document}: no findings\n"
    lines = [
        f"{report.document}: {len(report.diagnostics)} finding(s), "
        f"{len(report.maladies)} malady(ies)"
    ]
    for diag in report.diagnostics:
        lines.append(
            f"{report.document}:{diag.span.line}:{diag.span.column} "
            f"{diag.rule_id} {diag.message} "
            f"({_fmt_number(diag.measured)}/{_fmt_number(diag.threshold)}) "
            f"[treat: {REGISTRY[diag.rule_id].section}]"
        )
    for malady in report.maladies:
        ids = ", ".join(ref.rule_id for ref in malady.evidence)
        lines.append(
            f"  {malady.kind.value} (strength {malady.strength}): "
            f"{malady.narrative} [evidence: {ids}]"
        )
    return "\n".join(lines) + "\n"


def _span_payload(span: Span) -> dict:
    return {
        "start_byte": span.start_byte,
        "end_byte": span.end_byte,
        "line": span.line,
        "column": span.column,
    }


def render_machine(report: Report) -> str:
    payload = {
        "document": report.document,
        "config": dataclasses.asdict(report.config),
        "diagnostics": [
            {
                "rule_id": d.rule_id,
                "severity": d.severity.value,
                **_span_payload(d.span),
                "measured": d.measured,
                "threshold": d.threshold,
                "message": d.message,
                "evidence": [_span_payload(s) for s in d.evidence],
            }
            for d in report.diagnostics
        ],
        "maladies": [
            {
                "kind": m.kind.value,
                "strength": m.strength,
                "evidence": [{"rule_id": ref.rule_id, **_span_payload(ref.span)}
                             for ref in m.evidence],
                "narrative": m.narrative,
            }
            for m in report.maladies
        ],
    }
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":")) + "\n"


def _span_from(payload: dict) -> Span:
    return Span(payload["start_byte"], payload["end_byte"],
                payload["line"], payload["column"])


def parse_machine(text: str) -> Report:
    """Inverse of render_machine: reads one line of machine output. Raises
    KeyError for an unknown rule id, and ValueError for an unknown malady kind,
    a severity or narrative other than the rule's or kind's own, or a bad config."""
    data = json.loads(text)
    for d in data["diagnostics"]:
        if d["severity"] != REGISTRY[d["rule_id"]].severity.value:
            raise ValueError(f"{d['rule_id']} has severity {d['severity']!r}")
    diagnostics = tuple(
        Diagnostic(
            d["rule_id"],
            _span_from(d),
            d["measured"],
            d["threshold"],
            d["message"],
            tuple(_span_from(e) for e in d["evidence"]),
        )
        for d in data["diagnostics"]
    )
    maladies = []
    for m in data["maladies"]:
        finding = MaladyFinding(
            MaladyKind(m["kind"]), m["strength"],
            tuple(EvidenceRef(e["rule_id"], _span_from(e)) for e in m["evidence"]),
        )
        if m["narrative"] != finding.narrative:
            raise ValueError(f"{m['kind']} has narrative {m['narrative']!r}")
        maladies.append(finding)
    try:
        config = AnalysisConfig(**data["config"])
    except TypeError as exc:
        raise ValueError(f"bad config: {exc}") from None
    return Report(data["document"], config, diagnostics, tuple(maladies))
