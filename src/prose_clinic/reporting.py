"""Report assembly and rendering.

A Report bundles one document's diagnostics and malady findings with the
configuration that produced them. It renders two ways: a line-oriented human
form (one finding per line, grep-friendly) and a machine form, one compact
JSON object on one line, that parses back into an equal Report.
render_machine writes the bytes json.dumps would, with f-strings and no dict
per finding: strings through json's encode_basestring, each span through one
%-format of its four ints, numbers through repr. parse_machine checks each
span it reads, since a Span is not checked when it is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from json.encoder import encode_basestring as _encode

from .config import AnalysisConfig, ConfigError
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


# A Span is a tuple of its four ints, in this order.
_SPAN_JSON = '"start_byte":%d,"end_byte":%d,"line":%d,"column":%d'
_CONFIG_FIELDS = tuple(f.name for f in fields(AnalysisConfig))


def _spans(spans) -> str:
    return ",".join(["{" + _SPAN_JSON % span + "}" for span in spans])


def _refs(refs) -> str:
    return ",".join([f'{{"rule_id":{_encode(ref.rule_id)},{_SPAN_JSON % ref.span}}}'
                     for ref in refs])


def render_machine(report: Report) -> str:
    # repr writes a number as json.dumps does while it is finite, and every
    # measured and threshold value is: the detectors report counts and finite
    # ratios of the config's positive, finite values. Severities and malady
    # kinds are enum values with nothing to escape; max_pages may be None.
    diagnostics = ",".join([
        f'{{"rule_id":{_encode(d.rule_id)},"severity":"{d.severity.value}",'
        f'{_SPAN_JSON % d.span},"measured":{d.measured!r},"threshold":{d.threshold!r},'
        f'"message":{_encode(d.message)},"evidence":[{_spans(d.evidence)}]}}'
        for d in report.diagnostics])
    maladies = ",".join([
        f'{{"kind":"{m.kind.value}","strength":{m.strength},"evidence":[{_refs(m.evidence)}],'
        f'"narrative":{_encode(m.narrative)}}}'
        for m in report.maladies])
    config = json.dumps({name: getattr(report.config, name) for name in _CONFIG_FIELDS},
                        separators=(",", ":"))
    return (f'{{"document":{_encode(report.document)},"config":{config},'
            f'"diagnostics":[{diagnostics}],"maladies":[{maladies}]}}\n')


def _field(payload, key: str, *types: type):
    """payload[key], which must be of one of types; a bool counts as no int."""
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{key} has a value of type {type(value).__name__}")
    return value


def _span_from(payload: dict) -> Span:
    span = Span(*(_field(payload, key, int)
                  for key in ("start_byte", "end_byte", "line", "column")))
    if not 0 <= span.start_byte < span.end_byte:
        raise ValueError(f"degenerate span [{span.start_byte}, {span.end_byte})")
    if span.line < 1 or span.column < 1:
        raise ValueError("line and column are 1-based")
    return span


def parse_machine(text: str) -> Report:
    """Inverse of render_machine: reads one line of machine output. Raises
    KeyError for a missing key or an unknown rule id, and ValueError for any
    other malformed line: a value of the wrong type, an unknown malady kind, a
    severity or narrative other than the rule's or kind's own, or a bad config."""
    data = json.loads(text)
    diagnostics = []
    for d in _field(data, "diagnostics", list):
        rule_id = _field(d, "rule_id", str)
        if d["severity"] != REGISTRY[rule_id].severity.value:
            raise ValueError(f"{rule_id} has severity {d['severity']!r}")
        diagnostics.append(Diagnostic(
            rule_id,
            _span_from(d),
            _field(d, "measured", int, float),
            _field(d, "threshold", int, float),
            _field(d, "message", str),
            tuple(_span_from(e) for e in _field(d, "evidence", list)),
        ))
    maladies = []
    for m in _field(data, "maladies", list):
        finding = MaladyFinding(
            MaladyKind(_field(m, "kind", str)), _field(m, "strength", int),
            tuple(EvidenceRef(_field(e, "rule_id", str), _span_from(e))
                  for e in _field(m, "evidence", list)),
        )
        if m["narrative"] != finding.narrative:
            raise ValueError(f"{m['kind']} has narrative {m['narrative']!r}")
        maladies.append(finding)
    try:
        config = AnalysisConfig(**_field(data, "config", dict))
    except (TypeError, ConfigError) as exc:
        raise ValueError(f"bad config: {exc}") from None
    return Report(_field(data, "document", str), config, tuple(diagnostics), tuple(maladies))
