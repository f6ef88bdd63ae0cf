import json
import re

import pytest

from prose_clinic.config import AnalysisConfig
from prose_clinic.detectors import REGISTRY, RULE_IDS, run_all
from prose_clinic.document import MARKDOWN, PLAIN, parse_document
from prose_clinic.maladies import extract_keywords, infer_maladies
from prose_clinic.reporting import (
    Report,
    build_report,
    parse_machine,
    render_human,
    render_machine,
)

from docbuild import FILLER, INTENSITY_ADJ, SURVEY, footnote_document, interleave
from passages import STROSIS_UNLINKED

CFG = AnalysisConfig()

EXPECTED_GUIDE_SECTIONS = {
    "S101": "§1.1", "S102": "§1.1", "S103": "§1.1",
    "S201": "§1.2",
    "S301": "§1.3", "S302": "§2.2",
    "S401": "§1.4",
    "S501": "§1.5",
    "S601": "§1.6",
    "S701": "§2.1",
    "S702": "§2.4",
}


def report_for(text, name="doc.md", fmt=MARKDOWN, cfg=CFG):
    doc = parse_document(text, fmt)
    diags = run_all(doc, cfg)
    findings = infer_maladies(doc, diags, cfg,
                              keywords=extract_keywords(doc, cfg))
    return build_report(name, cfg, diags, findings)


def composite_text():
    opening = [FILLER] * 5
    second = [SURVEY] + [FILLER] * 4
    rest = interleave(FILLER, INTENSITY_ADJ, 990, 31)
    return footnote_document(opening + second + rest, 11)


# --- treatment hints -------------------------------------------------------

def test_every_rule_has_a_treatment_hint():
    for rule_id in RULE_IDS:
        rule = REGISTRY[rule_id]
        assert rule.id == rule_id
        assert rule.treatment
        assert rule.section == EXPECTED_GUIDE_SECTIONS[rule_id]


def test_unknown_rule_raises_key_error():
    with pytest.raises(KeyError):
        REGISTRY["S999"]


# --- human rendering ---------------------------------------------------------

def test_human_header_and_line_shape():
    report = report_for(STROSIS_UNLINKED, name="notes.txt", fmt=PLAIN)
    out = render_human(report)
    lines = out.splitlines()
    assert lines[0] == "notes.txt: 2 finding(s), 0 malady(ies)"
    pattern = re.compile(
        r"^notes\.txt:\d+:\d+ S201 .+ \(0/1\) \[treat: §1\.2\]$"
    )
    assert len(lines) == 3
    for line in lines[1:]:
        assert pattern.match(line), line


def test_human_no_findings():
    report = report_for(FILLER, name="clean.txt", fmt=PLAIN)
    assert render_human(report) == "clean.txt: no findings\n"


def test_human_malady_lines():
    report = report_for(composite_text())
    out = render_human(report)
    assert re.search(
        r"^  FaultyRAP \(strength 3\): .+ \[evidence: .*S601.*\]$",
        out, re.MULTILINE,
    )


def test_human_float_formatting():
    report = report_for(composite_text())
    line = next(l for l in render_human(report).splitlines() if " S701 " in l)
    assert "(1.03333/1)" in line


def test_human_rendering_is_deterministic():
    report = report_for(composite_text())
    assert render_human(report) == render_human(report)


# --- machine rendering ----------------------------------------------------------

def test_machine_payload_shape():
    report = report_for(composite_text())
    data = json.loads(render_machine(report))
    assert set(data) == {"document", "config", "diagnostics", "maladies"}
    assert set(data["config"]) == {
        "max_sentence_words", "max_paragraph_sentences", "words_per_page",
        "footnote_ratio", "intensity_per_page", "superlative_per_page",
        "min_insertion_words", "max_core_prefix_tokens", "max_delay_words",
        "max_pages", "link_window_tokens", "keyword_count",
        "min_keyword_overlap", "malady_min_rule_kinds",
    }
    assert data["config"]["max_pages"] is None
    for diag in data["diagnostics"]:
        assert set(diag) == {
            "rule_id", "severity", "start_byte", "end_byte", "line",
            "column", "measured", "threshold", "message", "evidence",
        }
        assert diag["severity"] in ("info", "warning")
        for span in diag["evidence"]:
            assert set(span) == {"start_byte", "end_byte", "line", "column"}
    assert data["maladies"]
    for malady in data["maladies"]:
        assert set(malady) == {"kind", "strength", "evidence", "narrative"}
        for ref in malady["evidence"]:
            assert set(ref) == {"rule_id", "start_byte", "end_byte", "line", "column"}
    out = render_machine(report)
    assert out.endswith("\n")
    assert "\n" not in out[:-1]


def test_machine_round_trip():
    report = report_for(composite_text())
    assert parse_machine(render_machine(report)) == report


def test_machine_severity_must_match_the_rule():
    text = render_machine(report_for(STROSIS_UNLINKED, fmt=PLAIN))
    with pytest.raises(ValueError, match="S201"):
        parse_machine(text.replace('"warning"', '"info"'))


def test_machine_narrative_must_match_the_kind():
    text = render_machine(report_for(composite_text()))
    with pytest.raises(ValueError, match="FaultyRAP"):
        parse_machine(text.replace("Size, apparatus", "Size and apparatus"))


@pytest.mark.parametrize("config", [{"bogus": 1}, {"max_pages": "3"}])
def test_machine_config_must_be_analysis_config(config):
    payload = json.loads(render_machine(report_for(FILLER, name="clean.txt", fmt=PLAIN)))
    payload["config"].update(config)
    with pytest.raises(ValueError, match="config"):
        parse_machine(json.dumps(payload))


def test_machine_round_trip_empty():
    report = report_for(FILLER, name="clean.txt", fmt=PLAIN)
    assert parse_machine(render_machine(report)) == report


def test_machine_preserves_number_types():
    report = report_for(composite_text())
    back = parse_machine(render_machine(report))
    by_rule = {d.rule_id: d for d in back.diagnostics}
    assert isinstance(by_rule["S601"].measured, int)
    assert isinstance(by_rule["S701"].measured, float)


def test_machine_rendering_is_deterministic():
    report = report_for(composite_text())
    assert render_machine(report) == render_machine(report)


# --- report assembly ----------------------------------------------------------

def test_report_is_value_comparable():
    a = report_for(STROSIS_UNLINKED, fmt=PLAIN)
    b = report_for(STROSIS_UNLINKED, fmt=PLAIN)
    assert a == b and isinstance(a, Report)
