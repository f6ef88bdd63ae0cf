import dataclasses

from prose_clinic.cli import analyze
from prose_clinic.config import AnalysisConfig
from prose_clinic.detectors import run_all
from prose_clinic.document import MARKDOWN, PLAIN, parse_document
from prose_clinic.maladies import (
    RELEVANCE_EVIDENCE,
    MaladyKind,
    extract_keywords,
    infer_maladies,
    section_relevance,
)

from docbuild import (
    FILLER,
    FILLER_SHORT,
    INTENSITY_ADJ,
    SURVEY,
    composite_document,
    footnote_document,
    interleave,
    paragraphs,
)
from passages import DETAIL_FIRST_PARAGRAPH, SUPERLATIVE_PASSAGE

CFG = AnalysisConfig()


# --- gate: no maladies without symptoms --------------------------------------

def test_no_symptoms_no_maladies():
    text = ("# The model and the data\n\n"
            + FILLER + " " + FILLER + "\n\n" + FILLER + "\n\n"
            "## Background\n\n" + SURVEY + "\n")
    report = analyze(text, MARKDOWN, CFG)
    assert report.diagnostics == ()
    assert report.maladies == ()


def test_empty_diagnostics_short_circuits():
    doc = parse_document(FILLER, PLAIN)
    assert infer_maladies(doc, [], CFG) == []


# --- FaultyRAP ----------------------------------------------------------------

def test_faulty_rap_from_three_growth_kinds():
    report = analyze(composite_document(), MARKDOWN, CFG)
    fired = {d.rule_id for d in report.diagnostics}
    assert {"S401", "S601", "S701"} <= fired
    assert [f.kind for f in report.maladies] == [MaladyKind.FAULTY_RAP]
    (finding,) = report.maladies
    assert finding.strength == 3
    assert {ref.rule_id for ref in finding.evidence} == {"S401", "S601", "S701"}
    assert len(finding.evidence) == 4  # two storyline breaks plus one each


def test_two_growth_kinds_are_not_enough():
    report = analyze(composite_document(note_count=10), MARKDOWN, CFG)
    assert {d.rule_id for d in report.diagnostics} >= {"S401", "S701"}
    assert all(f.kind is not MaladyKind.FAULTY_RAP for f in report.maladies)


def test_growth_kind_floor_is_configurable():
    cfg = dataclasses.replace(CFG, malady_min_rule_kinds=2)
    findings = analyze(composite_document(note_count=10), MARKDOWN, cfg).maladies
    assert [f.kind for f in findings] == [MaladyKind.FAULTY_RAP]
    assert findings[0].strength == 2


def test_storyline_breaks_outside_first_section_do_not_count():
    # Same break pattern, but pushed into a later section; S601 and S701
    # alone are two kinds, short of the floor.
    opening = [FILLER] * 10
    rest = interleave(FILLER, INTENSITY_ADJ, 990, 31)
    body = footnote_document(opening + rest, 11)
    later = "\n\n## Basis\n\n" + SURVEY + "\n\n" + FILLER_SHORT + "\n"
    report = analyze(body + later, MARKDOWN, CFG)
    assert "S401" in {d.rule_id for d in report.diagnostics}
    assert all(f.kind is not MaladyKind.FAULTY_RAP for f in report.maladies)


# --- PoorChunking ---------------------------------------------------------------

GROWN = " ".join(["The spores grew."] * 7)


def test_poor_chunking_from_three_paragraphs():
    text = GROWN + "\n\n" + GROWN + "\n\n" + DETAIL_FIRST_PARAGRAPH
    (finding,) = analyze(text, PLAIN, CFG).maladies
    assert finding.kind is MaladyKind.POOR_CHUNKING
    assert finding.strength == 3
    assert [ref.rule_id for ref in finding.evidence] == ["S301", "S301", "S302"]


def test_two_touched_paragraphs_are_not_enough():
    text = GROWN + "\n\n" + GROWN
    report = analyze(text, PLAIN, CFG)
    assert [d.rule_id for d in report.diagnostics] == ["S301", "S301"]
    assert report.maladies == ()


def test_one_paragraph_counts_once_toward_poor_chunking():
    # S301 spans the first paragraph and S302 its first sentence: two chunk
    # symptoms in one paragraph.
    text = "12 cells grew. " + GROWN + "\n\n" + GROWN
    report = analyze(text, PLAIN, CFG)
    assert [d.rule_id for d in report.diagnostics] == ["S301", "S302", "S301"]
    assert report.maladies == ()


# --- MissingRapRelevance ---------------------------------------------------------

LONG_TAIL = " ".join(["alpha"] * 26) + "."


def test_missing_relevance_flags_off_topic_section():
    text = ("# The model and the data\n\n"
            + FILLER + " " + FILLER + "\n\n" + FILLER + "\n\n"
            "## Background\n\n" + SURVEY + " " + LONG_TAIL + "\n")
    report = analyze(text, MARKDOWN, CFG)
    assert "S101" in {d.rule_id for d in report.diagnostics}
    (finding,) = report.maladies
    assert finding.kind is MaladyKind.MISSING_RAP_RELEVANCE
    assert finding.strength == 1
    (ref,) = finding.evidence
    assert ref.rule_id == RELEVANCE_EVIDENCE
    assert text[ref.span.start_byte:ref.span.end_byte].startswith("Our survey")


def test_on_topic_sections_stay_quiet():
    text = ("# The model and the data\n\n"
            + FILLER + " " + FILLER + "\n\n" + FILLER + "\n\n"
            "## Basis\n\nThe model links the data here. " + LONG_TAIL + "\n")
    report = analyze(text, MARKDOWN, CFG)
    assert "S101" in {d.rule_id for d in report.diagnostics}
    assert report.maladies == ()


# --- RhetoricRisk ------------------------------------------------------------------

def test_rhetoric_risk_from_superlative_density():
    text = paragraphs([SUPERLATIVE_PASSAGE] + [FILLER_SHORT] * 47, per_paragraph=4)
    (finding,) = analyze(text, PLAIN, CFG).maladies
    assert finding.kind is MaladyKind.RHETORIC_RISK
    assert finding.strength == 1
    assert all(ref.rule_id == "S702" for ref in finding.evidence)


# --- keyword profile ------------------------------------------------------------------

SPORE_DOC = ("# Spore growth\n\n"
             "Spores multiply in warm tissue. Growth depends on moisture.\n\n"
             "Colder tissue slows the spores.\n")


def test_keywords_ranked_by_count_then_alphabetically():
    doc = parse_document(SPORE_DOC, MARKDOWN)
    keywords = extract_keywords(doc, CFG)
    assert keywords[:3] == ("spore", "growth", "tissue")
    assert len(keywords) == 9
    assert section_relevance(doc.sections[0], keywords) == 7


def test_keyword_count_caps_the_profile():
    doc = parse_document(SPORE_DOC, MARKDOWN)
    cfg = dataclasses.replace(CFG, keyword_count=2)
    assert extract_keywords(doc, cfg) == ("spore", "growth")


def test_keywords_of_empty_document():
    doc = parse_document("", MARKDOWN)
    keywords = extract_keywords(doc, CFG)
    assert keywords == ()
    assert section_relevance(doc.sections[0], keywords) == 0


def test_section_relevance_counts_repeated_keywords():
    doc = parse_document("Spores slow tissue growth in dry rooms.", PLAIN)
    assert section_relevance(doc.sections[0], ("spore", "growth", "tissue")) == 3


def test_section_relevance_empty_cases():
    doc = parse_document("Spores slow tissue growth.", PLAIN)
    assert section_relevance(doc.sections[0], ()) == 0
    empty = parse_document("", PLAIN)
    assert section_relevance(empty.sections[0], ("spore",)) == 0


# --- general behavior -------------------------------------------------------------------

def test_findings_are_deterministic():
    doc = parse_document(composite_document(), MARKDOWN)
    diags = run_all(doc, CFG)
    assert infer_maladies(doc, diags, CFG) == infer_maladies(doc, diags, CFG)


def test_finding_order_is_stable():
    # A document with chunking and rhetoric trouble reports them in kind
    # order regardless of where the symptoms sit.
    text = (GROWN + "\n\n" + GROWN + "\n\n" + DETAIL_FIRST_PARAGRAPH
            + "\n\n" + SUPERLATIVE_PASSAGE)
    findings = analyze(text, PLAIN, dataclasses.replace(CFG, superlative_per_page=2.0)).maladies
    kinds = [f.kind for f in findings]
    assert kinds == sorted(kinds, key=lambda k: list(MaladyKind).index(k))
