import dataclasses

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
    footnote_document,
    interleave,
    paragraphs,
)
from passages import DETAIL_FIRST_PARAGRAPH, SUPERLATIVE_PASSAGE

CFG = AnalysisConfig()


def composite_document(note_count=11, intensity=31):
    """12000 words in one section: opener storyline break, footnote pile,
    one overworked intensity family."""
    opening = [FILLER] * 5
    second = [SURVEY] + [FILLER] * 4
    rest = interleave(FILLER, INTENSITY_ADJ, 990, intensity)
    return footnote_document(opening + second + rest, note_count)


def analyze(text, fmt=MARKDOWN, cfg=CFG):
    doc = parse_document(text, fmt)
    diags = run_all(doc, cfg)
    return doc, diags, infer_maladies(doc, diags, cfg)


# --- gate: no maladies without symptoms --------------------------------------

def test_no_symptoms_no_maladies():
    text = ("# The model and the data\n\n"
            + FILLER + " " + FILLER + "\n\n" + FILLER + "\n\n"
            "## Background\n\n" + SURVEY + "\n")
    doc, diags, findings = analyze(text)
    assert diags == []
    assert findings == []


def test_empty_diagnostics_short_circuits():
    doc = parse_document(FILLER, PLAIN)
    assert infer_maladies(doc, [], CFG) == []


# --- FaultyRAP ----------------------------------------------------------------

def test_faulty_rap_from_three_growth_kinds():
    doc, diags, findings = analyze(composite_document())
    fired = {d.rule_id for d in diags}
    assert {"S401", "S601", "S701"} <= fired
    assert [f.kind for f in findings] == [MaladyKind.FAULTY_RAP]
    (finding,) = findings
    assert finding.strength == 3
    assert {ref.rule_id for ref in finding.evidence} == {"S401", "S601", "S701"}
    assert len(finding.evidence) == 4  # two storyline breaks plus one each


def test_two_growth_kinds_are_not_enough():
    doc, diags, findings = analyze(composite_document(note_count=10))
    assert {d.rule_id for d in diags} >= {"S401", "S701"}
    assert all(f.kind is not MaladyKind.FAULTY_RAP for f in findings)


def test_growth_kind_floor_is_configurable():
    cfg = dataclasses.replace(CFG, malady_min_rule_kinds=2)
    doc, diags, _ = analyze(composite_document(note_count=10))
    findings = infer_maladies(doc, diags, cfg)
    assert [f.kind for f in findings] == [MaladyKind.FAULTY_RAP]
    assert findings[0].strength == 2


def test_storyline_breaks_outside_first_section_do_not_count():
    # Same break pattern, but pushed into a later section; S601 and S701
    # alone are two kinds, short of the floor.
    opening = [FILLER] * 10
    rest = interleave(FILLER, INTENSITY_ADJ, 990, 31)
    body = footnote_document(opening + rest, 11)
    later = "\n\n## Basis\n\n" + SURVEY + "\n\n" + FILLER_SHORT + "\n"
    doc, diags, findings = analyze(body + later)
    assert "S401" in {d.rule_id for d in diags}
    assert all(f.kind is not MaladyKind.FAULTY_RAP for f in findings)


# --- PoorChunking ---------------------------------------------------------------

GROWN = " ".join(["The spores grew."] * 7)


def test_poor_chunking_from_three_paragraphs():
    text = GROWN + "\n\n" + GROWN + "\n\n" + DETAIL_FIRST_PARAGRAPH
    doc, diags, findings = analyze(text, fmt=PLAIN)
    assert [f.kind for f in findings] == [MaladyKind.POOR_CHUNKING]
    (finding,) = findings
    assert finding.strength == 3
    assert [ref.rule_id for ref in finding.evidence] == ["S301", "S301", "S302"]


def test_two_touched_paragraphs_are_not_enough():
    text = GROWN + "\n\n" + GROWN
    doc, diags, findings = analyze(text, fmt=PLAIN)
    assert [d.rule_id for d in diags] == ["S301", "S301"]
    assert findings == []


def test_one_paragraph_counts_once_toward_poor_chunking():
    # S301 spans the first paragraph and S302 its first sentence: two chunk
    # symptoms in one paragraph.
    text = "12 cells grew. " + GROWN + "\n\n" + GROWN
    doc, diags, findings = analyze(text, fmt=PLAIN)
    assert [d.rule_id for d in diags] == ["S301", "S302", "S301"]
    assert findings == []


# --- MissingRapRelevance ---------------------------------------------------------

LONG_TAIL = " ".join(["alpha"] * 26) + "."


def test_missing_relevance_flags_off_topic_section():
    text = ("# The model and the data\n\n"
            + FILLER + " " + FILLER + "\n\n" + FILLER + "\n\n"
            "## Background\n\n" + SURVEY + " " + LONG_TAIL + "\n")
    doc, diags, findings = analyze(text)
    assert "S101" in {d.rule_id for d in diags}
    assert [f.kind for f in findings] == [MaladyKind.MISSING_RAP_RELEVANCE]
    (finding,) = findings
    assert finding.strength == 1
    (ref,) = finding.evidence
    assert ref.rule_id == RELEVANCE_EVIDENCE
    assert doc.source[ref.span.start_byte:ref.span.end_byte].startswith("Our survey")


def test_on_topic_sections_stay_quiet():
    text = ("# The model and the data\n\n"
            + FILLER + " " + FILLER + "\n\n" + FILLER + "\n\n"
            "## Basis\n\nThe model links the data here. " + LONG_TAIL + "\n")
    doc, diags, findings = analyze(text)
    assert "S101" in {d.rule_id for d in diags}
    assert findings == []


# --- RhetoricRisk ------------------------------------------------------------------

def test_rhetoric_risk_from_superlative_density():
    text = paragraphs([SUPERLATIVE_PASSAGE] + [FILLER_SHORT] * 47, per_paragraph=4)
    doc, diags, findings = analyze(text, fmt=PLAIN)
    kinds = [f.kind for f in findings]
    assert kinds == [MaladyKind.RHETORIC_RISK]
    assert findings[0].strength == 1
    assert all(ref.rule_id == "S702" for ref in findings[0].evidence)


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
    doc, diags, findings = analyze(text, fmt=PLAIN,
                                   cfg=dataclasses.replace(CFG, superlative_per_page=2.0))
    kinds = [f.kind for f in findings]
    assert kinds == sorted(kinds, key=lambda k: list(MaladyKind).index(k))
