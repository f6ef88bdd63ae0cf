import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prose_clinic.config import AnalysisConfig
from prose_clinic.detectors import run_all
from prose_clinic.document import (
    FOOTNOTE_MARKER,
    FORMATS,
    NUMBER,
    PUNCTUATION,
    WORD,
    DocumentStructureError,
    parse_document,
    segment_sentences,
    tokenize,
)
from prose_clinic.lexicon import stem
from prose_clinic.maladies import infer_maladies
from prose_clinic.reporting import build_report, parse_machine, render_machine

from passages import WORD_COUNT_ORACLE, STROSIS_UNLINKED


@pytest.mark.parametrize("text,expected", WORD_COUNT_ORACLE)
def test_word_count_oracle(text, expected):
    doc = parse_document(text, "plain")
    assert doc.total_words == expected


def test_hyphenated_compounds_are_one_word_token():
    tokens = tokenize("several o-rings fell")
    words = [t for t in tokens if t.kind == WORD]
    assert [t.text for t in words] == ["several", "o-rings", "fell"]


@pytest.mark.parametrize(
    "text,kind",
    [
        ("t-rail", WORD),
        ("Boyd-Barden", WORD),
        ("don't", WORD),
        ("50", NUMBER),
        ("0.35", NUMBER),
        ("200,000", NUMBER),
        ("1974-1994", NUMBER),
    ],
)
def test_single_token_kinds(text, kind):
    tokens = tokenize(text)
    assert len(tokens) == 1
    assert tokens[0].kind == kind
    assert tokens[0].text == text


def test_sentence_final_period_is_punctuation():
    tokens = tokenize("It fell.")
    assert [t.kind for t in tokens] == [WORD, WORD, PUNCTUATION]
    assert tokens[-1].text == "."


def test_trailing_apostrophe_stays_outside_the_word():
    tokens = tokenize("the teachers' room")
    assert [t.text for t in tokens] == ["the", "teachers", "'", "room"]


def test_footnote_marker_token():
    tokens = tokenize("holds[^12].")
    assert [t.kind for t in tokens] == [WORD, FOOTNOTE_MARKER, PUNCTUATION]
    assert tokens[1].text == "[^12]"


def test_token_spans_reconstruct_source():
    text = "A lorimeter, cheap at 50 quartons, recorded o-rings."
    for token in tokenize(text):
        assert text[token.span.start_byte : token.span.end_byte] == token.text


def test_token_line_and_column_are_one_based():
    tokens = tokenize("ab cd\nef")
    by_text = {t.text: t for t in tokens}
    assert (by_text["ab"].span.line, by_text["ab"].span.column) == (1, 1)
    assert (by_text["cd"].span.line, by_text["cd"].span.column) == (1, 4)
    assert (by_text["ef"].span.line, by_text["ef"].span.column) == (2, 1)


def test_segmentation_of_short_linked_paragraph():
    sentences = segment_sentences(STROSIS_UNLINKED)
    assert len(sentences) == 4
    counts = [s.word_count for s in sentences]
    assert counts == [11, 11, 8, 10]


def test_segmentation_ignores_decimals():
    sentences = segment_sentences("The correlation is 0.35. It is low.")
    assert len(sentences) == 2
    sentences = segment_sentences("A rise of .25 can hurt. We checked.")
    assert len(sentences) == 2


@pytest.mark.parametrize(
    "text",
    [
        "Results differ (e.g. under load) in trials.",
        "Dr. Boyd disagreed with the draft.",
        "Prior work, et al. 2010, shows the same.",
        "See Fig. 4 for the full layout.",
    ],
)
def test_segmentation_does_not_split_after_abbreviations(text):
    assert len(segment_sentences(text)) == 1


def test_dotted_capital_i_does_not_shift_abbreviation_check():
    # "İ".lower() is two code points; the "e.g." check must still see "e.g.".
    doc = parse_document("İ Alpha uses a method, e.g. Beta is good.", "plain")
    assert len(list(doc.iter_sentences())) == 1


def test_segmentation_requires_capital_or_digit_after_terminator():
    assert len(segment_sentences("it fell. then it rose.")) == 1
    assert len(segment_sentences("It fell. 50 more followed.")) == 2


def test_segmentation_without_terminator_yields_one_sentence():
    sentences = segment_sentences("no terminator here")
    assert len(sentences) == 1
    assert sentences[0].word_count == 3


def test_segmentation_of_empty_text():
    assert segment_sentences("") == []
    assert segment_sentences("   \n ") == []


def test_empty_document():
    doc = parse_document("", "markdown")
    assert len(doc.sections) == 1
    assert doc.sections[0].paragraphs == ()
    assert doc.total_words == 0
    assert doc.page_estimate == 0.0


def test_blank_line_separates_paragraphs():
    doc = parse_document("One small claim.\n\nAnother small claim.\n", "plain")
    assert len(doc.sections) == 1
    assert len(doc.sections[0].paragraphs) == 2
    assert doc.total_words == 6


def test_heading_opens_a_section():
    doc = parse_document("# Title\n\nThe model predicts growth.\n", "markdown")
    assert len(doc.sections) == 1
    section = doc.sections[0]
    assert section.heading_text == "Title"
    assert section.level == 1
    assert len(section.paragraphs) == 1
    assert doc.total_words == 4


def test_preamble_before_first_heading_becomes_root_section():
    doc = parse_document("Lead text here.\n\n## Sub\n\nBody.\n", "markdown")
    assert [s.level for s in doc.sections] == [0, 2]
    assert doc.sections[0].heading_text == ""
    assert doc.sections[1].heading_text == "Sub"


def test_plain_format_treats_heading_as_text():
    doc = parse_document("# Title\n\nBody text here.\n", "plain")
    assert len(doc.sections) == 1
    assert doc.sections[0].level == 0
    assert len(doc.sections[0].paragraphs) == 2


FOOTNOTE_DOC = (
    "The model holds[^1]. It predicts growth.\n"
    "\n"
    "[^1]: Shown in the appendix.\n"
)


def test_footnote_pair_extraction():
    doc = parse_document(FOOTNOTE_DOC, "markdown")
    notes = doc.footnotes
    assert len(notes) == 1
    note = notes[0]
    assert note.id == "1"
    assert doc.source[note.marker_span.start_byte : note.marker_span.end_byte] == "[^1]"
    body = doc.source[note.body_span.start_byte : note.body_span.end_byte]
    assert body == "Shown in the appendix."


def test_footnote_bodies_are_excluded_from_word_count():
    doc = parse_document(FOOTNOTE_DOC, "markdown")
    assert doc.total_words == 6
    assert len(doc.sections[0].paragraphs) == 1


def test_footnotes_are_ordered_by_marker_appearance():
    source = (
        "First claim[^b]. Second claim[^a].\n"
        "\n"
        "[^a]: Note a.\n"
        "[^b]: Note b.\n"
    )
    doc = parse_document(source, "markdown")
    assert [n.id for n in doc.footnotes] == ["b", "a"]


def test_marker_without_body_is_a_structural_error():
    with pytest.raises(DocumentStructureError) as exc:
        parse_document("A claim[^2] stands.\n", "markdown")
    assert "2" in str(exc.value)


def test_body_without_marker_is_a_structural_error():
    with pytest.raises(DocumentStructureError) as exc:
        parse_document("A claim stands.\n\n[^3]: Orphan note.\n", "markdown")
    assert "3" in str(exc.value)


def test_plain_format_has_no_footnotes():
    doc = parse_document(FOOTNOTE_DOC, "plain")
    assert doc.footnotes == ()
    # marker and definition tokens stay in the text; none of them are words
    assert doc.total_words == 10


def test_word_count_additivity():
    doc = parse_document(FOOTNOTE_DOC + "\nAnother paragraph follows here.\n", "markdown")
    paragraphs = [p for s in doc.sections for p in s.paragraphs]
    assert doc.total_words == sum(p.word_count for p in paragraphs)
    sentences = [s for p in paragraphs for s in p.sentences]
    assert doc.total_words == sum(s.word_count for s in sentences)


def test_parse_is_deterministic():
    assert parse_document(FOOTNOTE_DOC, "markdown") == parse_document(FOOTNOTE_DOC, "markdown")


def test_estimate_pages():
    text = "word " * 12000
    doc = parse_document(text, "plain")
    assert doc.total_words == 12000
    assert doc.page_estimate == 30.0
    assert parse_document(text, "plain", words_per_page=600).page_estimate == 20.0


def test_span_soundness_of_parsed_structure():
    source = "# Head\n\nOne claim here. Another claim there.\n\nSecond paragraph text.\n"
    doc = parse_document(source, "markdown")
    for section in doc.sections:
        for paragraph in section.paragraphs:
            p_text = source[paragraph.span.start_byte : paragraph.span.end_byte]
            assert p_text.strip() == p_text and p_text
            for sentence in paragraph.sentences:
                assert paragraph.span.start_byte <= sentence.span.start_byte
                assert sentence.span.end_byte <= paragraph.span.end_byte
                for token in sentence.tokens:
                    assert source[token.span.start_byte : token.span.end_byte] == token.text


# Pieces that stress the parser: line endings, odd whitespace, NUL, combining
# marks, a capital whose lowercase is longer, abbreviations, numbers with
# separators, footnote markers and definitions, and headings.
_PIECES = st.sampled_from([
    "Alpha", "beta", "The", "model", "this", "most", "best", "is", "the", "of",
    "e.g.", "Dr.", "et al.", "İ", "İs", "e\u0301", "\u0301", "Ångström",
    "0.35", "200,000", "1974-1994", "42", "don't", "teachers'",
    ".", "!", "?", ",", "...", "-", "_",
    " ", "  ", "\t", "\n", "\r\n", "\n\n", "\r\n\r\n", "\r", "\x00", "\u00a0", "\u2028",
    "[^1]", "[^a]", "\n[^1]: A note.\n", "\n[^a]: Another note.\n", "\n[^1]:\n",
    "Claim[^z] holds.\n\n[^z]: Note z.\n", "\n\nThe model grows. It is best.\n\n",
    "\n# Heading\n", "\n## Methods ##\n", "#",
])
_TEXT = st.lists(st.one_of(_PIECES, _PIECES, st.text(max_size=6)), max_size=40).map("".join)


def _recount(source, span):
    line = source.count("\n", 0, span.start_byte) + 1
    column = span.start_byte - (source.rfind("\n", 0, span.start_byte) + 1) + 1
    assert (span.line, span.column) == (line, column)


def _parse_or_none(text, fmt):
    try:
        return parse_document(text, fmt)
    except DocumentStructureError:
        return None


# A loaded machine can push one example past the default deadline.
@settings(deadline=None)
@given(_TEXT, st.sampled_from(FORMATS))
def test_parse_invariants_hold_for_arbitrary_text(text, fmt):
    doc = _parse_or_none(text, fmt)
    if doc is None:
        return
    lexicon = doc.lexicon
    last_end = 0
    total = 0
    for paragraph in doc.iter_paragraphs():
        p = paragraph.span
        assert last_end <= p.start_byte < p.end_byte <= len(text)
        _recount(text, p)
        last_end = p.start_byte
        for sentence in paragraph.sentences:
            s = sentence.span
            assert last_end <= s.start_byte < s.end_byte <= p.end_byte
            _recount(text, s)
            last_end = s.start_byte
            for token in sentence.tokens:
                t = token.span
                assert last_end <= t.start_byte < t.end_byte <= s.end_byte
                assert text[t.start_byte:t.end_byte] == token.text
                _recount(text, t)
                last_end = t.end_byte
            last_end = s.end_byte
            words = tuple(t for t in sentence.tokens if t.kind == WORD)
            assert sentence.words == words
            assert sentence.word_count == sum(
                1 for t in sentence.tokens if t.kind in (WORD, NUMBER))
            assert sentence.stems == tuple(
                stem(t.text) for t in words if not lexicon.is_stopword(t.text))
        assert paragraph.word_count == sum(s.word_count for s in paragraph.sentences)
        total += paragraph.word_count
        last_end = p.end_byte
    assert doc.total_words == total
    for note in doc.footnotes:
        for span in (note.marker_span, note.body_span):
            assert 0 <= span.start_byte < span.end_byte <= len(text)
            _recount(text, span)
        marker = note.marker_span
        assert text[marker.start_byte:marker.end_byte] == f"[^{note.id}]"


@settings(deadline=None)
@given(_TEXT, st.sampled_from(FORMATS))
def test_machine_report_round_trips_for_arbitrary_text(text, fmt):
    doc = _parse_or_none(text, fmt)
    if doc is None:
        return
    cfg = AnalysisConfig()
    diagnostics = run_all(doc, cfg)
    report = build_report("doc", cfg, diagnostics, infer_maladies(doc, diagnostics, cfg))
    assert parse_machine(render_machine(report)) == report
