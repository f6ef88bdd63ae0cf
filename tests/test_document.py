import gc
import re
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prose_clinic import document
from prose_clinic.config import AnalysisConfig
from prose_clinic.detectors import RULE_IDS, run_all
from prose_clinic.document import (
    FOOTNOTE_MARKER,
    FORMATS,
    NUMBER,
    PUNCTUATION,
    WORD,
    DocumentStructureError,
    parse_document,
    scan_text,
    tokenize,
)
from prose_clinic.lexicon import default_lexicon, load_lexicon_extensions, stem
from prose_clinic.maladies import RELEVANCE_EVIDENCE, extract_keywords, infer_maladies
from prose_clinic.reporting import build_report, parse_machine, render_machine

from docbuild import INTENSITY_ADJ, INTENSITY_ADV
from passages import (
    DETAIL_FIRST_PARAGRAPH,
    FIRESIDE_DELAYED,
    FIRESIDE_INTERRUPTED,
    FIRST_TO_STUDY,
    LORIMETER_ORIGINAL,
    RATE_ORIGINAL,
    STORYLINE_BROKEN_OPENERS,
    STROSIS_UNLINKED,
    SUPERLATIVE_PASSAGE,
    TELERIUM_ORIGINAL,
    TOPICS_ORIGINAL,
    TRAIL_ORIGINAL,
    WORD_COUNT_ORACLE,
)


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


def test_footnote_id_cannot_hold_a_bracket():
    tokens = tokenize("[^a[^b]")
    assert [(t.text, t.kind) for t in tokens] == [
        ("[", PUNCTUATION), ("^", PUNCTUATION), ("a", WORD), ("[^b]", FOOTNOTE_MARKER)]
    doc = parse_document("Claim[^a[^b] holds.\n\n[^b]: Note b.\n", "markdown")
    assert [n.id for n in doc.footnotes] == ["b"]


def test_backtracking_inputs_parse_quickly():
    # At this size each took over 10 s when a regex backtracked: a heading
    # with one long whitespace run, and a run of "[^" that never closes.
    # Likewise for a regex that starts with \s* or "[.!?]+" and can fail
    # after it: runs of whitespace and of terminators.
    n = 50_000
    bracket_run = "Text " + "[^" * n + " here.\n"
    for text, fmt in (("# a" + " " * n + "b\n\nBody text here.\n", "markdown"),
                      (bracket_run, "plain"), (bracket_run, "markdown"),
                      ("Text" + " " * n + "\n", "plain"), ("Text " + "." * n + "\n", "plain"),
                      ("Text " + ".!" * n + " Next.\n", "plain")):
        start = time.perf_counter()
        parse_document(text, fmt)
        scan_text(text, default_lexicon())
        assert time.perf_counter() - start < 1, (text[:8], fmt)


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


def _sentences(text):
    return list(parse_document(text, "plain").iter_sentences())


def test_segmentation_of_short_linked_paragraph():
    sentences = _sentences(STROSIS_UNLINKED)
    assert len(sentences) == 4
    counts = [s.word_count for s in sentences]
    assert counts == [11, 11, 8, 10]


def test_segmentation_ignores_decimals():
    sentences = _sentences("The correlation is 0.35. It is low.")
    assert len(sentences) == 2
    sentences = _sentences("A rise of .25 can hurt. We checked.")
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
    assert len(_sentences(text)) == 1


def test_dotted_capital_i_does_not_shift_abbreviation_check():
    # "İ".lower() is two code points; the "e.g." check must still see "e.g.".
    doc = parse_document("İ Alpha uses a method, e.g. Beta is good.", "plain")
    assert len(list(doc.iter_sentences())) == 1


def test_abbreviation_matches_only_a_window_of_its_own_length(tmp_path):
    # The entry "İ.e." is stored lowercased, as five code points "i̇.e.". The
    # four-character window "İ.e." lowercases to that same string, but only a
    # five-character window may match a five-character abbreviation.
    path = tmp_path / "extra.lex"
    path.write_text("[abbreviations]\nİ.e.\n", encoding="utf-8")
    lexicon = load_lexicon_extensions(str(path))
    assert "i\u0307.e." in lexicon.abbreviations

    def count(text, lex):
        return len(list(parse_document(text, "plain", lexicon=lex).iter_sentences()))

    # A plain set of abbreviations serves as well as the frozenset.
    for lex in (lexicon, replace(lexicon, abbreviations=set(lexicon.abbreviations))):
        assert count("Alpha holds, İ.e. Beta fails.", lex) == 2
        assert count("Alpha holds, i\u0307.e. Beta fails.", lex) == 1


def test_segmentation_requires_capital_or_digit_after_terminator():
    assert len(_sentences("it fell. then it rose.")) == 1
    assert len(_sentences("It fell. 50 more followed.")) == 2


def test_segmentation_without_terminator_yields_one_sentence():
    sentences = _sentences("no terminator here")
    assert len(sentences) == 1
    assert sentences[0].word_count == 3


def test_segmentation_of_empty_text():
    assert _sentences("") == []
    assert _sentences("   \n ") == []


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


def test_marker_in_a_heading_counts():
    source = "# Results [^1]\n\nThe yield rose.\n\n[^1]: Measured twice.\n"
    (note,) = parse_document(source, "markdown").footnotes
    assert note.id == "1"
    assert note.marker_span.line == 1
    assert source[note.marker_span.start_byte:note.marker_span.end_byte] == "[^1]"
    with pytest.raises(DocumentStructureError) as exc:
        parse_document("# Results [^9]\n\nThe yield rose.\n", "markdown")
    assert exc.value.span.line == 1


def test_heading_marker_orders_with_body_markers():
    source = (
        "First claim[^a].\n"
        "\n"
        "## Methods [^b]\n"
        "\n"
        "Second claim[^c], as in[^b].\n"
        "\n"
        "[^a]: Note a.\n"
        "[^c]: Note c.\n"
        "[^b]: Note b.\n"
    )
    doc = parse_document(source, "markdown")
    assert [n.id for n in doc.footnotes] == ["a", "b", "c"]
    assert doc.footnotes[1].marker_span.line == 3


def test_marker_in_a_footnote_body_does_not_count():
    with pytest.raises(DocumentStructureError) as exc:
        parse_document("A claim[^1].\n\n[^1]: See [^2].\n[^2]: Orphan.\n", "markdown")
    assert "[^2] has no marker" in str(exc.value)


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


def _parse_or_none(text, fmt, lexicon=None):
    try:
        return parse_document(text, fmt, lexicon=lexicon)
    except DocumentStructureError:
        return None


# A loaded machine can push one example past the default deadline.
@settings(deadline=None)
@given(_TEXT, st.sampled_from(FORMATS))
def test_parse_invariants_hold_for_arbitrary_text(text, fmt):
    doc = _parse_or_none(text, fmt)
    if doc is None:
        return
    lexicon, store = doc.lexicon, doc.store
    last_end = 0
    total = 0
    for paragraph in doc.iter_paragraphs():
        p = paragraph.span
        assert last_end <= p.start_byte < p.end_byte <= len(text)
        _recount(text, p)
        # A paragraph runs from its first sentence's start to its last's end.
        assert p.start_byte == paragraph.sentences[0].span.start_byte
        assert p.end_byte == paragraph.sentences[-1].span.end_byte
        last_end = p.start_byte
        for sentence in paragraph.sentences:
            s = sentence.span
            assert last_end <= s.start_byte < s.end_byte <= p.end_byte
            _recount(text, s)
            # A sentence runs from its first token's start to its last's end.
            assert s.start_byte == store.start[sentence.first_token]
            assert s.end_byte == store.end[sentence.end_token - 1]
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
            assert store.word_lower[sentence.first_word:sentence.end_word] == [
                t.text.lower() for t in words]
            assert all(t.kind == PUNCTUATION for t in sentence.tokens if t.text == ",")
            assert sentence.word_count == sum(
                1 for t in sentence.tokens if t.kind in (WORD, NUMBER))
            assert sentence.stems == tuple(
                stem(t.text) for t in words if t.text.lower() not in lexicon.stopwords)
        assert paragraph.word_count == sum(s.word_count for s in paragraph.sentences)
        total += paragraph.word_count
        last_end = p.end_byte
    assert doc.total_words == total
    # One stem slot per word: None for a stopword, the form's stem otherwise.
    assert len(store.word_stem) == len(store.word_lower)
    assert store.word_stem == [None if form in lexicon.stopwords else stem(form)
                               for form in store.word_lower]
    for note in doc.footnotes:
        for span in (note.marker_span, note.body_span):
            assert 0 <= span.start_byte < span.end_byte <= len(text)
            _recount(text, span)
        marker = note.marker_span
        assert text[marker.start_byte:marker.end_byte] == f"[^{note.id}]"


# The scan as a loop over a token regex's matches, one token at a time,
# with a fold table of its own: the reference that the batched scan is
# compared with.
_UNIT = r"(?:\d+(?:[.,]\d+)+|[^\W_]+)"
_TOKEN_RE = re.compile(
    r"(?P<marker>\[\^[^\[\]\s]+\])"
    rf"|(?P<wordish>{_UNIT}(?:[-‐‑'’]{_UNIT})*)"
    r"|(?P<punct>\S)"
)


class _ReferenceFold(dict):
    def __init__(self, stopwords):
        self.stopwords = stopwords

    def __missing__(self, text):
        if not re.search(r"[^\W\d_]", text):
            entry = ()
        else:
            lower = text.lower()
            entry = self.get(lower)
            if entry is None:
                entry = self[lower] = (lower, None if lower in self.stopwords else stem(lower))
        self[text] = entry
        return entry


class _ReferenceStore:
    def __init__(self, source):
        self.source = source
        self.start, self.end, self.kind = [], [], []
        self.word_lower, self.word_stem, self.word_token = [], [], []

    def scan(self, start, end, fold):
        """Append the tokens of source[start:end]; returns the number of
        words (WORD plus NUMBER tokens)."""
        words = 0
        for m in _TOKEN_RE.finditer(self.source, start, end):
            pos, stop = m.span()
            self.start.append(pos)
            self.end.append(stop)
            if m.lastgroup == "wordish":
                words += 1
                entry = fold[m.group()]
                if entry:
                    lower, word_stem = entry
                    self.word_token.append(len(self.kind))
                    self.word_lower.append(lower)
                    self.word_stem.append(word_stem)
                    self.kind.append(document.WORD_CODE)
                else:
                    self.kind.append(document.NUMBER_CODE)
            elif m.lastgroup == "marker":
                self.kind.append(document.MARKER_CODE)
            elif self.source[pos] == ",":
                self.kind.append(document.COMMA_CODE)
            elif self.source[pos] in ".!?":
                self.kind.append(document.STOP_CODE)
            else:
                self.kind.append(document.PUNCTUATION_CODE)
        return words


def _reference_sentence_bounds(source, start, end, abbreviations):
    """Sentence bounds by a walk over every terminator run."""
    bounds = []
    pos = start
    while pos < end and source[pos].isspace():
        pos += 1
    for m in re.compile(r"[.!?]+").finditer(source, start, end):
        if m.start() < pos:
            continue
        j = m.end()
        while j < end and source[j].isspace():
            j += 1
        if j == m.end() or j >= end:
            continue  # no whitespace gap, or only trailing space: not a split
        if not (source[j].isupper() or source[j].isdigit()):
            continue
        if m.group() == "." and document._ends_with_abbreviation(source, m.end(), abbreviations):
            continue
        bounds.append((pos, m.end()))
        pos = j
    tail = end
    while tail > pos and source[tail - 1].isspace():
        tail -= 1
    if tail > pos:
        bounds.append((pos, tail))
    return bounds


def _store_arrays(store):
    return {name: list(getattr(store, name))
            for name in ("start", "end", "kind", "word_lower", "word_stem", "word_token")}


# Text that stresses the scan: whitespace that is not ASCII (vertical tab,
# information separators, no-break and ideographic spaces, line and
# paragraph separators), "İ", combining marks, commas, terminator runs and
# footnote markers, whole and broken.
_SCAN_PIECES = st.sampled_from([
    " ", "\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2009", "\u2028",
    "\u2029", "\u3000", "İ", "İs", "\u0301", "e\u0301", "[^1]", "[^a b]", "[^", "]",
    ",", ".", "...", "!?", "!. Alpha", "! . Alpha", ".. 42", "0.35", "200,000", "x'y", "Dr.",
    "e.g.", "Alpha", "THE",
])
_SCAN_TEXT = st.one_of(
    _TEXT,
    st.lists(st.one_of(_SCAN_PIECES, _SCAN_PIECES, st.text(max_size=4)), max_size=60)
    .map("".join))


@settings(deadline=None)
@given(_SCAN_TEXT, st.sampled_from(FORMATS), st.sampled_from([1, 2, 5, 64, None]),
       st.sets(st.sampled_from([".", "e.g.", "dr.", "x.", "i\u0307."])))
def test_scan_matches_a_loop_over_the_tokens(text, fmt, piece, abbreviations):
    # piece patches the scan's piece size, so that pieces are cut at every
    # whitespace run; None keeps the module's size.
    lexicon = replace(default_lexicon(), abbreviations=frozenset(abbreviations))
    with mock.patch.object(document, "_PIECE", piece or document._PIECE):
        store = scan_text(text, lexicon)
        doc = _parse_or_none(text, fmt, lexicon)
    reference = _ReferenceStore(text)
    reference.scan(0, len(text), _ReferenceFold(lexicon.stopwords))
    assert _store_arrays(store) == _store_arrays(reference)
    if doc is None:
        return
    # The parse scans each paragraph, and each sentence is its share of the
    # paragraph's tokens and words.
    reference = _ReferenceStore(text)
    fold = _ReferenceFold(lexicon.stopwords)
    by_length = {}
    for abbr in abbreviations:
        by_length.setdefault(len(abbr), set()).add(abbr)
    expected, total = [], 0
    for paragraph in doc.iter_paragraphs():
        span = paragraph.span
        for s, e in _reference_sentence_bounds(text, span.start_byte, span.end_byte,
                                               by_length):
            first = len(reference.kind), len(reference.word_lower)
            words = reference.scan(s, e, fold)
            total += words
            expected.append((words, first[0], len(reference.kind), first[1],
                             len(reference.word_lower)))
    assert [(s.word_count, s.first_token, s.end_token, s.first_word, s.end_word)
            for s in doc.iter_sentences()] == expected
    assert _store_arrays(doc.store) == _store_arrays(reference)
    assert doc.total_words == total


def test_a_terminator_run_counts_from_the_start_of_the_range():
    # A "." that opens the text is a run of one "." (the text's last token,
    # also a ".", is not the token before it), so the abbreviation "." ends
    # it, as it ends a "." with whitespace before it. After "!" the "." is the
    # end of the run "!.", which ends a sentence.
    lexicon = replace(default_lexicon(), abbreviations=frozenset({"."}))

    def count(text):
        return len(list(parse_document(text, "plain", lexicon=lexicon).iter_sentences()))

    assert count(". Alpha.") == 1
    assert count("Alpha! . Beta") == 1
    assert count("!. Alpha") == 2


# Passages that trip the rules, so that the detectors and maladies report
# spans; mixed with _TEXT, whose pieces bring CRLF, "İ" and combining marks.
_RULE_PASSAGES = [
    TELERIUM_ORIGINAL, TRAIL_ORIGINAL, TOPICS_ORIGINAL, RATE_ORIGINAL,
    LORIMETER_ORIGINAL, FIRST_TO_STUDY, STROSIS_UNLINKED, FIRESIDE_INTERRUPTED,
    FIRESIDE_DELAYED, DETAIL_FIRST_PARAGRAPH, SUPERLATIVE_PASSAGE,
    INTENSITY_ADJ, INTENSITY_ADV, *STORYLINE_BROKEN_OPENERS,
]
_RULE_TEXT = st.lists(st.one_of(_TEXT, st.sampled_from(_RULE_PASSAGES)),
                      max_size=8).map("".join)


@settings(deadline=None)
@given(_RULE_TEXT, st.sampled_from(FORMATS))
def test_reported_spans_are_sound(text, fmt):
    doc = _parse_or_none(text, fmt)
    if doc is None:
        return
    cfg = AnalysisConfig()
    diagnostics = run_all(doc, cfg)
    spans = [span for d in diagnostics for span in (d.span, *d.evidence)]
    spans += [ref.span for finding in infer_maladies(doc, diagnostics, cfg)
              for ref in finding.evidence]
    for span in spans:
        assert 0 <= span.start_byte < span.end_byte <= len(text)
        assert text[span.start_byte:span.end_byte]
        _recount(text, span)


# Markdown that carries footnotes: rule-tripping passages and headings with
# [^n] markers planted after drawn words (an id may recur), then one
# definition per marked id, in drawn order.
@st.composite
def _footnoted_markdown(draw):
    blocks, ids = [], []
    for block in draw(st.lists(st.sampled_from([*_RULE_PASSAGES, "# Part two"]),
                               min_size=1, max_size=8)):
        words = block.split(" ")
        first = 1 if words[0] == "#" else 0  # not after the heading's "#"
        for _ in range(draw(st.integers(0, 3))):
            fid = str(draw(st.integers(1, 9)))
            words[draw(st.integers(first, len(words) - 1))] += f"[^{fid}]"
            ids.append(fid)
        blocks.append(" ".join(words))
    blocks += [f"[^{fid}]: Note {fid}." for fid in draw(st.permutations(sorted(set(ids))))]
    return draw(st.sampled_from(["\n\n", "\r\n\r\n"])).join(blocks) + "\n"


@settings(deadline=None)
@given(_footnoted_markdown())
def test_reported_spans_are_sound_with_footnotes(text):
    test_reported_spans_are_sound.hypothesis.inner_test(text, "markdown")


# Each threshold whose increase can only remove findings of its rule.
_RAISABLE = {
    "max_sentence_words": "S101",
    "max_paragraph_sentences": "S301",
    "min_insertion_words": "S103",
    "max_delay_words": "S103",
    "intensity_per_page": "S701",
    "superlative_per_page": "S702",
    "footnote_ratio": "S601",
}

# Threshold values spread over the range the measured counts and rates of
# _RULE_TEXT documents fall in; hypothesis draws plain integers and floats
# mostly near their bounds.
_INT_GRID = range(1, 41)
_RATE_GRID = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)

# The defaults, and thresholds low enough that most rules and maladies fire.
_CONFIGS = st.sampled_from([
    AnalysisConfig(),
    AnalysisConfig(max_sentence_words=8, max_paragraph_sentences=2, footnote_ratio=0.05,
                   intensity_per_page=0.1, superlative_per_page=0.1, min_insertion_words=2,
                   max_delay_words=3, max_pages=0.05, min_keyword_overlap=3,
                   malady_min_rule_kinds=1),
])



# Lowercase triggers in mid-sentence, where only a case-folded comparison
# finds them: a "the <x>ing of" gerund with a be-form (S102), "most <content
# word>" and a superlative (S702), an intensity word (S701), a connector in
# the opening window and a demonstrative (S201, S302).
_MID_SENTENCE = [
    "Our aim is the making of lenses. ",
    "Their plan offers the most durable design. ",
    "Our team built the best lens. ",
    "The gain was significantly larger. ",
    "The lens, however, failed. ",
    "We saw that these lenses fail. ",
    # S103: lead clauses of at least max_delay_words words that open on an
    # -ing form or a subordinator, first or second word, and a paragraph
    # whose first sentence is comma-split behind a lowercase connector.
    "Reading the long report on the lens trials from the wet spring of that year, "
    "we saw the flaw. ",
    "Although the cold rain fell on the town, working through the long wet night "
    "with care, the crew held the line. ",
    "Even though the first trial of the new lens failed in the cold, the team kept going. ",
    "\n\nstill, the lens that we ground by hand over many long nights, failed. ",
]
_CASE_TEXT = st.lists(
    st.one_of(_TEXT, st.sampled_from(_RULE_PASSAGES), st.sampled_from(_MID_SENTENCE)),
    max_size=8).map("".join)

# An ASCII letter after a letter or digit: never a word's first character,
# so changing its case moves no sentence bound and no span.
_INNER_LETTER_RE = re.compile(r"(?<=[^\W_])[A-Za-z]")


@settings(deadline=None)
@given(_CASE_TEXT, st.sampled_from(FORMATS), _CONFIGS)
def test_findings_ignore_the_case_of_inner_letters(text, fmt, cfg):
    doc = _parse_or_none(text, fmt)
    if doc is None:
        return
    swapped = parse_document(_INNER_LETTER_RE.sub(lambda m: m.group().swapcase(), text), fmt)
    diagnostics, swapped_diagnostics = run_all(doc, cfg), run_all(swapped, cfg)
    assert swapped_diagnostics == diagnostics
    assert (infer_maladies(swapped, swapped_diagnostics, cfg)
            == infer_maladies(doc, diagnostics, cfg))


def _keywords_by_tokenize(doc, cfg):
    """extract_keywords as it was computed from tokenize: the heading's WORD
    tokens, stopwords dropped, each stemmed as it stands."""
    counts = Counter()
    if doc.sections:
        opening = doc.sections[0]
        counts.update([stem(t.text) for t in tokenize(opening.heading_text)
                       if t.kind == WORD and t.text.lower() not in doc.lexicon.stopwords])
        for paragraph in opening.paragraphs[:2]:
            for sentence in paragraph.sentences:
                counts.update(sentence.stems)
    return tuple(sorted(counts, key=lambda s: (-counts[s], s))[:cfg.keyword_count])


# The default lexicon, and one where some of _TEXT's capitalised and
# non-ASCII words are stopwords, so that the heading's stopword test sees
# folded forms.
_LEXICONS = st.sampled_from([
    default_lexicon(),
    replace(default_lexicon(),
            stopwords=default_lexicon().stopwords | {"alpha", "ångström", "i\u0307s", "model"}),
])


# One line of _TEXT and of its pieces, joined by spaces so that the pieces'
# words stand alone.
_HEADING = st.lists(st.one_of(_TEXT, _PIECES), min_size=1, max_size=6).map(
    lambda parts: " ".join(" ".join(parts).split()))


@settings(deadline=None)
@given(_HEADING, _RULE_TEXT, _LEXICONS, _CONFIGS)
def test_keywords_match_the_tokenize_computation(heading, body, lexicon, cfg):
    try:
        doc = parse_document(f"# {heading}\n\n{body}", "markdown", lexicon=lexicon)
    except DocumentStructureError:
        return
    assert extract_keywords(doc, cfg) == _keywords_by_tokenize(doc, cfg)


def _findings_of(doc, cfg, rule_id):
    return Counter((d.span, d.measured, d.evidence) for d in run_all(doc, cfg, rules=[rule_id]))


@settings(deadline=None)
@given(_RULE_TEXT, st.sampled_from(FORMATS), st.data())
def test_raising_a_threshold_adds_no_finding(text, fmt, data):
    doc = _parse_or_none(text, fmt)
    if doc is None:
        return
    for name, rule_id in _RAISABLE.items():
        grid = _INT_GRID if isinstance(getattr(AnalysisConfig(), name), int) else _RATE_GRID
        low, high = sorted(data.draw(st.lists(st.sampled_from(grid), min_size=2, max_size=2,
                                              unique=True)))
        base = _findings_of(doc, AnalysisConfig(**{name: low}), rule_id)
        raised = _findings_of(doc, AnalysisConfig(**{name: high}), rule_id)
        assert not raised - base, name


@settings(deadline=None)
@given(_footnoted_markdown(),
       st.lists(st.sampled_from(_RATE_GRID), min_size=2, max_size=2, unique=True))
def test_raising_footnote_ratio_adds_no_finding_with_footnotes(text, ratios):
    doc = parse_document(text, "markdown")
    low, high = sorted(ratios)
    base = _findings_of(doc, AnalysisConfig(footnote_ratio=low), "S601")
    raised = _findings_of(doc, AnalysisConfig(footnote_ratio=high), "S601")
    assert not raised - base


@settings(deadline=None)
@given(_RULE_TEXT, st.sampled_from(FORMATS), _CONFIGS, st.sets(st.sampled_from(RULE_IDS)))
def test_run_all_selects_and_sorts(text, fmt, cfg, rules):
    doc = _parse_or_none(text, fmt)
    if doc is None:
        return
    diagnostics = run_all(doc, cfg)
    keys = [(d.span.start_byte, d.rule_id) for d in diagnostics]
    assert keys == sorted(keys)
    assert run_all(doc, cfg, rules=rules) == [d for d in diagnostics if d.rule_id in rules]


@settings(deadline=None)
@given(_RULE_TEXT, st.sampled_from(FORMATS), _CONFIGS)
def test_machine_report_round_trips_for_arbitrary_text(text, fmt, cfg):
    doc = _parse_or_none(text, fmt)
    if doc is None:
        return
    diagnostics = run_all(doc, cfg)
    report = build_report("doc", cfg, diagnostics, infer_maladies(doc, diagnostics, cfg))
    assert parse_machine(render_machine(report)) == report


# The unit each rule judges; a finding's span and evidence lie inside one.
_SCOPES = {"S101": "sentence", "S102": "sentence", "S103": "sentence",
           "S201": "paragraph", "S301": "paragraph", "S302": "paragraph",
           "S401": "section"}


def _scope_ranges(doc, scope):
    if scope == "sentence":
        return [(s.span.start_byte, s.span.end_byte) for s in doc.iter_sentences()]
    if scope == "paragraph":
        return [(p.span.start_byte, p.span.end_byte) for p in doc.iter_paragraphs()]
    return [(sec.paragraphs[0].span.start_byte, sec.paragraphs[-1].span.end_byte)
            for sec in doc.sections if sec.paragraphs]


@settings(deadline=None)
@given(_RULE_TEXT, st.sampled_from(FORMATS), _CONFIGS)
def test_findings_lie_inside_the_scope_of_their_rule(text, fmt, cfg):
    doc = _parse_or_none(text, fmt)
    if doc is None:
        return
    ranges = {scope: _scope_ranges(doc, scope) for scope in set(_SCOPES.values())}
    for diag in run_all(doc, cfg, rules=_SCOPES):
        spans = (diag.span, *diag.evidence)
        assert any(all(lo <= span.start_byte and span.end_byte <= hi for span in spans)
                   for lo, hi in ranges[_SCOPES[diag.rule_id]]), diag


@settings(deadline=None)
@given(_RULE_TEXT, st.sampled_from(FORMATS), _CONFIGS)
def test_malady_evidence_names_a_diagnosed_rule(text, fmt, cfg):
    doc = _parse_or_none(text, fmt)
    if doc is None:
        return
    diagnostics = run_all(doc, cfg)
    known = {d.rule_id for d in diagnostics} | {RELEVANCE_EVIDENCE}
    for finding in infer_maladies(doc, diagnostics, cfg):
        assert {ref.rule_id for ref in finding.evidence} <= known


def test_parse_holds_few_tracked_objects_per_sentence():
    # Tokens live in flat per-document arrays, so the objects the cyclic GC
    # tracks grow with sentences and paragraphs, not with tokens.
    text = "\n\n".join(_RULE_PASSAGES * 150)
    assert len(text) > 250_000
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        doc = parse_document(text, "plain")
        held = len(gc.get_objects()) - before
    finally:
        gc.enable()
    sentences = sum(1 for _ in doc.iter_sentences())
    assert held / sentences < 3


def test_parse_retains_few_bytes_per_source_character():
    # A token is an offset range into the source, so the parse keeps no copy
    # of any token's text: what it retains is a few arrays, the shared
    # lowercase forms and stems, and the sentence records.
    text = "\n\n".join(_RULE_PASSAGES * 150)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        doc = parse_document(text, "plain")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert doc.total_words > 40_000
    assert retained / len(text) < 13.5


def test_one_long_paragraph_parses_in_bounded_memory():
    # The scan matches a long paragraph in pieces, so that the chunk strings
    # of the whole paragraph are never held at once: with them, the peak is
    # over three times what the parse retains.
    one = " ".join(" ".join(p.split()) for p in _RULE_PASSAGES)
    text = " ".join([one] * (300_000 // len(one) + 1))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        doc = parse_document(text, "plain")
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(s.paragraphs) for s in doc.sections] == [1]
    assert peak - before <= 1.5 * (retained - before)
