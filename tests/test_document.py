import gc
import math
import re
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import pairwise
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prose_clinic import document
from prose_clinic.config import AnalysisConfig
from prose_clinic.detectors import RULE_IDS, Diagnostic, run_all
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
from prose_clinic.lexicon import SUPERLATIVE, default_lexicon, load_lexicon_extensions, stem
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
            # A word's form, which the rules test, is its text lowercased.
            assert [store.form(i) for i in range(sentence.first_token, sentence.end_token)
                    if store.kind[i] == document.WORD_CODE] == [t.text.lower() for t in words]
            assert all(t.kind == PUNCTUATION for t in sentence.tokens if t.text == ",")
            assert sentence.word_count == sum(
                1 for t in sentence.tokens if t.kind in (WORD, NUMBER))
            assert sentence.stems == tuple(
                stem(t.text) for t in words if t.text.lower() not in lexicon.stopwords)
        assert paragraph.word_count == sum(s.word_count for s in paragraph.sentences)
        total += paragraph.word_count
        last_end = p.end_byte
    assert doc.total_words == total
    # Each token's lowercase form if it is a word, else None.
    forms = [t.text.lower() if t.kind == WORD else None
             for t in map(store.token, range(len(store.kind)))]
    # One stem slot per token: None for a stopword, the form's stem for
    # another word, and None for a token that is not a word.
    assert store.stem == [None if form is None or form in lexicon.stopwords else stem(form)
                          for form in forms]
    # One class byte per token: the form's for a word, 0 for any other token.
    assert store.word_class == bytes([0 if form is None else lexicon.word_class(form)
                                      for form in forms])
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
    def __init__(self, lexicon):
        self.lexicon = lexicon

    def __missing__(self, text):
        if not re.search(r"[^\W\d_]", text):
            entry = ()
        else:
            lower = text.lower()
            entry = self.get(lower)
            if entry is None:
                entry = self[lower] = (None if lower in self.lexicon.stopwords else stem(lower),
                                       self.lexicon.word_class(lower))
        self[text] = entry
        return entry


class _ReferenceStore:
    def __init__(self, source):
        self.source = source
        self.start, self.end, self.kind, self.stem, self.word_class = [], [], [], [], []
        self.sentence_token, self.paragraph_sentence = [0], [0]

    def scan(self, start, end, fold):
        """Append the tokens of source[start:end]; returns the number of
        words (WORD plus NUMBER tokens)."""
        words = 0
        for m in _TOKEN_RE.finditer(self.source, start, end):
            pos, stop = m.span()
            self.start.append(pos)
            self.end.append(stop)
            entry = fold[m.group()] if m.lastgroup == "wordish" else ()
            # A word's stem and class byte; None and 0 for any other token.
            stem_slot, word_class = entry or (None, 0)
            self.stem.append(stem_slot)
            self.word_class.append(word_class)
            if m.lastgroup == "wordish":
                words += 1
                self.kind.append(document.WORD_CODE if entry else document.NUMBER_CODE)
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
            for name in ("start", "end", "kind", "stem", "word_class", "sentence_token",
                         "paragraph_sentence")}


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
    reference.scan(0, len(text), _ReferenceFold(lexicon))
    assert _store_arrays(store) == _store_arrays(reference)
    if doc is None:
        return
    # The parse scans each run of body text once, and each sentence is its
    # share of the run's tokens: scanning the sentences one at a time gives
    # the same store.
    reference = _ReferenceStore(text)
    fold = _ReferenceFold(lexicon)
    by_length = {}
    for abbr in abbreviations:
        by_length.setdefault(len(abbr), set()).add(abbr)
    expected, total = [], 0
    for paragraph in doc.iter_paragraphs():
        span = paragraph.span
        for s, e in _reference_sentence_bounds(text, span.start_byte, span.end_byte,
                                               by_length):
            first = len(reference.kind)
            words = reference.scan(s, e, fold)
            total += words
            expected.append((words, first, len(reference.kind)))
            reference.sentence_token.append(len(reference.kind))
        reference.paragraph_sentence.append(len(reference.sentence_token) - 1)
    assert [(s.word_count, s.first_token, s.end_token)
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


# The parse as a loop over the source's lines, as parse_document was before it
# read body text in runs: a block of non-blank body lines is one paragraph,
# scanned on its own. It is the reference that the parse is compared with.
_REFERENCE_HEADING_RE = re.compile(r"^(#{1,6})\s+(\S.*)$")
_REFERENCE_DEF_RE = re.compile(r"^\[\^([^\[\]\s]+)\]:\s?(.*)$")
_REFERENCE_MARKER_RE = re.compile(r"\[\^[^\[\]\s]+\]")


def _reference_parse(source, fmt, *, lexicon):
    store = document.TokenStore(source)
    kind, starts, ends = store.kind, store.start, store.end
    abbreviations = {}
    for abbr in lexicon.abbreviations:
        abbreviations.setdefault(len(abbr), set()).add(abbr)
    sections = [("", 0, 0)]  # (heading, level, first paragraph)
    defs, markers = {}, []
    block = []  # the [start, end) offsets of the pending block, if any
    total = 0  # the words of the sentences

    def flush_block():
        nonlocal total
        if not block:
            return
        first_token = len(kind)
        store.scan(block[0], block[1], lexicon)
        block.clear()
        last_token = len(kind)
        cuts = []
        for k in range(first_token, last_token - 1):
            if kind[k] != document.STOP_CODE:
                continue
            after = starts[k + 1]
            if ends[k] < after and (source[after].isupper() or source[after].isdigit()):
                lone = (k == first_token or kind[k - 1] != document.STOP_CODE
                        or ends[k - 1] < starts[k])
                if not (lone and source[starts[k]] == "."
                        and document._ends_with_abbreviation(source, ends[k], abbreviations)):
                    cuts.append(k + 1)
        cuts.append(last_token)
        for end_token in cuts:
            total += sum(kind[i] in (document.WORD_CODE, document.NUMBER_CODE)
                         for i in range(first_token, end_token))
            store.sentence_token.append(end_token)
            first_token = end_token
        store.paragraph_sentence.append(len(store.sentence_token) - 1)

    offset = 0
    for line in source.split("\n"):
        line_start, line_end = offset, offset + len(line)
        offset = line_end + 1
        if not line.strip():
            flush_block()
            continue
        if fmt == "markdown":
            fm = _REFERENCE_DEF_RE.match(line)
            if fm:
                flush_block()
                fid, body = fm.group(1), fm.group(2).rstrip()
                if not body:
                    raise DocumentStructureError(
                        f"footnote definition [^{fid}] has an empty body", fid)
                if fid in defs:
                    raise DocumentStructureError(
                        f"duplicate footnote definition [^{fid}]", fid, defs[fid])
                body_start = line_start + fm.start(2)
                defs[fid] = store.span(body_start, body_start + len(body))
                continue
            markers += [m.span() for m in
                        _REFERENCE_MARKER_RE.finditer(source, line_start, line_end)]
            hm = _REFERENCE_HEADING_RE.match(line)
            if hm:
                flush_block()
                heading = re.sub(r"\s#+\s*$", "", hm.group(2)).strip()
                sections.append((heading, len(hm.group(1)), len(store.paragraph_sentence) - 1))
                continue
        if not block:
            block[:] = [line_start, line_end]
        block[1] = line_end
    flush_block()
    if len(sections) > 1 and sections[1][2] == 0:
        del sections[0]
    ends = [first for _, _, first in sections[1:]] + [len(store.paragraph_sentence) - 1]

    footnotes = {}
    for start, end in markers:
        fid = source[start + 2:end - 1]
        if fid not in defs:
            raise DocumentStructureError(
                f"footnote marker [^{fid}] has no definition", fid, store.span(start, end))
        footnotes.setdefault(fid, document.Footnote(fid, store.span(start, end), defs[fid]))
    for fid in defs:
        if fid not in footnotes:
            raise DocumentStructureError(
                f"footnote definition [^{fid}] has no marker in the text", fid, defs[fid])
    return document.Document(
        source, fmt,
        tuple(document.Section(heading, level, range(first, end), store)
              for (heading, level, first), end in zip(sections, ends)),
        tuple(footnotes.values()), total, lexicon, store)


def _parse_or_error(parse, text, fmt, lexicon):
    """The parse's Document and store arrays, or its error's message, id
    and span."""
    try:
        doc = parse(text, fmt, lexicon=lexicon)
    except DocumentStructureError as exc:
        return str(exc), exc.footnote_id, exc.span
    return doc, _store_arrays(doc.store)


# Layout that decides where paragraphs and sections lie: line ends, blank
# lines of odd whitespace, "#" lines that are headings and lines that are not,
# headings with markers, and definitions with odd or empty bodies or markers
# in them.
_LAYOUT_PIECES = st.sampled_from([
    "Alpha.", "Beta", "the model grows", "Dr.", "42.", " ", "\t", ". ", "!",
    "\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028",
    "\n\n", "\n \n", "\n\t\n", "\n\r\n", "\r\n\r\n", "\n\x0b\n", "\n\x1c\n", "\n\x85\n",
    "\n\u2028\n", "\n \t\x0c\n",
    "\n#\n", "\n#", "#\n", "\n#\t\r\n", "#x", "\n# ", "\n#x\n", "\n####### x\n",
    "\n## T ##\n", "\n# Head[^1] #\n", "\n###\tHead[^2]\n", "#\u2028Head", "#\r",
    "[^1]", "[^2]", "\n[^1]:", "\n[^1]:\r", "\n[^1]:\tbody", "\n[^1]: Note [^2] here.",
    "\n[^2]: Two.\n", "\n[^1]:  spaced \n", "[^1]: Inline.",
])
_LAYOUT_TEXT = st.one_of(
    _TEXT,
    st.lists(st.one_of(_LAYOUT_PIECES, _LAYOUT_PIECES, st.text(max_size=4)), max_size=40)
    .map("".join))


@settings(deadline=None)
@example("Alpha.\n \nBeta.", "plain", frozenset())
@example("#\nText here.\n", "markdown", frozenset())
@given(_LAYOUT_TEXT, st.sampled_from(FORMATS),
       st.frozensets(st.sampled_from([".", "e.g.", "dr."])))
def test_parse_matches_a_loop_over_the_lines(text, fmt, abbreviations):
    lexicon = replace(default_lexicon(), abbreviations=abbreviations)
    assert (_parse_or_error(parse_document, text, fmt, lexicon)
            == _parse_or_error(_reference_parse, text, fmt, lexicon))


def _analysis(doc):
    cfg = AnalysisConfig()
    diagnostics = run_all(doc, cfg)
    return diagnostics, infer_maladies(doc, diagnostics, cfg)


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_parse_with_8_byte_offsets_equals_one_with_4_byte_offsets(fmt, monkeypatch):
    # A source of 2**31 code points or more takes 8-byte arrays; the limit is
    # patched so that a short source takes them.
    text = "# Opening\n\n" + "\n\n".join(_RULE_PASSAGES) + "\n\n## Close\n\nİs it done?\n"
    compact = parse_document(text, fmt)
    monkeypatch.setattr(document, "_OFFSET_LIMIT", 1)
    wide = parse_document(text, fmt)
    arrays = ("line_starts", "start", "end", "sentence_token", "paragraph_sentence")
    assert {getattr(compact.store, name).typecode for name in arrays} == {"i"}
    assert {getattr(wide.store, name).typecode for name in arrays} == {"q"}
    assert _store_arrays(wide.store) == _store_arrays(compact.store)
    assert list(wide.store.line_starts) == list(compact.store.line_starts)
    assert wide == compact
    assert list(wide.iter_sentences()) == list(compact.iter_sentences())
    assert _analysis(wide) == _analysis(compact)
    assert _analysis(compact)[0] and _analysis(compact)[1]


def test_a_plain_parse_is_one_scan():
    with mock.patch.object(document.TokenStore, "scan", autospec=True,
                           side_effect=document.TokenStore.scan) as scan:
        doc = parse_document("One claim.\n\n# Two\n\nThree claims.\n", "plain")
    assert scan.call_count == 1
    assert len(list(doc.iter_paragraphs())) == 3


def test_adjacent_structure_lines_start_no_scan():
    # Of the six runs of body text around the five structure lines, four
    # are empty or whitespace only: only the two with a token are scanned.
    text = "# One\n## Two\n \t\n### Three\nA claim[^1].\n[^1]: A note.\n[^2]: More.\n\n"
    with mock.patch.object(document.TokenStore, "scan", autospec=True,
                           side_effect=document.TokenStore.scan) as scan:
        doc = parse_document(text + "Text[^2].", "markdown")
    assert scan.call_count == 2
    assert [len(section.paragraphs) for section in doc.sections] == [0, 0, 2]


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


# The detectors that look for words of a lexicon class, as they were before
# the scan gave each word a class byte: a walk over every sentence or every
# word that tests the lowercase forms against the lexicon's sets. They read
# the Sentence and Token views, not the store's arrays. run_all is compared
# with them.
def _reference_signals_link(words, cfg, lexicon):
    window = words[:cfg.link_window_tokens]
    return not (lexicon.coordinating.isdisjoint(window)
                and lexicon.subordinating.isdisjoint(window)
                and lexicon.conjunctive_adverbs.isdisjoint(window)
                and lexicon.demonstratives.isdisjoint(words))


def _forms(tokens):
    return [t.text.lower() for t in tokens]


def _joined(first, last):
    """The Span from the start of token first to the end of token last."""
    return first.span._replace(end_byte=last.span.end_byte)


def _reference_hidden_verb(doc, cfg):
    lexicon = doc.lexicon
    out = []
    for sentence in doc.iter_sentences():
        words = sentence.words
        forms = _forms(words)
        if lexicon.be_forms.isdisjoint(forms):
            continue
        be = next(k for k, form in enumerate(forms) if form in lexicon.be_forms)
        noms = [k for k, form in enumerate(forms) if lexicon.is_folded_nominalization(form)]
        gerund = None
        for k in range(len(forms) - 2):
            mid = forms[k + 1]
            if (forms[k] == "the" and forms[k + 2] == "of"
                    and mid.endswith("ing") and len(mid) >= 5):
                gerund = k
                break
        signals = len(noms) + (2 if gerund is not None else 0)
        if signals < 2:
            continue
        evidence = [words[k].span for k in [be, *noms]]
        if gerund is not None:
            evidence.append(_joined(words[gerund], words[gerund + 2]))
        out.append(Diagnostic(
            "S102", sentence.span, signals, 2,
            "a form of 'to be' plus noun-made actions hides the verb; "
            "let the action be the verb", tuple(evidence)))
    return out


def _reference_comma_segments(sentence):
    """The tokens of each comma-separated segment of the sentence, or []
    without a comma."""
    segments = [[]]
    for token in sentence.tokens:
        if token.text == ",":
            segments.append([])
        else:
            segments[-1].append(token)
    return segments if len(segments) > 1 else []


def _reference_broken_core(doc, cfg):
    lexicon = doc.lexicon
    connectors = lexicon.coordinating | lexicon.subordinating | lexicon.conjunctive_adverbs
    subordinators = lexicon.subordinating - lexicon.coordinating
    out = []
    for sentence in doc.iter_sentences():
        segments = [([t for t in tokens if t.kind in (WORD, NUMBER)],
                     _forms(t for t in tokens if t.kind == WORD))
                    for tokens in _reference_comma_segments(sentence)]
        span = None
        if len(segments) >= 3:
            (prefix, _), (insertion, _) = segments[:2]
            # A number has no case to fold, so it is tested as it stands.
            if (1 <= len(prefix) <= cfg.max_core_prefix_tokens
                    and (prefix[0].text.lower() if prefix[0].kind == WORD else prefix[0].text)
                    not in connectors
                    and len(insertion) >= cfg.min_insertion_words
                    and any(countable for countable, _ in segments[2:])):
                span = sentence.span
                out.append(Diagnostic(
                    "S103", span, len(insertion), cfg.min_insertion_words,
                    f"subject-verb core interrupted by a {len(insertion)}-word insertion",
                    (_joined(insertion[0], insertion[-1]),)))
        if len(segments) >= 2:
            total = 0
            leads = []
            for countable, forms in segments:
                if countable and any(w in subordinators or (w.endswith("ing") and len(w) >= 5)
                                     for w in forms[:2]):
                    total += len(countable)
                    leads.append(_joined(countable[0], countable[-1]))
                else:
                    break
            if leads and total >= cfg.max_delay_words:
                out.append(Diagnostic(
                    "S103", span or sentence.span, total, cfg.max_delay_words,
                    f"subject-verb core delayed by {total} words of leading clauses",
                    tuple(leads)))
    return out


def _reference_missing_link(doc, cfg):
    out = []
    for paragraph in doc.iter_paragraphs():
        for prev, cur in pairwise(paragraph.sentences):
            if _reference_signals_link(_forms(cur.words), cfg, doc.lexicon):
                continue
            if set(prev.stems).isdisjoint(cur.stems):
                out.append(Diagnostic(
                    "S201", cur.span, 0, 1, "no explicit link to the previous sentence (no "
                    "leading connector, repeated key term, or demonstrative)",
                    (prev.span, cur.span)))
    return out


def _reference_leading_detail(doc, cfg):
    out = []
    for paragraph in doc.iter_paragraphs():
        if len(paragraph.sentences) < 4:
            continue
        first = paragraph.sentences[0]
        numbers = [t.span for t in first.tokens if t.kind == NUMBER]
        if not numbers or _reference_signals_link(_forms(first.words), cfg, doc.lexicon):
            continue
        out.append(Diagnostic(
            "S302", first.span, len(numbers), 0,
            "paragraph opens on numeric detail; open with the point the numbers support",
            tuple(numbers)))
    return out


def _reference_intensity_overuse(doc, cfg):
    lexicon = doc.lexicon
    pages = doc.total_words / cfg.words_per_page
    if pages <= 0:
        return []
    families = {}
    for sentence in doc.iter_sentences():
        for word in sentence.words:
            form = word.text.lower()
            if form in lexicon.intensity_words:
                families.setdefault(lexicon.folded_intensity_family(form), []).append(word.span)
    out = []
    for family, hits in families.items():
        rate = len(hits) / pages
        if cfg.intensity_per_page < rate < math.inf:
            out.append(Diagnostic(
                "S701", hits[0], rate, cfg.intensity_per_page,
                f"'{family}' and kin appear {len(hits)} times in an estimated "
                f"{pages:.1f} pages; swapping in synonyms will not help", tuple(hits)))
    return out


def _reference_superlative_density(doc, cfg):
    lexicon = doc.lexicon
    pages = doc.total_words / cfg.words_per_page
    if pages <= 0:
        return []
    hits = []
    for sentence in doc.iter_sentences():
        words = sentence.words
        forms = _forms(words)
        for k, form in enumerate(forms):
            if form in lexicon.superlatives:
                hits.append(words[k].span)
            elif (form == "most" and k + 1 < len(forms)
                  and forms[k + 1] not in lexicon.stopwords):
                hits.append(_joined(words[k], words[k + 1]))
    rate = len(hits) / pages
    if not hits or not cfg.superlative_per_page < rate < math.inf:
        return []
    return [Diagnostic(
        "S702", hits[0], rate, cfg.superlative_per_page,
        f"{len(hits)} superlatives in an estimated {pages:.1f} pages reads "
        f"as rhetoric; answer the reader's logical questions instead", tuple(hits))]


_REFERENCE_DETECTORS = {
    "S102": _reference_hidden_verb, "S103": _reference_broken_core,
    "S201": _reference_missing_link, "S302": _reference_leading_detail,
    "S701": _reference_intensity_overuse, "S702": _reference_superlative_density,
}

# Lexicons whose classes overlap: a word in both subordinating and
# coordinating, which is a connector and opens no lead; "most" as a
# superlative; and digit strings as connectors, which S103 tests as they
# stand when they open a sentence.
_DEFAULT = default_lexicon()
_CLASS_LEXICONS = st.sampled_from([
    _DEFAULT,
    replace(_DEFAULT, subordinating=_DEFAULT.subordinating | {"so", "and"},
            coordinating=_DEFAULT.coordinating | {"although", "while"}),
    replace(_DEFAULT, superlatives=_DEFAULT.superlatives | {"most"}),
    replace(_DEFAULT, conjunctive_adverbs=_DEFAULT.conjunctive_adverbs | {"42", "1974-1994"},
            subordinating=_DEFAULT.subordinating | {"0.35"}),
])


@settings(deadline=None)
@example("42, the lens that we ground by hand over many long nights, failed. "
         "Although the cold rain fell on the town, working through the long wet night "
         "with care, the crew held the line. ", "plain", AnalysisConfig(), 1,
         replace(_DEFAULT, conjunctive_adverbs=_DEFAULT.conjunctive_adverbs | {"42"},
                 coordinating=_DEFAULT.coordinating | {"although"}))
@given(st.one_of(_RULE_TEXT, _CASE_TEXT), st.sampled_from(FORMATS), _CONFIGS,
       st.sampled_from([None, 1, 50]), _CLASS_LEXICONS)
def test_class_driven_detectors_equal_their_references(text, fmt, cfg, window, lexicon):
    if window is not None:
        cfg = replace(cfg, link_window_tokens=window)
    doc = _parse_or_none(text, fmt, lexicon)
    if doc is None:
        return
    expected = [d for rule_id, detect in _REFERENCE_DETECTORS.items() for d in detect(doc, cfg)]
    expected.sort(key=lambda d: (d.span.start_byte, d.rule_id))
    assert run_all(doc, cfg, rules=_REFERENCE_DETECTORS) == expected


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


# The default lexicon; one where some of _TEXT's capitalised and non-ASCII
# words are stopwords, so that the heading's stopword test sees folded
# forms; and one with the default stopwords where such words, and "most",
# are in other classes, so that a fold table kept for the stopwords alone
# gives them the classes of another lexicon.
_CLASSED = replace(
    default_lexicon(),
    coordinating=default_lexicon().coordinating | {"alpha"},
    demonstratives=default_lexicon().demonstratives | {"ångström"},
    superlatives=default_lexicon().superlatives | {"model", "most"},
    intensity_words=default_lexicon().intensity_words | {"i\u0307s"})
_LEXICONS = st.sampled_from([
    default_lexicon(),
    replace(default_lexicon(),
            stopwords=default_lexicon().stopwords | {"alpha", "ångström", "i\u0307s", "model"}),
    _CLASSED,
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
    # Tokens and the sentence and paragraph bounds live in flat per-document
    # arrays, so the parse builds no tracked object per token, sentence or
    # paragraph: what it holds is the document, its sections and the fold
    # table's new entries.
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
    assert held / sentences < 0.5


def test_parse_retains_few_bytes_per_source_character():
    # A token is an offset range into the source, so the parse keeps no copy
    # of any token's text: what it retains is a few arrays of 4-byte offsets
    # and bounds, a kind code and a class byte per token, and a pointer per
    # token to a shared stem or None. A word-aligned array on top of these
    # would pass the bound.
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
    assert retained / len(text) < 4.6


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


# Text with "İ", combining marks and rule triggers, drawn with its case
# swapped or not ("İ" swaps to "i̇", two code points); and text of a few
# words in several spellings, so that two draws share forms. "İs" and "İS"
# share the form "i̇s", which is a character longer than either.
_WARMING_TEXT = st.one_of(
    st.tuples(_CASE_TEXT, st.booleans()).map(lambda t: t[0].swapcase() if t[1] else t[0]),
    st.lists(st.sampled_from([
        "İs", "İS", "is", "IS", "İ", "Alpha", "ALPHA", "alpha", "Model", "MODEL", "model",
        "The", "THE", "Most", "most", "Best", "Ångström", "ÅNGSTRÖM", "don't", "DON'T", "42",
        ".", ",", "\n\n"]), max_size=30).map(" ".join))


def _fresh_fold():
    """Patches the module's shared fold table with an empty one, so that a
    parse inside the block starts cold."""
    return mock.patch.object(document, "_fold", document.WordFold(default_lexicon()))


def _parse_facts(doc, cfg):
    diagnostics = run_all(doc, cfg)
    return (_store_arrays(doc.store), list(doc.iter_sentences()), doc, diagnostics,
            infer_maladies(doc, diagnostics, cfg))


@settings(deadline=None)
@given(_HEADING, _WARMING_TEXT, _WARMING_TEXT,
       st.sampled_from([None, str.swapcase, str.lower, str.upper]), _LEXICONS, _LEXICONS,
       st.sampled_from(FORMATS), _CONFIGS)
# "İS" leaves the form "i̇s" in the table, and "İs" must then take the
# chunk's own length, not the form's.
@example("Alpha", "İs", "", str.upper, default_lexicon(), default_lexicon(), "plain",
         AnalysisConfig())
# The stopwords agree and the classes do not: the table is replaced.
@example("Alpha", "The model is the most durable.", "", str.upper, default_lexicon(), _CLASSED,
         "plain", AnalysisConfig())
def test_a_warm_fold_table_parses_as_a_fresh_one(heading, body, other, recase, first_lexicon,
                                                  lexicon, fmt, cfg):
    # The fold table is kept across parses: a parse of B after a parse of A,
    # with the same lexicon or another, gives what a parse of B on a fresh
    # table gives. A is drawn on its own or is B in other cases, so that the
    # warm table holds other spellings of B's forms.
    second = f"# {heading}\n\n{body}"
    first = recase(second) if recase else other
    with _fresh_fold():
        fresh = _parse_or_none(second, fmt, lexicon)
        if fresh is None:
            return
        expected = _parse_facts(fresh, cfg)
    with _fresh_fold():
        _parse_or_none(first, fmt, first_lexicon)
        warm = parse_document(second, fmt, lexicon=lexicon)
    assert _parse_facts(warm, cfg) == expected


def test_the_fold_table_stays_within_its_bound(monkeypatch):
    # Many parses of words that no parse shares: the table is replaced when
    # it passes the bound, and never holds more than the bound between
    # parses. A long paragraph, cut into small pieces, passes the bound in
    # the middle of a scan.
    texts = [" ".join(f"W{i}n{j}s. word{i}x{j}" for j in range(12)) for i in range(40)]
    texts.append(" ".join(f"Long{j}ing" for j in range(600)))
    cfg = AnalysisConfig()
    expected = []
    for text in texts:
        with _fresh_fold():
            expected.append(_parse_facts(parse_document(text, "plain"), cfg))
    monkeypatch.setattr(document, "_FOLD_LIMIT", 50)
    monkeypatch.setattr(document, "_PIECE", 64)
    monkeypatch.setattr(document, "_fold", document.WordFold(default_lexicon()))
    tables = []
    for text, facts in zip(texts, expected):
        doc = parse_document(text, "plain")
        if not tables or tables[-1] is not document._fold:
            tables.append(document._fold)
        assert len(document._fold) <= 50
        assert _parse_facts(doc, cfg) == facts
        scan_text(text, doc.lexicon)
        assert len(document._fold) <= 50
    assert len(tables) > 10


def test_a_scan_with_other_stopwords_replaces_the_fold_table():
    # One slot: the table folds with the lexicon of the last scan, and a
    # scan with an equal lexicon keeps it. A lexicon with other stopwords,
    # or with the same stopwords and other classes, replaces it.
    other = replace(default_lexicon(), stopwords=default_lexicon().stopwords | {"model"})
    equal = replace(default_lexicon(), stopwords=frozenset(list(default_lexicon().stopwords)))
    classed = replace(default_lexicon(),
                      superlatives=default_lexicon().superlatives | {"model"})
    with _fresh_fold():
        assert scan_text("The model", default_lexicon()).stem == [None, "model"]
        table = document._fold
        assert scan_text("The model", equal).stem == [None, "model"]
        assert document._fold is table
        assert scan_text("The model", other).stem == [None, None]
        assert document._fold is not table
        assert document._fold.lexicon == other
        table = document._fold
        assert scan_text("The model", classed).word_class == bytes([0, SUPERLATIVE])
        assert document._fold is not table
        assert document._fold.lexicon == classed


def test_a_scan_with_an_equal_stopword_set_keeps_the_table_and_takes_the_set():
    # The table takes the equal lexicon, and with it the equal set, so that
    # the scans after it pass the identity test and do not compare the
    # lexicons again.
    # frozenset of a frozenset is the same object; of a list it is a copy.
    equal = replace(default_lexicon(), stopwords=frozenset(list(default_lexicon().stopwords)))
    assert equal.stopwords is not default_lexicon().stopwords
    assert equal == default_lexicon() and equal is not default_lexicon()
    with _fresh_fold():
        parse_document("The model grows.", "plain")
        table = document._fold
        doc = parse_document("The model grows.", "plain", lexicon=equal)
        assert document._fold is table
        assert document._fold.lexicon is equal
        assert document._fold.lexicon.stopwords is equal.stopwords
    assert doc.store.stem == [None, "model", "grow", None]


def test_long_keys_keep_the_fold_table_within_its_cap():
    # A run of whitespace before each token makes each chunk a key of its
    # own, ~70 characters long, beside the word's token and form: the 60,000
    # keys stay under the entry bound, and would hold ~9.4 MB, but the
    # table is replaced by the characters they hold before it passes the
    # ~8.5 MB cap that the entry bound sets for keys of ~10 characters.
    text = "".join(f"{' ' * 60}Spore{i}" for i in range(20_000))
    with _fresh_fold():
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scan_text(text, default_lexicon())
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert held < 8_500_000


def test_threads_that_replace_the_fold_table_parse_as_a_fresh_table_does(monkeypatch):
    # Threads share the fold slot, and with two stopword sets and a small
    # bound they keep replacing each other's table mid-scan. Each scan keeps
    # the table it holds, so every parse still equals a fresh one.
    lexicons = [default_lexicon(),
                replace(default_lexicon(),
                        stopwords=default_lexicon().stopwords | {"alpha", "model", "i\u0307s"})]
    texts = ["\n\n".join(_RULE_PASSAGES[i::3]) + f" Alpha{i} İs MODEL" for i in range(3)]
    expected = {}
    for t, text in enumerate(texts):
        for n, lexicon in enumerate(lexicons):
            with _fresh_fold():
                expected[t, n] = _store_arrays(parse_document(text, "plain", lexicon=lexicon).store)
    monkeypatch.setattr(document, "_FOLD_LIMIT", 200)
    monkeypatch.setattr(document, "_PIECE", 256)
    wrong, done = [], []

    def work(i):
        for k in range(12):
            t, n = (i + k) % len(texts), (i * k + k) % len(lexicons)
            doc = parse_document(texts[t], "plain", lexicon=lexicons[n])
            if _store_arrays(doc.store) != expected[t, n]:
                wrong.append((i, k))
        done.append(i)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == [0, 1, 2, 3]
    assert wrong == []
