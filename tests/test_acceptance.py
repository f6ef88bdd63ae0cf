"""Acceptance suite.

Each test covers one numbered criterion and prints one PASS/FAIL line
(visible with pytest -s or in captured output). All tolerances are exact.
"""

import random

from prose_clinic.config import AnalysisConfig
from prose_clinic.detectors import RULES, run_all
from prose_clinic.document import MARKDOWN, PLAIN, parse_document
from prose_clinic.maladies import MaladyKind, extract_keywords, infer_maladies
from prose_clinic.reporting import (
    build_report,
    parse_machine,
    render_human,
    render_machine,
)

from docbuild import (
    FILLER,
    FILLER_TINY,
    INTENSITY_ADJ,
    INTENSITY_ADV,
    SURVEY,
    footnote_document,
    interleave,
    paragraphs,
)
from passages import (
    FIRESIDE_BRIEF_LEAD,
    FIRESIDE_DELAYED,
    FIRESIDE_INTERRUPTED,
    LORIMETER_ORIGINAL,
    RATE_ORIGINAL,
    RATE_REVISED,
    STORYLINE_BROKEN_OPENERS,
    STORYLINE_CARRIED_OPENERS,
    STROSIS_LINKED,
    STROSIS_UNLINKED,
    TOPICS_ORIGINAL,
    TOPICS_REVISED,
    TRAIL_ORIGINAL,
    FIRST_TO_STUDY,
    WORD_COUNT_ORACLE,
)

CFG = AnalysisConfig()


def _verdict(number, label, ok):
    print(f"ACCEPTANCE {number:>2} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def _detect(rule_id, text, fmt=PLAIN, cfg=CFG):
    return RULES[rule_id](parse_document(text, fmt), cfg)


def test_criterion_01_word_count_oracle():
    ok = all(
        parse_document(text, PLAIN).total_words == expected
        for text, expected in WORD_COUNT_ORACLE
    )
    _verdict(1, "tokenizer word counts", ok)


def test_criterion_02_long_sentence_set():
    long_ones = {TRAIL_ORIGINAL, LORIMETER_ORIGINAL, FIRST_TO_STUDY}
    ok = all(
        bool(_detect("S101", text)) == (text in long_ones)
        for text, _ in WORD_COUNT_ORACLE
    )
    _verdict(2, "S101 flags exactly the 28/33/31-word sentences", ok)


def test_criterion_03_hidden_verb():
    ok = (bool(_detect("S102", TOPICS_ORIGINAL))
          and bool(_detect("S102", RATE_ORIGINAL))
          and not _detect("S102", TOPICS_REVISED)
          and not _detect("S102", RATE_REVISED))
    _verdict(3, "S102 flags nominal originals, passes revisions", ok)


def test_criterion_04_core_placement():
    interrupted = _detect("S103", FIRESIDE_INTERRUPTED)
    delayed = _detect("S103", FIRESIDE_DELAYED)
    brief = _detect("S103", FIRESIDE_BRIEF_LEAD)
    ok = (len(interrupted) == 1 and "interrupted" in interrupted[0].message
          and len(delayed) == 1 and "delayed" in delayed[0].message
          and brief == [])
    _verdict(4, "S103 interrupted/delayed/brief-lead", ok)


def test_criterion_05_dialogic_links():
    ok = (len(_detect("S201", STROSIS_UNLINKED)) >= 2
          and _detect("S201", STROSIS_LINKED) == [])
    _verdict(5, "S201 unlinked paragraph vs linked revision", ok)


def test_criterion_06_storyline():
    broken = _detect("S401", "\n\n".join(STORYLINE_BROKEN_OPENERS))
    carried = _detect("S401", "\n\n".join(STORYLINE_CARRIED_OPENERS))
    ok = len(broken) >= 1 and carried == []
    _verdict(6, "S401 broken vs carried openers", ok)


def test_criterion_07_footnote_budget():
    flagged = _detect("S601", footnote_document([FILLER] * 1000, 11), MARKDOWN)
    passed = _detect("S601", footnote_document([FILLER] * 1000, 10), MARKDOWN)
    long_doc = footnote_document([FILLER] * 3333 + [FILLER_TINY], 33)
    long_ok = _detect("S601", long_doc, MARKDOWN)
    ok = (len(flagged) == 1 and flagged[0].threshold == 10
          and flagged[0].measured == 11
          and passed == [] and long_ok == [])
    _verdict(7, "S601 11/30pp flagged at 10, 10/30pp and 33/100pp clean", ok)


def test_criterion_08_intensity_boundary():
    hot = paragraphs([INTENSITY_ADJ] * 16 + [INTENSITY_ADV] * 15 + [FILLER] * 969)
    cold = paragraphs([INTENSITY_ADJ] * 15 + [INTENSITY_ADV] * 15 + [FILLER] * 970)
    ok = (len(_detect("S701", hot)) == 1
          and _detect("S701", cold) == [])
    _verdict(8, "S701 31 uses on 30 pages flagged, 30 not", ok)


def test_criterion_09_faulty_rap_composite():
    opening = [FILLER] * 5
    second = [SURVEY] + [FILLER] * 4
    rest = interleave(FILLER, INTENSITY_ADJ, 990, 31)
    text = footnote_document(opening + second + rest, 11)
    doc = parse_document(text, MARKDOWN)
    diags = run_all(doc, CFG)
    findings = infer_maladies(doc, diags, CFG)
    ok = (len(findings) == 1
          and findings[0].kind is MaladyKind.FAULTY_RAP
          and findings[0].strength == 3
          and {ref.rule_id for ref in findings[0].evidence}
          == {"S401", "S601", "S701"})
    _verdict(9, "M1 composite: one FaultyRAP, strength 3", ok)


# --- criterion 10: property suite -------------------------------------------

_VOCAB = ("the a model data spore method outcome survey analysis growth "
          "tissue rate t-rail o-ring market value policy trial report "
          "figure result note we it they this these however because "
          "although and but therefore important moisture region decade "
          "records best most").split()


def _random_sentence(rng, marker=None):
    n = rng.randint(3, 28)
    words = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.05:
            words.append(str(rng.randint(0, 500)))
        elif roll < 0.08:
            words.append(f"{rng.randint(0, 9)}.{rng.randint(10, 99)}")
        else:
            words.append(rng.choice(_VOCAB))
    parts = []
    for i, word in enumerate(words):
        parts.append(word)
        if i < n - 1 and rng.random() < 0.08:
            parts[-1] += ","
    text = " ".join(parts)
    text = text[0].upper() + text[1:]
    if marker is not None:
        text += f"[^{marker}]"
    return text + rng.choice([".", ".", ".", "?", "!"])


def _random_document(rng):
    blocks = []
    note_ids = []
    if rng.random() < 0.5:
        blocks.append("# " + rng.choice(_VOCAB).capitalize() + " overview")
    for _ in range(rng.randint(1, 10)):
        if rng.random() < 0.15:
            blocks.append("## " + rng.choice(_VOCAB).capitalize())
        sentences = []
        for _ in range(rng.randint(1, 8)):
            marker = None
            if rng.random() < 0.06:
                marker = str(len(note_ids) + 1)
                note_ids.append(marker)
            sentences.append(_random_sentence(rng, marker))
        blocks.append(" ".join(sentences))
    for nid in note_ids:
        blocks.append(f"[^{nid}]: {_random_sentence(rng)}")
    return "\n\n".join(blocks) + "\n"


def _line_col(source, offset):
    line = source.count("\n", 0, offset) + 1
    col = offset - (source.rfind("\n", 0, offset) + 1) + 1
    return line, col


def _spans_sound(doc):
    src = doc.source
    for paragraph in doc.iter_paragraphs():
        for sentence in paragraph.sentences:
            if not (paragraph.span.start_byte <= sentence.span.start_byte
                    <= sentence.span.end_byte <= paragraph.span.end_byte):
                return False
            for token in sentence.tokens:
                if src[token.span.start_byte:token.span.end_byte] != token.text:
                    return False
                if _line_col(src, token.span.start_byte) != (token.span.line,
                                                             token.span.column):
                    return False
    for note in doc.footnotes:
        if not src[note.marker_span.start_byte:note.marker_span.end_byte].startswith("[^"):
            return False
    for diag in run_all(doc, CFG):
        spans = (diag.span,) + diag.evidence
        if any(not (0 <= s.start_byte < s.end_byte <= len(src)) for s in spans):
            return False
    return True


def _full_render(text):
    doc = parse_document(text, MARKDOWN)
    diags = run_all(doc, CFG)
    findings = infer_maladies(doc, diags, CFG,
                              keywords=extract_keywords(doc, CFG))
    report = build_report("doc.md", CFG, diags, findings)
    return render_human(report) + render_machine(report)


def test_criterion_10_property_suite():
    rng = random.Random(0xC11A1C)
    corpus = [_random_document(rng) for _ in range(100)]
    failures = []

    # (a) determinism: byte-identical renders across repeated full runs.
    if any(_full_render(text) != _full_render(text) for text in corpus[:10]):
        failures.append("determinism")

    # (b) span soundness across the whole corpus.
    if not all(_spans_sound(parse_document(text, MARKDOWN)) for text in corpus):
        failures.append("span soundness")

    # (c) threshold monotonicity for S101 and S301.
    docs = [parse_document(text, MARKDOWN) for text in corpus[:20]]
    for field, rule, lo, hi in (("max_sentence_words", "S101", 3, 40),
                                ("max_paragraph_sentences", "S301", 1, 10)):
        for _ in range(10):
            a, b = sorted(rng.sample(range(lo, hi), 2))
            loose = AnalysisConfig(**{field: b})
            strict = AnalysisConfig(**{field: a})
            if any(len(RULES[rule](d, loose)) > len(RULES[rule](d, strict))
                   for d in docs):
                failures.append(f"monotonicity {rule}")
                break

    # (d) machine round-trip equality.
    for text in corpus[:20]:
        doc = parse_document(text, MARKDOWN)
        diags = run_all(doc, CFG)
        findings = infer_maladies(doc, diags, CFG)
        report = build_report("doc.md", CFG, diags, findings)
        if parse_machine(render_machine(report)) != report:
            failures.append("machine round-trip")
            break

    # (e) word-count additivity.
    for text in corpus:
        doc = parse_document(text, MARKDOWN)
        by_paragraph = sum(p.word_count for p in doc.iter_paragraphs())
        by_sentence = sum(s.word_count for s in doc.iter_sentences())
        if not (doc.total_words == by_paragraph == by_sentence):
            failures.append("additivity")
            break

    _verdict(10, f"property suite{' [' + ', '.join(failures) + ']' if failures else ''}",
             not failures)
