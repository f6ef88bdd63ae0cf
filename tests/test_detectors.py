import dataclasses
import gc
import re
import time
from pathlib import Path

import pytest

import prose_clinic
from prose_clinic.cli import analyze
from prose_clinic.config import AnalysisConfig
from prose_clinic.detectors import REGISTRY, RULE_IDS, RULES, Severity, run_all
from prose_clinic.document import MARKDOWN, PLAIN, parse_document
from prose_clinic.reporting import render_machine

from docbuild import (
    FILLER,
    FILLER_SHORT,
    FILLER_TINY,
    INTENSITY_ADJ,
    INTENSITY_ADV,
    INTENSITY_SYN,
    footnote_document,
    interleave,
    paragraphs,
)
from passages import (
    DETAIL_FIRST_PARAGRAPH,
    FIRESIDE_BRIEF_LEAD,
    FIRESIDE_DELAYED,
    FIRESIDE_GOOD,
    FIRESIDE_INTERRUPTED,
    LORIMETER_ORIGINAL,
    POINT_FIRST_PARAGRAPH,
    RATE_ORIGINAL,
    RATE_REVISED,
    STORYLINE_BROKEN_OPENERS,
    STORYLINE_CARRIED_OPENERS,
    STROSIS_LINKED,
    STROSIS_UNLINKED,
    SUPERLATIVE_PASSAGE,
    TOPICS_ORIGINAL,
    TOPICS_REVISED,
    WORD_COUNT_ORACLE,
)

CFG = AnalysisConfig()


def detect(rule_id, text, fmt=PLAIN, cfg=CFG):
    return RULES[rule_id](parse_document(text, fmt), cfg)


# --- S101: long sentences -------------------------------------------------

def test_s101_flags_exactly_the_long_passages():
    text = "\n\n".join(t for t, _ in WORD_COUNT_ORACLE)
    found = sorted(d.measured for d in detect("S101", text))
    assert found == [28, 31, 33]


def test_s101_boundary():
    at_limit = " ".join(["alpha"] * 25)
    over = " ".join(["alpha"] * 26)
    assert detect("S101", at_limit) == []
    (diag,) = detect("S101", over)
    assert (diag.measured, diag.threshold) == (26, 25)
    assert diag.severity is Severity.WARNING


def test_s101_respects_configured_limit():
    cfg = dataclasses.replace(CFG, max_sentence_words=10)
    assert len(detect("S101", FIRESIDE_GOOD, cfg=cfg)) == 1


# --- S102: hidden verbs ---------------------------------------------------

@pytest.mark.parametrize("text,measured", [
    (RATE_ORIGINAL, 3),     # "the increasing of" plus one -ity noun
    (TOPICS_ORIGINAL, 3),   # three -tion/-sion nouns on "were"
])
def test_s102_flags_nominal_style(text, measured):
    (diag,) = detect("S102", text)
    assert diag.measured == measured
    assert diag.threshold == 2
    assert diag.severity is Severity.INFO
    assert len(diag.evidence) >= 2


@pytest.mark.parametrize("text", [RATE_REVISED, TOPICS_REVISED, FIRESIDE_GOOD])
def test_s102_quiet_on_verbal_style(text):
    assert detect("S102", text) == []


def test_s102_needs_a_be_form():
    # Nominalizations without "to be" carrying the sentence stay quiet.
    text = "The consolidation of archives caused the restriction of entry."
    assert detect("S102", text) == []


def test_s102_gerund_has_at_least_five_letters():
    (diag,) = detect("S102", "It is the doing of experts.")
    assert diag.measured == 2
    assert detect("S102", "It is the ring of steel.") == []


@pytest.mark.parametrize("text,phrase", [
    ("It is the, testing of lenses.", "the, testing of"),
    ("It is the 12 testing of lenses.", "the 12 testing of"),
])
def test_s102_gerund_words_skip_marks_and_numbers(text, phrase):
    # "the" and "of" are the words before and after the gerund: a mark or a
    # number between them is no word.
    (diag,) = detect("S102", text)
    span = diag.evidence[-1]
    assert text[span.start_byte:span.end_byte] == phrase


@pytest.mark.parametrize("text", [
    "We saw the. Testing of lenses is slow.",
    "Our aim is the testing. Of lenses we know little.",
])
def test_s102_gerund_that_opens_or_ends_its_sentence_does_not_count(text):
    # The "the" or the "of" lies in the sentence next to the gerund's.
    assert detect("S102", text) == []


# --- S103: interrupted or delayed core ------------------------------------

def test_s103_interruption():
    (diag,) = detect("S103", FIRESIDE_INTERRUPTED)
    assert diag.measured == 12
    assert diag.threshold == CFG.min_insertion_words
    assert "interrupted" in diag.message
    src = FIRESIDE_INTERRUPTED
    (insertion,) = diag.evidence
    assert src[insertion.start_byte:insertion.end_byte].startswith("while sitting")


def test_s103_delay_accumulates_leading_clauses():
    (diag,) = detect("S103", FIRESIDE_DELAYED)
    assert diag.measured == 16
    assert diag.threshold == CFG.max_delay_words
    assert "delayed" in diag.message
    assert len(diag.evidence) == 3


@pytest.mark.parametrize("text", [FIRESIDE_GOOD, FIRESIDE_BRIEF_LEAD])
def test_s103_tolerates_intact_or_briefly_delayed_cores(text):
    assert detect("S103", text) == []


def test_s103_lorimeter_interruption_counts_numbers_as_words():
    (diag,) = detect("S103", LORIMETER_ORIGINAL)
    assert diag.measured == 25


def test_s103_both_findings_on_one_sentence_share_its_span():
    cfg = AnalysisConfig(min_insertion_words=2, max_delay_words=3)
    interrupted, delayed = detect(
        "S103", "Reading the report, studying the long table, we saw it.", cfg=cfg)
    assert (interrupted.measured, delayed.measured) == (4, 7)
    assert delayed.span is interrupted.span


def test_s103_connector_prefix_is_not_an_interruption():
    # A leading connector plus comma is a transition, not a split core.
    text = ("However, while sitting by the fire even though it was a warm "
            "day, I read my book.")
    diags = detect("S103", text)
    assert all("interrupted" not in d.message for d in diags)


def test_s103_a_lead_in_that_ends_the_paragraph_on_a_comma_delays_the_core():
    # The closing comma leaves an empty last segment, which ends the leads.
    text = "Although the committee met on many occasions over the long and busy year,"
    (diag,) = detect("S103", text)
    assert diag.measured == 13
    assert "delayed" in diag.message


LEAD_CFG = AnalysisConfig(max_delay_words=2)


def test_s103_lead_ing_word_has_at_least_five_letters():
    (diag,) = detect("S103", "Going home, we slept.", cfg=LEAD_CFG)
    assert diag.measured == 2
    assert detect("S103", "Sing loud, we slept.", cfg=LEAD_CFG) == []


def test_s103_lead_opens_within_its_first_two_words():
    (diag,) = detect("S103", "Long before dawn, we slept.", cfg=LEAD_CFG)
    assert diag.measured == 3
    assert detect("S103", "Quite long before dawn, we slept.", cfg=LEAD_CFG) == []
    # Numbers count toward the delay but are not words of the window.
    for text, measured in [("12 because dawn came, we slept.", 4),
                           ("12 13 14 because dawn came, we slept.", 6)]:
        (diag,) = detect("S103", text, cfg=LEAD_CFG)
        assert diag.measured == measured


def test_s103_evidence_runs_from_a_segment_first_word_to_its_last():
    # Marks at a segment's edges are left out of its evidence.
    text = '"Because dawn came, "waiting long," we slept.'
    (diag,) = detect("S103", text, cfg=LEAD_CFG)
    assert [text[s.start_byte:s.end_byte] for s in diag.evidence] == [
        "Because dawn came", "waiting long"]
    text = 'We, "as the long day wore on into the night," slept.'
    (diag,) = detect("S103", text)
    assert [text[s.start_byte:s.end_byte] for s in diag.evidence] == [
        "as the long day wore on into the night"]


# --- S201: unlinked sentences ----------------------------------------------

def test_s201_unlinked_paragraph():
    diags = detect("S201", STROSIS_UNLINKED)
    assert len(diags) == 2
    for diag in diags:
        assert diag.severity is Severity.WARNING
        assert len(diag.evidence) == 2


def test_s201_linked_paragraph_is_quiet():
    assert detect("S201", STROSIS_LINKED) == []


def test_s201_connector_counts_as_link():
    assert detect("S201", "We failed. But we learned.") == []


def test_s201_conjunctive_adverb_counts_as_link():
    assert detect("S201", "The probe failed. However, water rose fast.") == []
    (diag,) = detect("S201", "The probe failed. Water rose fast.")
    assert diag.measured == 0


def test_s201_numbers_before_a_connector_are_no_words_of_the_window():
    # link_window_tokens (3) counts words: three numbers before "however"
    # leave it in the window, three words do not.
    assert detect("S201", "The probe failed. 1990, 2000, 2010 however, water rose.") == []
    (diag,) = detect("S201", "The probe failed. Water rose fast however.")
    assert diag.measured == 0


def test_s201_repeated_stem_counts_as_link():
    text = "The spores multiply quickly. Mature spores attack the tissue."
    assert detect("S201", text) == []


def test_s201_bare_pronoun_is_not_a_link():
    (diag,) = detect("S201", "The probe failed. It sank quietly.")
    assert diag.measured == 0 and diag.threshold == 1


def test_s201_does_not_cross_paragraphs():
    text = "The probe failed.\n\nIt sank quietly."
    assert detect("S201", text) == []


def test_s201_findings_that_share_a_sentence_share_its_span():
    first, second = detect("S201", "The probe failed. It sank quietly. Water rose fast.")
    assert first.span == second.evidence[0]
    assert second.evidence[0] is first.evidence[1]


# --- S301 / S302: paragraph shape ------------------------------------------

def test_s301_boundary():
    six = " ".join(["It grew."] * 6)
    seven = " ".join(["It grew."] * 7)
    assert detect("S301", six) == []
    (diag,) = detect("S301", seven)
    assert (diag.measured, diag.threshold) == (7, 6)
    assert diag.severity is Severity.WARNING


def test_s302_flags_detail_first_paragraph():
    (diag,) = detect("S302", DETAIL_FIRST_PARAGRAPH)
    assert diag.measured == 2  # the two leading figures
    assert len(diag.evidence) == 2


def test_s302_quiet_on_point_first_rewrite():
    assert detect("S302", POINT_FIRST_PARAGRAPH) == []


def test_s302_needs_four_sentences():
    text = "G fluctuates between 5 and 7 percent. It moves. It settles."
    assert detect("S302", text) == []


def test_s302_four_sentences_are_enough():
    text = "G fluctuates between 5 and 7 percent. It moves. It settles. It stays."
    (diag,) = detect("S302", text)
    assert diag.measured == 2


def test_s302_demonstrative_signals_a_point():
    text = ("These 5 regions diverge sharply. " + FILLER + " " + FILLER + " "
            + FILLER)
    assert detect("S302", text) == []


def test_s302_leading_connector_signals_a_point():
    text = ("But 5 regions diverge sharply. " + FILLER + " " + FILLER + " "
            + FILLER)
    assert detect("S302", text) == []


def test_s302_conjunctive_adverb_signals_a_point():
    text = " ".join(["5 regions diverge sharply.", FILLER, FILLER, FILLER])
    (diag,) = detect("S302", text)
    assert diag.measured == 1
    assert detect("S302", "However, " + text) == []


def test_s302_numbers_before_a_connector_are_no_words_of_the_window():
    rest = " ".join([FILLER, FILLER, FILLER])
    assert detect("S302", "1990, 2000, 2010 however, regions diverge. " + rest) == []
    (diag,) = detect("S302", "In 1990 the regions however diverge. " + rest)
    assert diag.measured == 1


# --- S401: broken opener storyline ------------------------------------------

def test_s401_broken_openers():
    diags = detect("S401", "\n\n".join(STORYLINE_BROKEN_OPENERS))
    assert len(diags) == 2
    for diag in diags:
        assert len(diag.evidence) == 2


def test_s401_findings_that_share_an_opener_share_its_span():
    first, second = detect("S401", "The probe failed.\n\nWater rose fast.\n\nA gull cried.")
    assert first.span == second.evidence[0]
    assert second.evidence[0] is first.evidence[1]


def test_s401_carried_openers():
    assert detect("S401", "\n\n".join(STORYLINE_CARRIED_OPENERS)) == []


def test_s401_single_paragraph_sections_are_quiet():
    text = "# One\n\nAlpha beta.\n\n# Two\n\nGamma delta."
    assert detect("S401", text, fmt=MARKDOWN) == []


# --- S501: overlong document -------------------------------------------------

def test_s501_dormant_by_default():
    assert detect("S501", paragraphs([FILLER] * 1000)) == []


def test_s501_strictly_over_limit():
    big = paragraphs([FILLER] * 1000)  # 12000 words, 30 pages
    at_limit = dataclasses.replace(CFG, max_pages=30)
    over = dataclasses.replace(CFG, max_pages=25)
    assert detect("S501", big, cfg=at_limit) == []
    (diag,) = detect("S501", big, cfg=over)
    assert (diag.measured, diag.threshold) == (30.0, 25)


# --- S601: footnote overload -------------------------------------------------

def test_s601_eleven_notes_on_thirty_pages():
    text = footnote_document([FILLER] * 1000, 11)
    (diag,) = detect("S601", text, fmt=MARKDOWN)
    assert (diag.measured, diag.threshold) == (11, 10)
    assert diag.severity is Severity.WARNING
    assert len(diag.evidence) == 11


def test_s601_ten_notes_on_thirty_pages():
    assert detect("S601", footnote_document([FILLER] * 1000, 10), fmt=MARKDOWN) == []


def test_s601_fair_count_rounds_a_half_up():
    # 12600 words are 31.5 pages, a fair count of 10.5 notes: 11 are fair.
    text = footnote_document([FILLER] * 1050, 11)
    assert detect("S601", text, fmt=MARKDOWN) == []
    (diag,) = detect("S601", footnote_document([FILLER] * 1050, 12), fmt=MARKDOWN)
    assert (diag.measured, diag.threshold) == (12, 11)


def test_s601_thirty_three_notes_on_a_hundred_pages():
    text = footnote_document([FILLER] * 3333 + [FILLER_TINY], 33)
    doc = parse_document(text, MARKDOWN)
    assert doc.total_words == 40000
    assert RULES["S601"](doc, CFG) == []


def test_s601_no_notes_no_diagnostic():
    assert detect("S601", paragraphs([FILLER] * 10)) == []


# --- S701: intensity families --------------------------------------------------

def test_s701_thirty_one_uses_on_thirty_pages():
    text = paragraphs(interleave(FILLER, INTENSITY_ADJ, 1000, 31))
    (diag,) = detect("S701", text)
    assert diag.measured == pytest.approx(31 / 30)
    assert diag.threshold == 1.0
    assert len(diag.evidence) == 31


def test_s701_thirty_uses_on_thirty_pages():
    text = paragraphs(interleave(FILLER, INTENSITY_ADJ, 1000, 30))
    assert detect("S701", text) == []


def test_s701_pools_adjective_and_adverb():
    text = paragraphs([INTENSITY_ADJ] * 16 + [INTENSITY_ADV] * 15 + [FILLER] * 969)
    (diag,) = detect("S701", text)
    assert len(diag.evidence) == 31
    assert "important" in diag.message


def test_s701_families_count_separately():
    # Swapping synonyms in does not merge the tallies, but each family is
    # still tracked on its own.
    text = paragraphs([INTENSITY_ADJ] * 20 + [INTENSITY_SYN] * 20 + [FILLER] * 960)
    assert detect("S701", text) == []
    text = paragraphs([INTENSITY_ADJ] * 31 + [INTENSITY_SYN] * 31 + [FILLER] * 938)
    assert len(detect("S701", text)) == 2


def test_s701_empty_document():
    assert detect("S701", "") == []


# --- S702: superlative density ---------------------------------------------

NEG_SUPERLATIVE_PASSAGE = (
    "This is the best method in the fine tradition of the field. "
    "Our approach remains the best available, and its results are the "
    "noblest."
)


def test_s702_four_superlatives_in_one_page():
    text = paragraphs([SUPERLATIVE_PASSAGE] + [FILLER_SHORT] * 47, per_paragraph=4)
    doc = parse_document(text, PLAIN)
    assert doc.total_words == 400
    (diag,) = RULES["S702"](doc, CFG)
    assert (diag.measured, diag.threshold) == (4.0, 3.0)
    assert len(diag.evidence) == 4


def test_s702_three_superlatives_in_one_page():
    text = paragraphs([NEG_SUPERLATIVE_PASSAGE] + [FILLER_SHORT] * 47, per_paragraph=4)
    doc = parse_document(text, PLAIN)
    assert doc.total_words == 400
    assert RULES["S702"](doc, CFG) == []


def test_s702_most_plus_content_word():
    cfg = dataclasses.replace(CFG, superlative_per_page=0.5)
    # The content word is the next word of the sentence: a mark or a number
    # between them is no word.
    for opening, phrase in [("The most elegant method wins the day.", "most elegant"),
                            ("Most elegant methods win the day.", "Most elegant"),
                            ("The most, notable method wins the day.", "most, notable"),
                            ("The most 3 results win the day.", "most 3 results")]:
        doc = parse_document(paragraphs([opening] + [FILLER_SHORT] * 49), PLAIN)
        (diag,) = RULES["S702"](doc, cfg)
        span = diag.evidence[0]
        assert doc.source[span.start_byte:span.end_byte] == phrase


def test_s702_most_plus_stopword_does_not_count():
    cfg = dataclasses.replace(CFG, superlative_per_page=0.5)
    text = paragraphs(["The method wins most of the time today."] + [FILLER_SHORT] * 49)
    assert detect("S702", text, cfg=cfg) == []


def test_s702_most_that_ends_its_sentence_does_not_count():
    cfg = dataclasses.replace(CFG, superlative_per_page=0.5)
    text = paragraphs(["The method wins the most. Notable results follow."] + [FILLER_SHORT] * 49)
    assert detect("S702", text, cfg=cfg) == []


def test_s702_empty_document():
    assert detect("S702", "") == []


# --- run_all ----------------------------------------------------------------

def test_run_all_sorted_and_complete():
    diags = run_all(parse_document(LORIMETER_ORIGINAL, PLAIN), CFG)
    assert [d.rule_id for d in diags] == ["S101", "S103"]
    keys = [(d.span.start_byte, d.rule_id) for d in diags]
    assert keys == sorted(keys)


def test_run_all_rule_filter():
    doc = parse_document(LORIMETER_ORIGINAL, PLAIN)
    assert [d.rule_id for d in run_all(doc, CFG, rules={"S101"})] == ["S101"]
    assert run_all(doc, CFG, rules=set()) == []


def test_run_all_unknown_rule():
    doc = parse_document("Hi.", PLAIN)
    with pytest.raises(ValueError, match="S999"):
        run_all(doc, CFG, rules={"S101", "S999"})


def test_run_all_deterministic():
    text = "\n\n".join(t for t, _ in WORD_COUNT_ORACLE)
    doc = parse_document(text, PLAIN)
    assert run_all(doc, CFG) == run_all(doc, CFG)


def test_registry_lists_all_rules():
    assert RULE_IDS == tuple(
        f"S{n}" for n in (101, 102, 103, 201, 301, 302, 401, 501, 601, 701, 702)
    )


def test_readme_rules_table_matches_registry():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = [line for line in readme.splitlines() if line.startswith("| S")]
    assert rows == [
        f"| {rule.id} | {rule.severity.value:<8} | {rule.summary} |"
        for rule in REGISTRY.values()
    ]


def test_registry_summaries_state_the_default_thresholds():
    stated = [m.groups() for rule in REGISTRY.values()
              for m in re.finditer(r"`(\w+)` \((\d+)\)", rule.summary)]
    assert len(stated) == 4  # S101, S103, S301 and S702
    defaults = AnalysisConfig()
    for name, value in stated:
        assert getattr(defaults, name) == float(value), name


def test_diagnostic_spans_stay_inside_the_source():
    text = footnote_document(
        interleave(FILLER, INTENSITY_ADJ, 1000, 31), 11
    )
    doc = parse_document(text, MARKDOWN)
    for diag in run_all(doc, CFG):
        assert 0 <= diag.span.start_byte < diag.span.end_byte <= len(doc.source)
        for span in diag.evidence:
            assert 0 <= span.start_byte < span.end_byte <= len(doc.source)


def test_readme_names_every_public_name():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    library_use = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    assert [name for name in prose_clinic.__all__ if f"`{name}`" not in library_use] == []


# Worst-case inputs for the time an analysis takes, as (unit, tail, format,
# size): the unit repeated to about size characters, then the tail. The
# first four are one long sentence; the others are runs of short sentences,
# of abbreviations, of unclosed markers, of headings, of hits of one rule, of
# blank lines, one long word, a hyphen chain and a digit group, and many
# markers of one footnote. The two sentences full of connectors, where S201
# once took quadratic time, are twice as long, so that that stage outweighs
# the linear ones.
_WORST_CASES = {
    "connector-commas": ("When a, ", "x.", PLAIN, 50_000),
    "connectors": ("x and ", "x.", PLAIN, 50_000),
    "commas": ("a, ", "x.", PLAIN, 25_000),
    "demonstratives": ("this x ", "x.", PLAIN, 25_000),
    "sentences": ("A. ", "", PLAIN, 25_000),
    "linked-sentences": ("So x. ", "", PLAIN, 25_000),
    "abbreviations": ("e.g. ", "", PLAIN, 25_000),
    "open-markers": ("[^", "", MARKDOWN, 25_000),
    "headings": ("# h\n", "", MARKDOWN, 25_000),
    "most": ("most ", "", PLAIN, 25_000),
    "gerunds": ("is the testing of ", "", PLAIN, 25_000),
    "blank-lines": ("\n", "", PLAIN, 25_000),
    "long-word": ("a", "", PLAIN, 25_000),
    "hyphen-chain": ("a-", "a", PLAIN, 25_000),
    "digit-group": ("1,", "1", PLAIN, 25_000),
    "markers": ("x[^1] ", "\n\n[^1]: A note.\n", MARKDOWN, 25_000),
}


def _seconds(text, fmt):
    """The time of one analysis of text, from the parse to machine output."""
    gc.collect()
    start = time.perf_counter()
    render_machine(analyze(text, fmt, CFG, name="worst-case"))
    return time.perf_counter() - start


@pytest.mark.parametrize("shape", _WORST_CASES)
def test_analysis_time_grows_linearly_on_worst_case_input(shape):
    # Parse, rules, maladies and machine output on a text and on one four
    # times as long: linear work takes ~4 times as long on the larger text,
    # quadratic work ~16 times. The bound of 8 is an exponent of 1.5. Each
    # size is timed three times and the fastest counts; once a run of the
    # larger text is under the bound, further runs could only lower it.
    unit, tail, fmt, size = _WORST_CASES[shape]
    small, large = (unit * (n // len(unit)) + tail for n in (size, 4 * size))
    fastest = min(_seconds(small, fmt) for _ in range(3))
    ratios = []
    for _ in range(3):
        ratios.append(_seconds(large, fmt) / fastest)
        if ratios[-1] < 8:
            break
    assert min(ratios) < 8, ratios
