"""Symptom detectors.

Each rule is a pure function of (Document, AnalysisConfig) returning located
diagnostics; word classes come from the lexicon the document was parsed with.
The rules read the document's flat token arrays (doc.store) by token index,
not the Token views, and build a Span only for what they report. The scan
gave each token a class byte (store.word_class, see Lexicon.word_class; 0
for a token that is not a WORD), and the rules that look for words of a
class (S102, S103, S201, S302, S701, S702) find them with a C-level scan of
those bytes (_hits), then find each hit's sentence by bisecting the
sentence bounds and visit only those hits and sentences. A word is a WORD
token: a rule that looks at a word's neighbours skips the punctuation and
NUMBER tokens between them. A rule that tests a word's spelling reads its
lowercase form at the hit (store.form, the form the scan folded), and
sentences are compared on the content stems of their token ranges
(store.stem, None for a stopword and for a token that is not a WORD); no
rule tests a word's raw text. S103 cuts a sentence into comma segments,
token ranges, and takes each one's word count and its first and last
counted token with a count, a find and an rfind in a mask of the kind codes
(1 for WORD and NUMBER) translated once per document.
S201 and S401 hand adjacent (prev, cur) sentence pairs to one loop, _breaks,
which reports each pair that shares no content stem: S201 the pairs in a
paragraph whose cur shows no link (_linked, which S302 also tests), and S401
the adjacent paragraph openers in a section.
REGISTRY at the end of the module holds one Rule record per rule; the rule
table, the severities and the treatment pointers are all read from it.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import pairwise, repeat
from operator import sub
from typing import Callable, NamedTuple

from .config import AnalysisConfig
from .document import (COMMA_CODE, NUMBER_CODE, PUNCTUATION_CODE, WORD_CODE, Document, Span,
                       TokenStore)
from .lexicon import (BE_FORM, CONNECTOR, DEMONSTRATIVE, GERUND, INTENSITY, NOMINALIZATION,
                      SUBORDINATOR, SUPERLATIVE)

# bytes.translate table: 1 for the WORD and NUMBER kind codes, 0 for the others.
_COUNTABLE = bytes(map(PUNCTUATION_CODE.__gt__, range(256)))
# The classes of a word that opens a lead clause of S103.
_LEAD = SUBORDINATOR | GERUND


class Severity(enum.Enum):
    INFO = "info"
    WARNING = "warning"


class Diagnostic(NamedTuple):
    rule_id: str
    span: Span
    measured: int | float
    threshold: int | float
    message: str
    evidence: tuple[Span, ...] = ()

    @property
    def severity(self) -> Severity:
        return REGISTRY[self.rule_id].severity


@cache
def _mask(bits: int) -> bytes:
    """bytes.translate table: 1 for a class byte with any of bits, else 0."""
    return bytes(map(bool, map(bits.__and__, range(256))))


def _hits(store: TokenStore, bits: int, lo: int = 0, hi: int | None = None) -> list[int]:
    """The indices of the tokens in [lo, hi) whose class byte has any of
    bits, in order: WORD tokens only, as the others' class byte is 0."""
    marks = store.word_class[lo:hi].translate(_mask(bits))
    hits = []
    i = marks.find(1)
    while i >= 0:
        hits.append(lo + i)
        i = marks.find(1, i + 1)
    return hits


def _sentences(store: TokenStore, tokens: list[int]) -> list[int]:
    """The index of the sentence that holds each of the tokens: the last
    sentence to start at or before it, as every sentence holds a token."""
    return list(map(sub, map(bisect_right, repeat(store.sentence_token), tokens), repeat(1)))


def _linked(store: TokenStore, window: int, lo: int = 0, hi: int | None = None) -> set[int]:
    """The sentences, among those of the tokens [lo, hi), that signal a link
    to the sentence before: a connector among their first `window` words
    (WORD tokens), or a demonstrative anywhere in them."""
    kind, bounds = store.kind, store.sentence_token
    connectors = _hits(store, CONNECTOR, lo, hi)
    linked = set()
    last = -1  # the sentence of the last connector tested
    for i, sentence in zip(connectors, _sentences(store, connectors)):
        # A sentence's first connector has the fewest words before it, so
        # it alone is tested: a long sentence costs one count, not one per hit.
        if sentence == last:
            continue
        last = sentence
        first = bounds[sentence]
        # Fewer tokens than the window before it leave fewer words too.
        if i - first < window or kind.count(WORD_CODE, first, i) < window:
            linked.add(sentence)
    linked.update(_sentences(store, _hits(store, DEMONSTRATIVE, lo, hi)))
    return linked


def _pages(doc: Document, cfg: AnalysisConfig) -> float:
    """Real-valued page estimate at the configured prose density."""
    return doc.total_words / cfg.words_per_page


def _document_span(doc: Document) -> Span:
    return doc.store.span(0, len(doc.source))


def detect_long_sentence(doc: Document, cfg: AnalysisConfig) -> list[Diagnostic]:
    """S101: sentence word count above max_sentence_words."""
    store = doc.store
    out = []
    for sentence, (first, end) in enumerate(pairwise(store.sentence_token)):
        # A sentence has no more words than tokens.
        if end - first > cfg.max_sentence_words and (
                n := store.sentence_word_count(sentence)) > cfg.max_sentence_words:
            out.append(Diagnostic(
                "S101", store.sentence_span(sentence), n, cfg.max_sentence_words,
                f"sentence has {n} words; the guideline is at most "
                f"{cfg.max_sentence_words}",
            ))
    return out


def detect_hidden_verb(doc: Document, cfg: AnalysisConfig) -> list[Diagnostic]:
    """S102: a be-form carrying nominalizations, or a "the <gerund> of"
    construction, instead of a strong verb. The gerund is an -ing word of at
    least five letters, and "the" and "of" are the words before and after it
    in its sentence."""
    store = doc.store
    kind, bounds = store.kind, store.sentence_token
    out = []
    last = -1  # the sentence of the last be-form
    be_forms = _hits(store, BE_FORM)
    for be, sentence in zip(be_forms, _sentences(store, be_forms)):
        # A sentence's first be-form stands for it.
        if sentence == last:
            continue
        last = sentence
        lo, hi = bounds[sentence], bounds[sentence + 1]
        noms = _hits(store, NOMINALIZATION, lo, hi)
        gerund = None  # the token range from "the" through "of" of the first gerund
        for i in _hits(store, GERUND, lo, hi):
            the, of = kind.rfind(WORD_CODE, lo, i), kind.find(WORD_CODE, i + 1, hi)
            if the >= 0 and of >= 0 and store.form(the) == "the" and store.form(of) == "of":
                gerund = the, of + 1
                break
        signals = len(noms) + (2 if gerund is not None else 0)
        if signals < 2:
            continue
        evidence = [store.token_span(i) for i in [be, *noms]]
        if gerund is not None:
            evidence.append(store.token_span(*gerund))
        out.append(Diagnostic(
            "S102", store.sentence_span(sentence), signals, 2,
            "a form of 'to be' plus noun-made actions hides the verb; "
            "let the action be the verb",
            tuple(evidence),
        ))
    return out


def detect_broken_core(doc: Document, cfg: AnalysisConfig) -> list[Diagnostic]:
    """S103: the subject-verb core is interrupted by a long comma insertion,
    or delayed past max_delay_words of leading clauses. A leading clause is
    a comma segment with a subordinator or an -ing word of at least five
    letters among its first two words."""
    lexicon, store = doc.lexicon, doc.store
    classes, kind, tokens = store.word_class, store.kind, store.sentence_token
    # Only a sentence with a comma has two segments or more.
    comma = kind.find(COMMA_CODE)
    if comma < 0:
        return []
    countable = kind.translate(_COUNTABLE)
    lead = _mask(_LEAD)
    out = []
    while comma >= 0:
        sentence = bisect_right(tokens, comma) - 1
        pos, end = tokens[sentence], tokens[sentence + 1]
        # The token ranges [lo, hi) between the sentence's commas; a segment's
        # words (and numbers, as in sentence word counts) are the 1s of
        # countable in its range.
        segments = []
        while pos <= end:
            stop = end if comma < 0 else comma
            segments.append((pos, stop))
            pos = stop + 1
            comma = kind.find(COMMA_CODE, pos, end)
        comma = kind.find(COMMA_CODE, end)
        span = None  # the sentence's span, built for its first finding
        if len(segments) >= 3:
            (prefix_lo, prefix_hi), (lo, hi) = segments[:2]
            prefix = countable.count(1, prefix_lo, prefix_hi)
            inserted = countable.count(1, lo, hi)
            first = countable.find(1, prefix_lo, prefix_hi)
            # A number has no case to fold, so it is classed as it stands.
            if (1 <= prefix <= cfg.max_core_prefix_tokens
                    and not CONNECTOR & (
                        classes[first] if kind[first] == WORD_CODE
                        else lexicon.word_class(store.source[store.start[first]:
                                                             store.end[first]]))
                    and inserted >= cfg.min_insertion_words
                    and countable.find(1, segments[2][0], end) >= 0):
                span = store.sentence_span(sentence)
                out.append(Diagnostic(
                    "S103", span,
                    inserted, cfg.min_insertion_words,
                    f"subject-verb core interrupted by a "
                    f"{inserted}-word insertion",
                    (store.token_span(countable.find(1, lo, hi),
                                      countable.rfind(1, lo, hi) + 1),),
                ))
        if len(segments) >= 2:
            total = 0
            leads = []
            for lo, hi in segments:
                # A lead segment opens with a subordinator or an -ing form,
                # possibly behind one extra word ("even though ...", "and
                # listening ..."): fewer than two words come before its
                # first word of either class.
                first = classes[lo:hi].translate(lead).find(1)
                if first >= 0 and kind.count(WORD_CODE, lo, lo + first) < 2:
                    total += countable.count(1, lo, hi)
                    leads.append((countable.find(1, lo, hi), countable.rfind(1, lo, hi) + 1))
                else:
                    break
            if leads and total >= cfg.max_delay_words:
                out.append(Diagnostic(
                    "S103", span or store.sentence_span(sentence),
                    total, cfg.max_delay_words,
                    f"subject-verb core delayed by {total} words of "
                    f"leading clauses",
                    tuple([store.token_span(i, j) for i, j in leads]),
                ))
    return out


def _breaks(store: TokenStore, rule_id: str, message: str, pairs) -> list[Diagnostic]:
    """A diagnostic for each (prev, cur) pair of sentence indices whose
    sentences share no content stem (the slot of a stopword, and of a token
    that is not a WORD, is None, which is no shared term), naming both. A
    reported cur that is the next pair's prev lends it its span."""
    stems, bounds = store.stem, store.sentence_token
    out = []
    last, span = -1, None  # the last reported cur and its span
    for prev, cur in pairs:
        terms = set(stems[bounds[prev]:bounds[prev + 1]])
        terms.discard(None)
        if terms.isdisjoint(stems[bounds[cur]:bounds[cur + 1]]):
            evidence = span if prev == last else store.sentence_span(prev)
            last, span = cur, store.sentence_span(cur)
            out.append(Diagnostic(rule_id, span, 0, 1, message, (evidence, span)))
    return out


def detect_missing_link(doc: Document, cfg: AnalysisConfig) -> list[Diagnostic]:
    """S201: a sentence that neither opens with a connector, nor repeats a
    content stem of its predecessor, nor points back with a demonstrative.
    A bare pronoun does not count as a link."""
    store = doc.store
    # Every sentence but a paragraph's first is paired with the one before.
    unlinked = set(range(len(store.sentence_token) - 1)).difference(
        store.paragraph_sentence, _linked(store, cfg.link_window_tokens))
    pairs = ((cur - 1, cur) for cur in sorted(unlinked))
    return _breaks(store, "S201", "no explicit link to the previous sentence (no leading "
                   "connector, repeated key term, or demonstrative)", pairs)


def detect_long_paragraph(doc: Document, cfg: AnalysisConfig) -> list[Diagnostic]:
    """S301: paragraph with more sentences than the chunk norm."""
    store = doc.store
    out = []
    for p, (first, end) in enumerate(pairwise(store.paragraph_sentence)):
        n = end - first
        if n > cfg.max_paragraph_sentences:
            out.append(Diagnostic(
                "S301", store.paragraph_span(p), n,
                cfg.max_paragraph_sentences,
                f"paragraph has {n} sentences; keep one point per paragraph "
                f"(about {cfg.max_paragraph_sentences} sentences)",
            ))
    return out


def detect_leading_detail(doc: Document, cfg: AnalysisConfig) -> list[Diagnostic]:
    """S302: a paragraph of four or more sentences whose first sentence leads
    with numbers and never signals a point (no demonstrative, no connector in
    the opening window)."""
    store = doc.store
    kind, tokens = store.kind, store.sentence_token
    out = []
    for first, end in pairwise(store.paragraph_sentence):
        if end - first < 4:
            continue
        numbers = [i for i in range(tokens[first], tokens[first + 1]) if kind[i] == NUMBER_CODE]
        if not numbers:
            continue
        if _linked(store, cfg.link_window_tokens, tokens[first], tokens[first + 1]):
            continue
        out.append(Diagnostic(
            "S302", store.sentence_span(first), len(numbers), 0,
            "paragraph opens on numeric detail; open with the point the "
            "numbers support",
            tuple([store.token_span(i) for i in numbers]),
        ))
    return out


def detect_storyline_break(doc: Document, cfg: AnalysisConfig) -> list[Diagnostic]:
    """S401: adjacent paragraphs in a section whose first sentences share no
    content stem; the storyline of openers breaks there."""
    bounds = doc.store.paragraph_sentence
    # A paragraph's opener is its first sentence.
    pairs = ((bounds[p - 1], bounds[p]) for section in doc.sections
             for p in section.paragraph_range[1:])
    return _breaks(doc.store, "S401", "paragraph opener carries no key term over from the "
                   "previous opener", pairs)


def detect_overlong_document(doc: Document, cfg: AnalysisConfig) -> list[Diagnostic]:
    """S501: page estimate above max_pages. Dormant unless max_pages is set."""
    if cfg.max_pages is None:
        return []
    pages = _pages(doc, cfg)
    if pages <= cfg.max_pages:
        return []
    return [Diagnostic(
        "S501", _document_span(doc), pages, cfg.max_pages,
        f"estimated {pages:.1f} pages exceeds the norm of {cfg.max_pages:g}; "
        f"cut chunks, not words",
    )]


def detect_footnote_overload(doc: Document, cfg: AnalysisConfig) -> list[Diagnostic]:
    """S601: more footnotes than the fair count (about footnote_ratio per
    page, rounded to the nearest integer, halves up)."""
    count = len(doc.footnotes)
    if count == 0:
        return []
    pages = _pages(doc, cfg)
    # count <= budget is count <= floor(budget) for an integer count, and it
    # also holds when the budget overflows to infinity, where floor raises.
    budget = pages * cfg.footnote_ratio + 0.5
    if count <= budget:
        return []
    fair = math.floor(budget)
    return [Diagnostic(
        "S601", _document_span(doc), count, fair,
        f"{count} footnotes for an estimated {pages:.1f} pages; a fair count "
        f"is {fair}",
        tuple(n.marker_span for n in doc.footnotes),
    )]


def detect_intensity_overuse(doc: Document, cfg: AnalysisConfig) -> list[Diagnostic]:
    """S701: an intensity word family (adjective and adverb pooled) used more
    often than intensity_per_page."""
    lexicon, store = doc.lexicon, doc.store
    pages = _pages(doc, cfg)
    if pages <= 0:
        return []
    # The store holds exactly the tokens of the document's sentences, in order.
    families: dict[str, list[int]] = {}
    for i in _hits(store, INTENSITY):
        families.setdefault(lexicon.folded_intensity_family(store.form(i)), []).append(i)
    out = []
    for family, hits in families.items():
        # A rate that overflows to infinity, from a page estimate near 0,
        # reports nothing, as an estimate of 0 does: JSON has no infinity.
        rate = len(hits) / pages
        if cfg.intensity_per_page < rate < math.inf:
            out.append(Diagnostic(
                "S701", store.token_span(hits[0]), rate, cfg.intensity_per_page,
                f"'{family}' and kin appear {len(hits)} times in an estimated "
                f"{pages:.1f} pages; swapping in synonyms will not help",
                tuple([store.token_span(i) for i in hits]),
            ))
    return out


def detect_superlative_density(doc: Document, cfg: AnalysisConfig) -> list[Diagnostic]:
    """S702: superlatives (including "most <content word>") denser than
    superlative_per_page; praise standing in for argument."""
    store = doc.store
    kind, stems, bounds = store.kind, store.stem, store.sentence_token
    superlatives = doc.lexicon.superlatives
    pages = _pages(doc, cfg)
    if pages <= 0:
        return []
    hits: list[tuple[int, int]] = []  # token index ranges
    for i in _hits(store, SUPERLATIVE):
        form = store.form(i)
        if form in superlatives:
            hits.append((i, i + 1))
        # "most" before a content word, the next word of its sentence
        elif (form == "most" and (
                following := kind.find(WORD_CODE, i + 1, bounds[bisect_right(bounds, i)])) >= 0
              and stems[following] is not None):
            hits.append((i, following + 1))
    if not hits:
        return []
    rate = len(hits) / pages
    if not cfg.superlative_per_page < rate < math.inf:  # as in S701
        return []
    spans = tuple([store.token_span(i, j) for i, j in hits])
    return [Diagnostic(
        "S702", spans[0], rate, cfg.superlative_per_page,
        f"{len(hits)} superlatives in an estimated {pages:.1f} pages reads "
        f"as rhetoric; answer the reader's logical questions instead",
        spans,
    )]


@dataclass(frozen=True)
class Rule:
    """Everything the program states about one rule."""

    id: str
    detector: Callable[..., list[Diagnostic]]
    severity: Severity
    summary: str  # what the rule flags, as in the README rules table
    section: str  # writing-guide section where the treatment is developed
    treatment: str


REGISTRY = {rule.id: rule for rule in (
    Rule("S101", detect_long_sentence, Severity.WARNING,
         "sentence longer than `max_sentence_words` (25)", "§1.1",
         "Distill the sentence: cut filler phrases to single words and keep "
         "one thought per sentence."),
    Rule("S102", detect_hidden_verb, Severity.INFO,
         "a be-form plus noun-made actions, or plus `the ...ing of` with an -ing "
         "word of 5+ letters, instead of a strong verb", "§1.1",
         "Let the action be the verb: turn the noun-made actions back into "
         "verbs and retire the 'to be'."),
    Rule("S103", detect_broken_core, Severity.INFO,
         "subject-verb core interrupted by a long insertion, or delayed past "
         "`max_delay_words` (12) of lead-in clauses, each opening with a "
         "subordinator or a 5+ letter -ing word within its first two words", "§1.1",
         "Reunite subject and verb: move insertions out of the core and trim "
         "the lead-in clauses."),
    Rule("S201", detect_missing_link, Severity.WARNING,
         "sentence with no link to its predecessor: no leading connector, no "
         "repeated key term, no demonstrative", "§1.2",
         "Hand off between sentences: open with a connector, repeat the key "
         "term, or point back with this/these."),
    Rule("S301", detect_long_paragraph, Severity.WARNING,
         "paragraph with more than `max_paragraph_sentences` (6) sentences",
         "§1.3",
         "Split the paragraph: one point per paragraph, stated in its first "
         "sentence."),
    Rule("S302", detect_leading_detail, Severity.INFO,
         "paragraph of 4+ sentences that opens on numeric detail instead of "
         "a point", "§2.2",
         "Open with the point: state what the numbers mean before giving the "
         "numbers."),
    Rule("S401", detect_storyline_break, Severity.INFO,
         "adjacent paragraph openers in a section that share no key term",
         "§1.4",
         "Carry the storyline: repeat a key term of the previous opener in "
         "the next one."),
    Rule("S501", detect_overlong_document, Severity.INFO,
         "document longer than `max_pages` (off unless configured)", "§1.5",
         "Shorten by cutting whole chunks: sections, paragraphs, sentences."),
    Rule("S601", detect_footnote_overload, Severity.WARNING,
         "more footnotes than about a third of the page estimate", "§1.6",
         "Cut footnotes: fold the load-bearing ones into the text and drop "
         "the rest."),
    Rule("S701", detect_intensity_overuse, Severity.INFO,
         "one intensity word family (important/importantly, ...) used more "
         "than once per page", "§2.1",
         "Rest the intensity words: if everything is important, nothing is."),
    Rule("S702", detect_superlative_density, Severity.INFO,
         "superlatives denser than `superlative_per_page` (3), praise "
         "standing in for argument", "§2.4",
         "Trade praise for evidence: show the result that makes the claim "
         "and let readers grade it."),
)}

# run_all looks detectors up here at call time, so an entry can be swapped.
RULES = {rule_id: rule.detector for rule_id, rule in REGISTRY.items()}

RULE_IDS = tuple(REGISTRY)


def select_rules(rule_ids=None) -> tuple[str, ...]:
    """The given rule ids (all by default) in registry order; raises
    ValueError naming any unknown id."""
    if rule_ids is None:
        return RULE_IDS
    wanted = set(rule_ids)
    unknown = wanted - set(RULE_IDS)
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return tuple(r for r in RULE_IDS if r in wanted)


def run_all(doc: Document, cfg: AnalysisConfig, rules=None) -> list[Diagnostic]:
    """Run the selected detectors (all by default) and return diagnostics
    sorted by span start, then rule id."""
    diagnostics: list[Diagnostic] = []
    for rule_id in select_rules(rules):
        diagnostics.extend(RULES[rule_id](doc, cfg))
    diagnostics.sort(key=lambda d: (d.span.start_byte, d.rule_id))
    return diagnostics
