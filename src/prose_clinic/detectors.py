"""Symptom detectors.

Each rule is a pure function of (Document, AnalysisConfig) returning located
diagnostics; word classes come from the lexicon the document was parsed with.
The rules read the document's flat token arrays (doc.store) by index, not
the Token views, and build a Span only for what they report. Words are
tested in the lowercase forms the scan folded them to (store.word_lower),
against the lexicon's sets, and sentences are compared on the content stems
of their word ranges (store.word_stem, None for a stopword); no rule reads
or lowercases a word's raw text.
REGISTRY at the end of the module holds one Rule record per rule; the rule
table, the severities and the treatment pointers are all read from it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

from .config import AnalysisConfig
from .document import (
    COMMA_CODE,
    NUMBER_CODE,
    PUNCTUATION_CODE,
    WORD_CODE,
    Document,
    Sentence,
    Span,
)
from .lexicon import Lexicon


class Severity(enum.Enum):
    INFO = "info"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    rule_id: str
    span: Span
    measured: int | float
    threshold: int | float
    message: str
    evidence: tuple[Span, ...] = ()

    @property
    def severity(self) -> Severity:
        return REGISTRY[self.rule_id].severity


def _signals_link(sentence: Sentence, cfg: AnalysisConfig, lexicon: Lexicon) -> bool:
    """A connector among the first link_window_tokens words, or a
    demonstrative anywhere in the sentence."""
    words = sentence.store.word_lower
    lo, hi = sentence.first_word, sentence.end_word
    window = words[lo:min(hi, lo + cfg.link_window_tokens)]
    if not (lexicon.coordinating.isdisjoint(window)
            and lexicon.subordinating.isdisjoint(window)
            and lexicon.conjunctive_adverbs.isdisjoint(window)):
        return True
    return not lexicon.demonstratives.isdisjoint(words[lo:hi])


def _share_no_stem(prev: Sentence, cur: Sentence) -> bool:
    stems = prev.store.word_stem  # None for a stopword, which is no shared term
    return set(filter(None, stems[prev.first_word:prev.end_word])).isdisjoint(
        stems[cur.first_word:cur.end_word])


def _pages(doc: Document, cfg: AnalysisConfig) -> float:
    """Real-valued page estimate at the configured prose density."""
    return doc.total_words / cfg.words_per_page


def _document_span(doc: Document) -> Span:
    return doc.store.span(0, len(doc.source))


def detect_long_sentence(doc: Document, cfg: AnalysisConfig) -> list[Diagnostic]:
    """S101: sentence word count above max_sentence_words."""
    out = []
    for sentence in doc.iter_sentences():
        n = sentence.word_count
        if n > cfg.max_sentence_words:
            out.append(Diagnostic(
                "S101", sentence.span, n, cfg.max_sentence_words,
                f"sentence has {n} words; the guideline is at most "
                f"{cfg.max_sentence_words}",
            ))
    return out


def detect_hidden_verb(doc: Document, cfg: AnalysisConfig) -> list[Diagnostic]:
    """S102: a be-form carrying nominalizations, or a "the <gerund> of"
    construction, instead of a strong verb."""
    lexicon, store = doc.lexicon, doc.store
    words = store.word_lower
    be_forms = lexicon.be_forms
    out = []
    for sentence in doc.iter_sentences():
        lo, hi = sentence.first_word, sentence.end_word
        if be_forms.isdisjoint(words[lo:hi]):
            continue
        be = next(i for i in range(lo, hi) if words[i] in be_forms)
        noms = [i for i in range(lo, hi) if lexicon.is_folded_nominalization(words[i])]
        gerund = None
        for i in range(lo, hi - 2):
            mid = words[i + 1]
            if (words[i] == "the" and words[i + 2] == "of"
                    and mid.endswith("ing") and len(mid) >= 5):
                gerund = i
                break
        signals = len(noms) + (2 if gerund is not None else 0)
        if signals < 2:
            continue
        evidence = [store.word_span(i) for i in [be, *noms]]
        if gerund is not None:
            evidence.append(store.word_span(gerund, gerund + 3))
        out.append(Diagnostic(
            "S102", sentence.span, signals, 2,
            "a form of 'to be' plus noun-made actions hides the verb; "
            "let the action be the verb",
            tuple(evidence),
        ))
    return out


def _comma_segments(sentence: Sentence) -> list[tuple[list[int], int, int]]:
    """For each of the sentence's comma-separated segments, the indices of
    its countable tokens (words plus numbers, as in sentence word counts)
    and the range [lo, hi) of its WORD tokens in the store's word arrays.
    A sentence without a comma has one segment, and S103 needs two, so its
    segments are not built: the list is empty."""
    kind = sentence.store.kind
    pos, end = sentence.first_token, sentence.end_token
    comma = kind.find(COMMA_CODE, pos, end)
    if comma < 0:
        return []
    segments = []
    word = sentence.first_word
    while pos <= end:
        stop = end if comma < 0 else comma
        words = kind.count(WORD_CODE, pos, stop)
        segments.append(([i for i in range(pos, stop) if kind[i] < PUNCTUATION_CODE],
                         word, word + words))
        word += words
        pos = stop + 1
        comma = kind.find(COMMA_CODE, pos, end)
    return segments


def _qualifies_as_lead(words: list[str], lo: int, hi: int, subordinators) -> bool:
    # A lead segment opens with a subordinator or an -ing form, possibly
    # behind one extra word ("even though ...", "and listening ...").
    return any(w in subordinators or (w.endswith("ing") and len(w) >= 5)
               for w in words[lo:min(hi, lo + 2)])


def detect_broken_core(doc: Document, cfg: AnalysisConfig) -> list[Diagnostic]:
    """S103: the subject-verb core is interrupted by a long comma insertion,
    or delayed past max_delay_words of leading clauses."""
    lexicon, store = doc.lexicon, doc.store
    words = store.word_lower
    connectors = lexicon.coordinating | lexicon.subordinating | lexicon.conjunctive_adverbs
    # A word in both sets counts as coordinating: it joins clauses of equal
    # rank, so it opens no lead.
    subordinators = lexicon.subordinating - lexicon.coordinating
    out = []
    for sentence in doc.iter_sentences():
        segments = _comma_segments(sentence)
        span = None  # the sentence's span, built for its first finding
        if len(segments) >= 3:
            (prefix, lo, _), (insertion, _, _) = segments[:2]
            # A number has no case to fold, so it is tested as it stands.
            if (1 <= len(prefix) <= cfg.max_core_prefix_tokens
                    and (words[lo] if store.kind[prefix[0]] == WORD_CODE
                         else store.token(prefix[0]).text) not in connectors
                    and len(insertion) >= cfg.min_insertion_words
                    and any(countable for countable, _, _ in segments[2:])):
                span = sentence.span
                out.append(Diagnostic(
                    "S103", span,
                    len(insertion), cfg.min_insertion_words,
                    f"subject-verb core interrupted by a "
                    f"{len(insertion)}-word insertion",
                    (store.token_span(insertion[0], insertion[-1] + 1),),
                ))
        if len(segments) >= 2:
            total = 0
            leads = []
            for countable, lo, hi in segments:
                if countable and _qualifies_as_lead(words, lo, hi, subordinators):
                    total += len(countable)
                    leads.append((countable[0], countable[-1] + 1))
                else:
                    break
            if leads and total >= cfg.max_delay_words:
                out.append(Diagnostic(
                    "S103", span or sentence.span,
                    total, cfg.max_delay_words,
                    f"subject-verb core delayed by {total} words of "
                    f"leading clauses",
                    tuple([store.token_span(i, j) for i, j in leads]),
                ))
    return out


def detect_missing_link(doc: Document, cfg: AnalysisConfig) -> list[Diagnostic]:
    """S201: a sentence that neither opens with a connector, nor repeats a
    content stem of its predecessor, nor points back with a demonstrative.
    A bare pronoun does not count as a link."""
    out = []
    for paragraph in doc.iter_paragraphs():
        span = None  # cur's span, when the pair before found it unlinked
        for prev, cur in zip(paragraph.sentences, paragraph.sentences[1:]):
            prev_span, span = span, None
            if not _signals_link(cur, cfg, doc.lexicon) and _share_no_stem(prev, cur):
                span = cur.span
                out.append(Diagnostic(
                    "S201", span, 0, 1,
                    "no explicit link to the previous sentence (no leading "
                    "connector, repeated key term, or demonstrative)",
                    (prev_span or prev.span, span),
                ))
    return out


def detect_long_paragraph(doc: Document, cfg: AnalysisConfig) -> list[Diagnostic]:
    """S301: paragraph with more sentences than the chunk norm."""
    out = []
    for paragraph in doc.iter_paragraphs():
        n = len(paragraph.sentences)
        if n > cfg.max_paragraph_sentences:
            out.append(Diagnostic(
                "S301", paragraph.span, n,
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
    out = []
    for paragraph in doc.iter_paragraphs():
        if len(paragraph.sentences) < 4:
            continue
        first = paragraph.sentences[0]
        numbers = [i for i in range(first.first_token, first.end_token)
                   if store.kind[i] == NUMBER_CODE]
        if not numbers:
            continue
        if _signals_link(first, cfg, doc.lexicon):
            continue
        out.append(Diagnostic(
            "S302", first.span, len(numbers), 0,
            "paragraph opens on numeric detail; open with the point the "
            "numbers support",
            tuple([store.token_span(i) for i in numbers]),
        ))
    return out


def detect_storyline_break(doc: Document, cfg: AnalysisConfig) -> list[Diagnostic]:
    """S401: adjacent paragraphs in a section whose first sentences share no
    content stem; the storyline of openers breaks there."""
    out = []
    for section in doc.sections:
        openers = [p.sentences[0] for p in section.paragraphs]
        span = None  # cur's span, when the pair before was a break
        for prev, cur in zip(openers, openers[1:]):
            prev_span, span = span, None
            if _share_no_stem(prev, cur):
                span = cur.span
                out.append(Diagnostic(
                    "S401", span, 0, 1,
                    "paragraph opener carries no key term over from the "
                    "previous opener",
                    (prev_span or prev.span, span),
                ))
    return out


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
    # The store holds exactly the words of the document's sentences, in order.
    intensity = lexicon.intensity_words
    families: dict[str, list[int]] = {}
    for i, word in enumerate(store.word_lower):
        if word in intensity:
            families.setdefault(lexicon.folded_intensity_family(word), []).append(i)
    out = []
    for family, hits in families.items():
        rate = len(hits) / pages
        if rate > cfg.intensity_per_page:
            out.append(Diagnostic(
                "S701", store.word_span(hits[0]), rate, cfg.intensity_per_page,
                f"'{family}' and kin appear {len(hits)} times in an estimated "
                f"{pages:.1f} pages; swapping in synonyms will not help",
                tuple([store.word_span(i) for i in hits]),
            ))
    return out


def detect_superlative_density(doc: Document, cfg: AnalysisConfig) -> list[Diagnostic]:
    """S702: superlatives (including "most <content word>") denser than
    superlative_per_page; praise standing in for argument."""
    lexicon, store = doc.lexicon, doc.store
    words = store.word_lower
    superlatives, stopwords = lexicon.superlatives, lexicon.stopwords
    pages = _pages(doc, cfg)
    if pages <= 0:
        return []
    hits: list[tuple[int, int]] = []  # word index ranges
    for sentence in doc.iter_sentences():
        lo, hi = sentence.first_word, sentence.end_word
        forms = words[lo:hi]
        if superlatives.isdisjoint(forms) and "most" not in forms:
            continue
        for i in range(lo, hi):
            if words[i] in superlatives:
                hits.append((i, i + 1))
            elif words[i] == "most" and i + 1 < hi and words[i + 1] not in stopwords:
                hits.append((i, i + 2))
    if not hits:
        return []
    rate = len(hits) / pages
    if rate <= cfg.superlative_per_page:
        return []
    spans = tuple([store.word_span(i, j) for i, j in hits])
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
         "a be-form plus noun-made actions instead of a strong verb", "§1.1",
         "Let the action be the verb: turn the noun-made actions back into "
         "verbs and retire the 'to be'."),
    Rule("S103", detect_broken_core, Severity.INFO,
         "subject-verb core interrupted by a long insertion, or delayed past "
         "`max_delay_words` (12) of lead-in clauses", "§1.1",
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
