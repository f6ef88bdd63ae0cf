"""Symptom detectors.

Each rule is a pure function of (Document, AnalysisConfig, Lexicon) returning
located diagnostics. REGISTRY at the end of the module holds one Rule record
per rule; the rule table, the severities and the treatment pointers are all
read from it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

from .config import AnalysisConfig
from .document import (
    NUMBER,
    PUNCTUATION,
    WORD,
    Document,
    Sentence,
    Span,
    Token,
)
from .lexicon import ConnectorClass, Lexicon, default_lexicon, stem


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


def _words(tokens) -> list[Token]:
    return [t for t in tokens if t.kind == WORD]


def _countable(tokens) -> list[Token]:
    # Same notion of "word" as sentence word counts: words plus numbers.
    return [t for t in tokens if t.kind in (WORD, NUMBER)]


def _content_stems(tokens, lexicon: Lexicon) -> list[str]:
    """Stems of the content (non-stopword) words among tokens, in order."""
    return [
        stem(t.text)
        for t in tokens
        if t.kind == WORD and not lexicon.is_stopword(t.text)
    ]


def _signals_link(sentence: Sentence, cfg: AnalysisConfig, lexicon: Lexicon) -> bool:
    """A connector among the first link_window_tokens words, or a
    demonstrative anywhere in the sentence."""
    window = _words(sentence.tokens)[: cfg.link_window_tokens]
    if any(lexicon.connector_class(t.text) is not ConnectorClass.NONE for t in window):
        return True
    return any(t.kind == WORD and lexicon.is_demonstrative(t.text) for t in sentence.tokens)


def _pages(doc: Document, cfg: AnalysisConfig) -> float:
    """Real-valued page estimate at the configured prose density."""
    return doc.total_words / cfg.words_per_page


def _document_span(doc: Document) -> Span:
    return Span(0, len(doc.source), 1, 1)


def _cover(tokens) -> Span:
    first, last = tokens[0].span, tokens[-1].span
    return Span(first.start_byte, last.end_byte, first.line, first.column)


def detect_long_sentence(doc: Document, cfg: AnalysisConfig,
                         lexicon: Lexicon | None = None) -> list[Diagnostic]:
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


def detect_hidden_verb(doc: Document, cfg: AnalysisConfig,
                       lexicon: Lexicon | None = None) -> list[Diagnostic]:
    """S102: a be-form carrying nominalizations, or a "the <gerund> of"
    construction, instead of a strong verb."""
    lexicon = lexicon or default_lexicon()
    out = []
    for sentence in doc.iter_sentences():
        words = _words(sentence.tokens)
        be_tokens = [t for t in words if lexicon.is_be_form(t.text)]
        if not be_tokens:
            continue
        noms = [t for t in words if lexicon.is_nominalization(t.text)]
        gerund = None
        for i in range(len(words) - 2):
            mid = words[i + 1].text.lower()
            if (words[i].text.lower() == "the" and words[i + 2].text.lower() == "of"
                    and mid.endswith("ing") and len(mid) >= 5):
                gerund = _cover(words[i:i + 3])
                break
        signals = len(noms) + (2 if gerund else 0)
        if signals < 2:
            continue
        evidence = [be_tokens[0].span] + [t.span for t in noms]
        if gerund:
            evidence.append(gerund)
        out.append(Diagnostic(
            "S102", sentence.span, signals, 2,
            "a form of 'to be' plus noun-made actions hides the verb; "
            "let the action be the verb",
            tuple(evidence),
        ))
    return out


def _comma_segments(sentence: Sentence) -> list[list[Token]]:
    segments: list[list[Token]] = [[]]
    for token in sentence.tokens:
        if token.kind == PUNCTUATION and token.text == ",":
            segments.append([])
        else:
            segments[-1].append(token)
    return segments


def _qualifies_as_lead(words: list[Token], lexicon: Lexicon) -> bool:
    # A lead segment opens with a subordinator or an -ing form, possibly
    # behind one extra word ("even though ...", "and listening ...").
    for token in words[:2]:
        w = token.text.lower()
        if lexicon.connector_class(w) is ConnectorClass.SUBORDINATING:
            return True
        if w.endswith("ing") and len(w) >= 5:
            return True
    return False


def detect_broken_core(doc: Document, cfg: AnalysisConfig,
                       lexicon: Lexicon | None = None) -> list[Diagnostic]:
    """S103: the subject-verb core is interrupted by a long comma insertion,
    or delayed past max_delay_words of leading clauses."""
    lexicon = lexicon or default_lexicon()
    out = []
    for sentence in doc.iter_sentences():
        segments = _comma_segments(sentence)
        if len(segments) >= 3:
            prefix = _countable(segments[0])
            if (1 <= len(prefix) <= cfg.max_core_prefix_tokens
                    and lexicon.connector_class(prefix[0].text) is ConnectorClass.NONE):
                insertion = _countable(segments[1])
                resumes = any(_countable(seg) for seg in segments[2:])
                if len(insertion) >= cfg.min_insertion_words and resumes:
                    out.append(Diagnostic(
                        "S103", sentence.span,
                        len(insertion), cfg.min_insertion_words,
                        f"subject-verb core interrupted by a "
                        f"{len(insertion)}-word insertion",
                        (_cover(insertion),),
                    ))
        if len(segments) >= 2:
            total = 0
            lead_spans = []
            for seg in segments:
                countable = _countable(seg)
                if countable and _qualifies_as_lead(_words(seg), lexicon):
                    total += len(countable)
                    lead_spans.append(_cover(countable))
                else:
                    break
            if lead_spans and total >= cfg.max_delay_words:
                out.append(Diagnostic(
                    "S103", sentence.span,
                    total, cfg.max_delay_words,
                    f"subject-verb core delayed by {total} words of "
                    f"leading clauses",
                    tuple(lead_spans),
                ))
    return out


def detect_missing_link(doc: Document, cfg: AnalysisConfig,
                        lexicon: Lexicon | None = None) -> list[Diagnostic]:
    """S201: a sentence that neither opens with a connector, nor repeats a
    content stem of its predecessor, nor points back with a demonstrative.
    A bare pronoun does not count as a link."""
    lexicon = lexicon or default_lexicon()
    out = []
    for paragraph in doc.iter_paragraphs():
        # The previous sentence's stems are carried forward, so each sentence
        # is stemmed at most once; None until a comparison needs them.
        prev_stems = None
        for prev, cur in zip(paragraph.sentences, paragraph.sentences[1:]):
            if _signals_link(cur, cfg, lexicon):
                prev_stems = None
                continue
            if prev_stems is None:
                prev_stems = set(_content_stems(prev.tokens, lexicon))
            cur_stems = set(_content_stems(cur.tokens, lexicon))
            if not prev_stems & cur_stems:
                out.append(Diagnostic(
                    "S201", cur.span, 0, 1,
                    "no explicit link to the previous sentence (no leading "
                    "connector, repeated key term, or demonstrative)",
                    (prev.span, cur.span),
                ))
            prev_stems = cur_stems
    return out


def detect_long_paragraph(doc: Document, cfg: AnalysisConfig,
                          lexicon: Lexicon | None = None) -> list[Diagnostic]:
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


def detect_leading_detail(doc: Document, cfg: AnalysisConfig,
                          lexicon: Lexicon | None = None) -> list[Diagnostic]:
    """S302: a paragraph of four or more sentences whose first sentence leads
    with numbers and never signals a point (no demonstrative, no connector in
    the opening window)."""
    lexicon = lexicon or default_lexicon()
    out = []
    for paragraph in doc.iter_paragraphs():
        if len(paragraph.sentences) < 4:
            continue
        first = paragraph.first_sentence
        numbers = [t for t in first.tokens if t.kind == NUMBER]
        if not numbers:
            continue
        if _signals_link(first, cfg, lexicon):
            continue
        out.append(Diagnostic(
            "S302", first.span, len(numbers), 0,
            "paragraph opens on numeric detail; open with the point the "
            "numbers support",
            tuple(t.span for t in numbers),
        ))
    return out


def detect_storyline_break(doc: Document, cfg: AnalysisConfig,
                           lexicon: Lexicon | None = None) -> list[Diagnostic]:
    """S401: adjacent paragraphs in a section whose first sentences share no
    content stem; the storyline of openers breaks there."""
    lexicon = lexicon or default_lexicon()
    out = []
    for section in doc.sections:
        openers = [p.first_sentence for p in section.paragraphs]
        stems = [set(_content_stems(s.tokens, lexicon)) for s in openers]
        for i in range(1, len(openers)):
            if not stems[i - 1] & stems[i]:
                out.append(Diagnostic(
                    "S401", openers[i].span, 0, 1,
                    "paragraph opener carries no key term over from the "
                    "previous opener",
                    (openers[i - 1].span, openers[i].span),
                ))
    return out


def detect_overlong_document(doc: Document, cfg: AnalysisConfig,
                             lexicon: Lexicon | None = None) -> list[Diagnostic]:
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


def detect_footnote_overload(doc: Document, cfg: AnalysisConfig,
                             lexicon: Lexicon | None = None) -> list[Diagnostic]:
    """S601: more footnotes than the fair count (about footnote_ratio per
    page, rounded to the nearest integer, halves up)."""
    count = len(doc.footnotes)
    if count == 0:
        return []
    pages = _pages(doc, cfg)
    fair = math.floor(pages * cfg.footnote_ratio + 0.5)
    if count <= fair:
        return []
    return [Diagnostic(
        "S601", _document_span(doc), count, fair,
        f"{count} footnotes for an estimated {pages:.1f} pages; a fair count "
        f"is {fair}",
        tuple(n.marker_span for n in doc.footnotes),
    )]


def detect_intensity_overuse(doc: Document, cfg: AnalysisConfig,
                             lexicon: Lexicon | None = None) -> list[Diagnostic]:
    """S701: an intensity word family (adjective and adverb pooled) used more
    often than intensity_per_page."""
    lexicon = lexicon or default_lexicon()
    pages = _pages(doc, cfg)
    if pages <= 0:
        return []
    families: dict[str, list[Token]] = {}
    for token in doc.iter_tokens():
        if token.kind == WORD and lexicon.is_intensity_word(token.text):
            families.setdefault(lexicon.intensity_family(token.text), []).append(token)
    out = []
    for family, tokens in families.items():
        rate = len(tokens) / pages
        if rate > cfg.intensity_per_page:
            out.append(Diagnostic(
                "S701", tokens[0].span, rate, cfg.intensity_per_page,
                f"'{family}' and kin appear {len(tokens)} times in an estimated "
                f"{pages:.1f} pages; swapping in synonyms will not help",
                tuple(t.span for t in tokens),
            ))
    return out


def detect_superlative_density(doc: Document, cfg: AnalysisConfig,
                               lexicon: Lexicon | None = None) -> list[Diagnostic]:
    """S702: superlatives (including "most <content word>") denser than
    superlative_per_page; praise standing in for argument."""
    lexicon = lexicon or default_lexicon()
    pages = _pages(doc, cfg)
    if pages <= 0:
        return []
    spans: list[Span] = []
    for sentence in doc.iter_sentences():
        words = _words(sentence.tokens)
        for i, token in enumerate(words):
            if lexicon.is_superlative(token.text):
                spans.append(token.span)
            elif (token.text.lower() == "most" and i + 1 < len(words)
                  and not lexicon.is_stopword(words[i + 1].text)):
                spans.append(_cover(words[i:i + 2]))
    if not spans:
        return []
    rate = len(spans) / pages
    if rate <= cfg.superlative_per_page:
        return []
    return [Diagnostic(
        "S702", spans[0], rate, cfg.superlative_per_page,
        f"{len(spans)} superlatives in an estimated {pages:.1f} pages reads "
        f"as rhetoric; answer the reader's logical questions instead",
        tuple(spans),
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


def run_all(doc: Document, cfg: AnalysisConfig, lexicon: Lexicon | None = None,
            rules=None) -> list[Diagnostic]:
    """Run the selected detectors (all by default) and return diagnostics
    sorted by span start, then rule id."""
    lexicon = lexicon or default_lexicon()
    diagnostics: list[Diagnostic] = []
    for rule_id in select_rules(rules):
        diagnostics.extend(RULES[rule_id](doc, cfg, lexicon))
    diagnostics.sort(key=lambda d: (d.span.start_byte, d.rule_id))
    return diagnostics
