"""Malady inference.

Individual diagnostics are surface symptoms. This layer reads their
co-occurrence as one of four deeper faults:

- FaultyRAP: the document grows in size, apparatus, and emphasis at once,
  which suggests the central message was never settled.
- PoorChunking: chunk-level symptoms spread across several paragraphs.
- MissingRapRelevance: whole sections never restate the key terms the
  opening establishes.
- RhetoricRisk: superlative density high enough to read as self-praise.

Maladies are only ever inferred in the presence of symptoms; an empty
diagnostic list yields an empty finding list.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .config import AnalysisConfig
from .document import Document, Section, Span, TokenStore, scan_text

# Pseudo rule id for evidence that points at a section, not a diagnostic.
RELEVANCE_EVIDENCE = "RELEVANCE"

_GROWTH_RULES = ("S501", "S601", "S701")
_CHUNK_RULES = ("S301", "S302")


class MaladyKind(enum.Enum):
    FAULTY_RAP = "FaultyRAP"
    POOR_CHUNKING = "PoorChunking"
    MISSING_RAP_RELEVANCE = "MissingRapRelevance"
    RHETORIC_RISK = "RhetoricRisk"


class EvidenceRef(NamedTuple):
    rule_id: str
    span: Span


@dataclass(frozen=True)
class MaladyFinding:
    kind: MaladyKind
    strength: int
    evidence: tuple[EvidenceRef, ...]

    @property
    def narrative(self) -> str:
        return _NARRATIVES[self.kind]


_NARRATIVES = {
    MaladyKind.FAULTY_RAP: (
        "Size, apparatus, and emphasis are growing at the same time, which "
        "points at an unsettled message. Decide the one claim the document "
        "must land, then cut what does not serve it."
    ),
    MaladyKind.POOR_CHUNKING: (
        "Several paragraphs bundle or bury their points. Re-chunk so each "
        "paragraph opens with the single point it exists to make."
    ),
    MaladyKind.MISSING_RAP_RELEVANCE: (
        "Some sections never pick up the key terms the opening establishes. "
        "Open each section by restating how it advances the main point."
    ),
    MaladyKind.RHETORIC_RISK: (
        "Praise is doing the work of argument. Replace the superlatives "
        "with the evidence that lets readers judge strength themselves."
    ),
}


def _stems(store: TokenStore, paragraphs: range) -> filter:
    """The content stems of a range of paragraphs, in order and with repeats."""
    bounds, tokens = store.paragraph_sentence, store.sentence_token
    lo, hi = tokens[bounds[paragraphs.start]], tokens[bounds[paragraphs.stop]]
    return filter(None, store.stem[lo:hi])


def section_relevance(section: Section, keywords: tuple[str, ...]) -> int:
    """How many of the keywords the section's first paragraph repeats."""
    if not keywords:
        return 0
    stems = set(_stems(section.store, section.paragraph_range[:1]))
    return sum(1 for keyword in keywords if keyword in stems)


def extract_keywords(doc: Document, cfg: AnalysisConfig) -> tuple[str, ...]:
    """Rank content stems of the opening (first section's heading and first
    two paragraphs) by frequency, ties broken alphabetically. The heading's
    words are folded as the parse folds the body's."""
    counts: Counter[str] = Counter()
    if doc.sections:
        opening = doc.sections[0]
        counts.update(filter(None, scan_text(opening.heading_text, doc.lexicon).stem))
        counts.update(_stems(doc.store, opening.paragraph_range[:2]))
    ranked = sorted(counts, key=lambda s: (-counts[s], s))
    return tuple(ranked[: cfg.keyword_count])


def infer_maladies(doc: Document, diagnostics, cfg: AnalysisConfig,
                   keywords: tuple[str, ...] | None = None) -> list[MaladyFinding]:
    """Derive malady findings from a diagnostic list. No symptoms, no
    maladies."""
    if not diagnostics:
        return []
    if keywords is None:
        keywords = extract_keywords(doc, cfg)
    findings: list[MaladyFinding] = []

    # FaultyRAP: growth symptoms of several distinct kinds. Storyline breaks
    # count only inside the first section, where the message is set up.
    opening = None  # the first section's span
    if doc.sections and (first := doc.sections[0].paragraph_range):
        opening = doc.store.paragraph_span(first.start, first.stop)
    growth = []
    for diag in diagnostics:
        if diag.rule_id in _GROWTH_RULES or (
                diag.rule_id == "S401" and opening
                and opening.start_byte <= diag.span.start_byte < opening.end_byte):
            growth.append(diag)
    kinds = {d.rule_id for d in growth}
    if len(kinds) >= cfg.malady_min_rule_kinds:
        findings.append(MaladyFinding(
            MaladyKind.FAULTY_RAP, len(kinds),
            tuple(EvidenceRef(d.rule_id, d.span) for d in growth),
        ))

    # PoorChunking: chunk symptoms in three or more distinct paragraphs. S301
    # spans its paragraph and S302 its paragraph's first sentence, so both
    # start at the paragraph's first token, and a start offset names one
    # paragraph.
    chunk = [d for d in diagnostics if d.rule_id in _CHUNK_RULES]
    touched = {d.span.start_byte for d in chunk}
    if len(touched) >= 3:
        findings.append(MaladyFinding(
            MaladyKind.POOR_CHUNKING, len(touched),
            tuple(EvidenceRef(d.rule_id, d.span) for d in chunk),
        ))

    # MissingRapRelevance: sections whose first paragraph repeats too few of
    # the opening's key terms.
    if keywords:
        candidates = [
            section for section in doc.sections
            if section.paragraph_range
            and section_relevance(section, keywords) < cfg.min_keyword_overlap
        ]
        if candidates:
            findings.append(MaladyFinding(
                MaladyKind.MISSING_RAP_RELEVANCE, len(candidates),
                tuple(
                    EvidenceRef(RELEVANCE_EVIDENCE,
                                doc.store.paragraph_span(sec.paragraph_range[0]))
                    for sec in candidates
                ),
            ))

    # RhetoricRisk: any superlative-density diagnostic.
    praise = [d for d in diagnostics if d.rule_id == "S702"]
    if praise:
        findings.append(MaladyFinding(
            MaladyKind.RHETORIC_RISK, len(praise),
            tuple(EvidenceRef(d.rule_id, d.span) for d in praise),
        ))
    return findings
