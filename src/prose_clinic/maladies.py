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
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

from .config import AnalysisConfig
from .document import WORD, Document, Section, Span, content_stems, tokenize

# Pseudo rule id for evidence that points at a section, not a diagnostic.
RELEVANCE_EVIDENCE = "RELEVANCE"

_GROWTH_RULES = ("S501", "S601", "S701")
_CHUNK_RULES = ("S301", "S302")


class MaladyKind(enum.Enum):
    FAULTY_RAP = "FaultyRAP"
    POOR_CHUNKING = "PoorChunking"
    MISSING_RAP_RELEVANCE = "MissingRapRelevance"
    RHETORIC_RISK = "RhetoricRisk"


@dataclass(frozen=True)
class EvidenceRef:
    rule_id: str
    span: Span


@dataclass(frozen=True)
class MaladyFinding:
    kind: MaladyKind
    strength: int
    evidence: tuple[EvidenceRef, ...]
    narrative: str


@dataclass(frozen=True)
class KeywordProfile:
    """Key terms of the opening, plus how often each section's first
    paragraph repeats them (parallel to the document's sections)."""

    keywords: tuple[str, ...]
    section_overlaps: tuple[int, ...]


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


def section_relevance(section: Section, profile: KeywordProfile) -> int:
    """How many profile keywords the section's first paragraph repeats."""
    if not profile.keywords:
        return 0
    stems: set[str] = set()
    if section.paragraphs:
        for sentence in section.paragraphs[0].sentences:
            stems.update(sentence.stems)
    return sum(1 for keyword in profile.keywords if keyword in stems)


def extract_keywords(doc: Document, cfg: AnalysisConfig) -> KeywordProfile:
    """Rank content stems of the opening (first section's heading and first
    two paragraphs) by frequency, ties broken alphabetically."""
    counts: Counter[str] = Counter()
    if doc.sections:
        opening = doc.sections[0]
        heading = [t for t in tokenize(opening.heading_text) if t.kind == WORD]
        counts.update(content_stems(heading, doc.lexicon))
        for paragraph in opening.paragraphs[:2]:
            for sentence in paragraph.sentences:
                counts.update(sentence.stems)
    ranked = sorted(counts, key=lambda s: (-counts[s], s))
    keywords = tuple(ranked[: cfg.keyword_count])
    bare = KeywordProfile(keywords, ())
    overlaps = tuple(section_relevance(sec, bare) for sec in doc.sections)
    return KeywordProfile(keywords, overlaps)


def _locate_paragraph(starts, paragraphs, span: Span):
    i = bisect_right(starts, span.start_byte) - 1
    if i >= 0 and span.start_byte < paragraphs[i].span.end_byte:
        return i
    return None


def infer_maladies(doc: Document, diagnostics, cfg: AnalysisConfig,
                   profile: KeywordProfile | None = None) -> list[MaladyFinding]:
    """Derive malady findings from a diagnostic list. No symptoms, no
    maladies."""
    if not diagnostics:
        return []
    if profile is None:
        profile = extract_keywords(doc, cfg)
    findings: list[MaladyFinding] = []

    # FaultyRAP: growth symptoms of several distinct kinds. Storyline breaks
    # count only inside the first section, where the message is set up.
    first_range = None
    if doc.sections and doc.sections[0].paragraphs:
        opening = doc.sections[0].paragraphs
        first_range = (opening[0].span.start_byte, opening[-1].span.end_byte)
    growth = []
    for diag in diagnostics:
        if diag.rule_id in _GROWTH_RULES:
            growth.append(diag)
        elif diag.rule_id == "S401" and first_range is not None:
            lo, hi = first_range
            if lo <= diag.span.start_byte < hi:
                growth.append(diag)
    kinds = {d.rule_id for d in growth}
    if len(kinds) >= cfg.malady_min_rule_kinds:
        findings.append(MaladyFinding(
            MaladyKind.FAULTY_RAP, len(kinds),
            tuple(EvidenceRef(d.rule_id, d.span) for d in growth),
            _NARRATIVES[MaladyKind.FAULTY_RAP],
        ))

    # PoorChunking: chunk symptoms in three or more distinct paragraphs.
    paragraphs = list(doc.iter_paragraphs())
    starts = [p.span.start_byte for p in paragraphs]
    chunk = [d for d in diagnostics if d.rule_id in _CHUNK_RULES]
    touched = set()
    for diag in chunk:
        idx = _locate_paragraph(starts, paragraphs, diag.span)
        if idx is not None:
            touched.add(idx)
    if len(touched) >= 3:
        findings.append(MaladyFinding(
            MaladyKind.POOR_CHUNKING, len(touched),
            tuple(EvidenceRef(d.rule_id, d.span) for d in chunk),
            _NARRATIVES[MaladyKind.POOR_CHUNKING],
        ))

    # MissingRapRelevance: sections whose first paragraph repeats too few of
    # the opening's key terms.
    if profile.keywords:
        candidates = [
            section
            for section, overlap in zip(doc.sections, profile.section_overlaps)
            if section.paragraphs and overlap < cfg.min_keyword_overlap
        ]
        if candidates:
            findings.append(MaladyFinding(
                MaladyKind.MISSING_RAP_RELEVANCE, len(candidates),
                tuple(
                    EvidenceRef(RELEVANCE_EVIDENCE, sec.paragraphs[0].span)
                    for sec in candidates
                ),
                _NARRATIVES[MaladyKind.MISSING_RAP_RELEVANCE],
            ))

    # RhetoricRisk: any superlative-density diagnostic.
    praise = [d for d in diagnostics if d.rule_id == "S702"]
    if praise:
        findings.append(MaladyFinding(
            MaladyKind.RHETORIC_RISK, len(praise),
            tuple(EvidenceRef(d.rule_id, d.span) for d in praise),
            _NARRATIVES[MaladyKind.RHETORIC_RISK],
        ))
    return findings
