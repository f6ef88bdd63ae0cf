"""Manuscript model and parsing.

Two input formats share one model. ``plain`` is unstructured UTF-8 text with
blank-line paragraph breaks. ``markdown`` additionally interprets ATX ``#``
headings as section boundaries and ``[^id]`` footnote markers paired with
``[^id]: body`` definition lines; nothing else of markdown is interpreted.

Conventions the rest of the package relies on:

* a word token is a maximal run of letters and digits, where hyphens and
  apostrophes join runs ("t-rail", "Boyd-Barden", "don't" are one token) and
  digit groups may carry internal separators ("0.35", "200,000", "1974-1994");
* standalone numbers are their own token kind and count as words;
* sentences split on ``. ! ?`` followed by whitespace and a capital or digit,
  never inside decimals and never after a known abbreviation;
* footnote bodies are kept out of the body text, so they never feed the
  sentence and paragraph statistics.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator

from .lexicon import Lexicon, default_lexicon

WORD = "word"
NUMBER = "number"
PUNCTUATION = "punctuation"
FOOTNOTE_MARKER = "footnote_marker"

PLAIN = "plain"
MARKDOWN = "markdown"
FORMATS = (PLAIN, MARKDOWN)

DEFAULT_WORDS_PER_PAGE = 400


class DocumentStructureError(ValueError):
    """Malformed footnote structure: a marker or a body without its mate."""

    def __init__(self, message: str, footnote_id: str | None = None, span: "Span | None" = None):
        super().__init__(message)
        self.footnote_id = footnote_id
        self.span = span


@dataclass(frozen=True)
class Span:
    """Half-open offset range into the source text, with the 1-based line and
    column of its start. Offsets index the source string."""

    start_byte: int
    end_byte: int
    line: int
    column: int

    def __post_init__(self):
        if not 0 <= self.start_byte < self.end_byte:
            raise ValueError(f"degenerate span [{self.start_byte}, {self.end_byte})")
        if self.line < 1 or self.column < 1:
            raise ValueError("line and column are 1-based")


@dataclass(frozen=True)
class Token:
    text: str
    kind: str
    span: Span


@dataclass(frozen=True)
class Sentence:
    span: Span
    tokens: tuple[Token, ...]

    @property
    def word_count(self) -> int:
        return sum(1 for t in self.tokens if t.kind in (WORD, NUMBER))


@dataclass(frozen=True)
class Paragraph:
    span: Span
    sentences: tuple[Sentence, ...]

    @property
    def word_count(self) -> int:
        return sum(s.word_count for s in self.sentences)

    @property
    def first_sentence(self) -> Sentence:
        return self.sentences[0]


@dataclass(frozen=True)
class Section:
    heading_text: str
    level: int
    paragraphs: tuple[Paragraph, ...]


@dataclass(frozen=True)
class Footnote:
    id: str
    marker_span: Span
    body_span: Span


@dataclass(frozen=True)
class Document:
    source: str
    format: str
    sections: tuple[Section, ...]
    footnotes: tuple[Footnote, ...]
    total_words: int
    words_per_page: int = DEFAULT_WORDS_PER_PAGE

    @property
    def page_estimate(self) -> float:
        return self.total_words / self.words_per_page

    def iter_paragraphs(self) -> Iterator[Paragraph]:
        for section in self.sections:
            yield from section.paragraphs

    def iter_sentences(self) -> Iterator[Sentence]:
        for paragraph in self.iter_paragraphs():
            yield from paragraph.sentences

    def iter_tokens(self) -> Iterator[Token]:
        for sentence in self.iter_sentences():
            yield from sentence.tokens


# Digit groups may join on . or , ("0.35", "200,000"); alphanumeric runs may
# join on hyphens or apostrophes.
_UNIT = r"(?:\d+(?:[.,]\d+)+|[^\W_]+)"
_TOKEN_RE = re.compile(
    r"(?P<marker>\[\^[^\]\s]+\])"
    rf"|(?P<wordish>{_UNIT}(?:[-‐‑'’]{_UNIT})*)"
    r"|(?P<punct>\S)"
)
_HAS_LETTER_RE = re.compile(r"[^\W\d_]")
_TERMINATOR_RE = re.compile(r"[.!?]+")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(\S.*)$")
_FOOTNOTE_DEF_RE = re.compile(r"^\[\^([^\]\s]+)\]:\s?(.*)$")


class _LineIndex:
    """Maps an offset to its 1-based (line, column)."""

    def __init__(self, text: str):
        starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                starts.append(i + 1)
        self._starts = starts

    def locate(self, pos: int) -> tuple[int, int]:
        i = bisect_right(self._starts, pos) - 1
        return i + 1, pos - self._starts[i] + 1


def _scan_tokens(source: str, start: int, end: int, index: _LineIndex) -> tuple[Token, ...]:
    tokens = []
    for m in _TOKEN_RE.finditer(source, start, end):
        text = m.group()
        if m.lastgroup == "marker":
            kind = FOOTNOTE_MARKER
        elif m.lastgroup == "wordish":
            kind = WORD if _HAS_LETTER_RE.search(text) else NUMBER
        else:
            kind = PUNCTUATION
        line, column = index.locate(m.start())
        tokens.append(Token(text, kind, Span(m.start(), m.end(), line, column)))
    return tuple(tokens)


def tokenize(text: str) -> list[Token]:
    """Tokenize text into word, number, punctuation, and footnote-marker
    tokens with exact spans."""
    return list(_scan_tokens(text, 0, len(text), _LineIndex(text)))


def _ends_with_abbreviation(source: str, end: int, abbreviations) -> bool:
    for abbr in abbreviations:
        pos = end - len(abbr)
        if pos < 0:
            continue
        # Lowercase only the window: lowercasing can change a string's length
        # ("İ" becomes two code points), so offsets into a lowercased copy of
        # the whole source would drift.
        if source[pos:end].lower() == abbr and (pos == 0 or not source[pos - 1].isalnum()):
            return True
    return False


def _sentence_bounds(source: str, start: int, end: int, abbreviations) -> list[tuple[int, int]]:
    bounds = []
    pos = start
    while pos < end and source[pos].isspace():
        pos += 1
    for m in _TERMINATOR_RE.finditer(source, start, end):
        if m.start() < pos:
            continue
        j = m.end()
        while j < end and source[j].isspace():
            j += 1
        if j == m.end() or j >= end:
            continue  # no whitespace gap, or only trailing space: not a split
        if not (source[j].isupper() or source[j].isdigit()):
            continue
        if m.group() == "." and _ends_with_abbreviation(source, m.end(), abbreviations):
            continue
        bounds.append((pos, m.end()))
        pos = j
    tail = end
    while tail > pos and source[tail - 1].isspace():
        tail -= 1
    if tail > pos:
        bounds.append((pos, tail))
    return bounds


def _build_sentences(source: str, start: int, end: int, index: _LineIndex,
                     lexicon: Lexicon) -> tuple[Sentence, ...]:
    sentences = []
    for s, e in _sentence_bounds(source, start, end, lexicon.abbreviations):
        tokens = _scan_tokens(source, s, e, index)
        if not tokens:
            continue
        line, column = index.locate(s)
        sentences.append(Sentence(Span(s, e, line, column), tokens))
    return tuple(sentences)


def segment_sentences(paragraph_text: str, lexicon: Lexicon | None = None) -> list[Sentence]:
    """Split one paragraph's text into sentences; spans index into the given
    text."""
    lexicon = lexicon or default_lexicon()
    index = _LineIndex(paragraph_text)
    return list(_build_sentences(paragraph_text, 0, len(paragraph_text), index, lexicon))


def parse_document(source: str, format: str = MARKDOWN, *,
                   lexicon: Lexicon | None = None,
                   words_per_page: int = DEFAULT_WORDS_PER_PAGE) -> Document:
    """Parse a manuscript into sections, paragraphs, sentences, and footnotes.

    Raises DocumentStructureError for a footnote marker without a definition,
    a definition without a marker, a duplicated definition, or an empty body.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    if words_per_page < 1:
        raise ValueError("words_per_page must be positive")
    lexicon = lexicon or default_lexicon()
    index = _LineIndex(source)

    sections: list[dict] = []
    block: list[tuple[int, int]] = []
    defs: dict[str, Span] = {}
    def_order: list[str] = []

    def open_section(level: int, heading: str) -> None:
        sections.append({"level": level, "heading": heading, "paragraphs": []})

    def flush_block() -> None:
        nonlocal block
        if not block:
            return
        lines, block = block, []
        p_start, p_end = lines[0][0], lines[-1][1]
        while p_start < p_end and source[p_start].isspace():
            p_start += 1
        while p_end > p_start and source[p_end - 1].isspace():
            p_end -= 1
        if p_start >= p_end:
            return
        sentences = _build_sentences(source, p_start, p_end, index, lexicon)
        if not sentences:
            return
        if not sections:
            open_section(0, "")
        line, column = index.locate(p_start)
        sections[-1]["paragraphs"].append(
            Paragraph(Span(p_start, p_end, line, column), sentences)
        )

    offset = 0
    for raw_line in source.split("\n"):
        line_start, line_end = offset, offset + len(raw_line)
        offset = line_end + 1
        if not raw_line.strip():
            flush_block()
            continue
        if format == MARKDOWN:
            hm = _HEADING_RE.match(raw_line)
            if hm:
                flush_block()
                heading = re.sub(r"\s+#+\s*$", "", hm.group(2)).strip()
                open_section(len(hm.group(1)), heading)
                continue
            fm = _FOOTNOTE_DEF_RE.match(raw_line)
            if fm:
                flush_block()
                fid = fm.group(1)
                body = fm.group(2).rstrip()
                body_start = line_start + fm.start(2)
                if not body:
                    raise DocumentStructureError(
                        f"footnote definition [^{fid}] has an empty body", fid)
                if fid in defs:
                    raise DocumentStructureError(
                        f"duplicate footnote definition [^{fid}]", fid, defs[fid])
                bline, bcol = index.locate(body_start)
                defs[fid] = Span(body_start, body_start + len(body), bline, bcol)
                def_order.append(fid)
                continue
        block.append((line_start, line_end))
    flush_block()
    if not sections:
        open_section(0, "")

    built_sections = tuple(
        Section(s["heading"], s["level"], tuple(s["paragraphs"])) for s in sections
    )

    footnotes: list[Footnote] = []
    if format == MARKDOWN:
        seen: set[str] = set()
        for section in built_sections:
            for paragraph in section.paragraphs:
                for sentence in paragraph.sentences:
                    for token in sentence.tokens:
                        if token.kind != FOOTNOTE_MARKER:
                            continue
                        fid = token.text[2:-1]
                        if fid not in defs:
                            raise DocumentStructureError(
                                f"footnote marker [^{fid}] has no definition",
                                fid, token.span)
                        if fid not in seen:
                            seen.add(fid)
                            footnotes.append(Footnote(fid, token.span, defs[fid]))
        for fid in def_order:
            if fid not in seen:
                raise DocumentStructureError(
                    f"footnote definition [^{fid}] has no marker in the text",
                    fid, defs[fid])

    total = sum(p.word_count for s in built_sections for p in s.paragraphs)
    return Document(
        source=source,
        format=format,
        sections=built_sections,
        footnotes=tuple(footnotes),
        total_words=total,
        words_per_page=words_per_page,
    )

