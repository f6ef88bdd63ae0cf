"""Manuscript model and parsing.

Two input formats share one model. ``plain`` is unstructured UTF-8 text with
blank-line paragraph breaks. ``markdown`` additionally interprets ATX ``#``
headings as section boundaries and ``[^id]`` footnote markers, in the text
or in a heading, paired with ``[^id]: body`` definition lines; nothing else
of markdown is interpreted.

Conventions the rest of the package relies on:

* a word token is a maximal run of letters and digits, where hyphens and
  apostrophes join runs ("t-rail", "Boyd-Barden", "don't" are one token) and
  digit groups may carry internal separators ("0.35", "200,000", "1974-1994");
* standalone numbers are their own token kind and count as words;
* sentences split on ``. ! ?`` followed by whitespace and a capital or digit,
  never inside decimals and never after a known abbreviation;
* footnote bodies are kept out of the body text, so they never feed the
  sentence and paragraph statistics.

A token is an offset range into the source, not an object: one parse fills
a single TokenStore of flat arrays, with each body token's start and end
offsets and kind code, and three arrays aligned by word: each WORD token's
token index, lowercase form and content stem (None for a stopword). The scan
is batched: no Python code runs per token. One findall cuts the text into
chunks (a token with the whitespace before it), one table per parse
(WordFold) maps each distinct chunk to its kind, length, lowercase form and
stem, and C-level iterators turn those entries into the arrays. So each
distinct word form is lowercased and stemmed once. A long paragraph is
matched in pieces of bounded size, cut where a token ends, so its chunk
strings are never all held at once.

The parse scans each paragraph once and cuts its sentences on the kind codes
the scan wrote: ". ! ?" have a code of their own (STOP_CODE), so the breaks
are found with bytearray.find, and each sentence's word range by bisecting
the store's word token indices at its end token. A Sentence holds its word
count and index ranges into that store, and a Paragraph its sentences, so
the store is the one record of where text lies.
``.span``, ``Sentence.tokens``, ``.words`` and ``.stems`` are views built on
each access, and only the Token views slice text out of the source; the
parse builds a Span (with its line and column) only for footnotes, and the
detectors only for what they report.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, compress, count
from operator import itemgetter, sub
from typing import Iterator

from .lexicon import Lexicon, default_lexicon, stem

WORD = "word"
NUMBER = "number"
PUNCTUATION = "punctuation"
FOOTNOTE_MARKER = "footnote_marker"

# Kind codes of the token store: KINDS[code] is the kind's name. WORD and
# NUMBER come first, so a code below PUNCTUATION_CODE marks a counted word.
# A comma and a terminator (". ! ?") have codes of their own, so that comma
# splits and sentence breaks are found with bytearray.find, but their kind is
# PUNCTUATION like any other mark.
KINDS = (WORD, NUMBER, PUNCTUATION, FOOTNOTE_MARKER, PUNCTUATION, PUNCTUATION)
WORD_CODE, NUMBER_CODE, PUNCTUATION_CODE, MARKER_CODE, COMMA_CODE, STOP_CODE = range(len(KINDS))

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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Token:
    text: str
    kind: str
    span: Span


# Digit groups may join on . or , ("0.35", "200,000"); alphanumeric runs may
# join on hyphens or apostrophes.
_UNIT = r"(?:\d+(?:[.,]\d+)+|[^\W_]+)"
# Footnote ids, in markers and definitions alike: no whitespace, "[" or "]".
# Without "[", a run of "[^" cannot restart the scan at every bracket.
_ID = r"[^\[\]\s]+"
_MARKER = rf"\[\^{_ID}\]"
# A chunk is a token with the whitespace before it: a footnote marker, a
# word-like token, or any other non-space character as a mark. Tokens never
# hold whitespace, and at a non-space character one of the alternatives
# always matches, so the chunks of a range that ends on a token are its
# tokens.
_CHUNK_RE = re.compile(rf"\s*(?:{_MARKER}|{_UNIT}(?:[-‐‑'’]{_UNIT})*|\S)")
# The end of a token: a non-space character and the whitespace after it.
_TOKEN_END_RE = re.compile(r"\S\s")
_MARKER_RE = re.compile(_MARKER)
_HAS_LETTER_RE = re.compile(r"[^\W\d_]")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(\S.*)$")
_FOOTNOTE_DEF_RE = re.compile(rf"^\[\^({_ID})\]:\s?(.*)$")
# "\s#+", not "\s+#+", which backtracks over every whitespace run in a heading.
_CLOSING_HASHES_RE = re.compile(r"\s#+\s*$")

# TokenStore.scan matches at most about this many characters at a time, so
# that the chunk strings of one long paragraph are never all held at once.
_PIECE = 32_768
# The fields of a WordFold entry.
_CODE, _LENGTH, _FORM, _STEM = map(itemgetter, range(4))
# bytes.translate table: 1 for the WORD kind code, 0 for every other code.
_IS_WORD = bytes(code == WORD_CODE for code in range(256))
# The kind codes of the single-character marks that have codes of their own.
_MARK_CODES = {",": COMMA_CODE, ".": STOP_CODE, "!": STOP_CODE, "?": STOP_CODE}


class WordFold(dict):
    """The fold table of one parse: a chunk of source text (a token, maybe
    with whitespace before it) maps to (kind code, token length, lowercase
    form, content stem). The form and the stem are None but for a WORD
    token, and the stem is None for a stopword too. A chunk is folded at its
    first lookup: with whitespace in front it takes its token's entry, and a
    word's lowercase form is kept as a key of its own, so all spellings of a
    form share one lowercase string, one stopword test and one stem call."""

    __slots__ = ("stopwords",)

    def __init__(self, stopwords: frozenset[str]):
        self.stopwords = stopwords

    def __missing__(self, chunk: str) -> tuple:
        token = chunk.lstrip()
        if len(token) < len(chunk):
            entry = self[token]
        elif _MARKER_RE.fullmatch(chunk):
            entry = (MARKER_CODE, len(chunk), None, None)
        elif len(chunk) == 1 and not chunk.isalnum():
            # A word-like token starts with a letter or digit ([^\W_] is
            # isalnum), so a single other character is a mark.
            entry = (_MARK_CODES.get(chunk, PUNCTUATION_CODE), 1, None, None)
        elif not _HAS_LETTER_RE.search(chunk):
            entry = (NUMBER_CODE, len(chunk), None, None)
        else:
            lower = chunk.lower()
            form = self.get(lower)
            if form is None:
                # stem is called through this module's name, so that a
                # wrapper put in its place sees every call.
                form = self[lower] = (WORD_CODE, len(lower), lower,
                                      None if lower in self.stopwords else stem(lower))
            # Lowercasing can change the length ("İ" becomes two code
            # points), and the entry holds the chunk's own.
            entry = form if form[1] == len(chunk) else (WORD_CODE, len(chunk), *form[2:])
        self[chunk] = entry
        return entry


class TokenStore:
    """Every token of one parse, in source order, in flat arrays.

    Token i is ``source[start[i]:end[i]]`` of kind ``KINDS[kind[i]]``; no
    token's text is kept as a string of its own. Word i (the i-th WORD
    token) is token ``word_token[i]``, and ``word_lower[i]`` is its lowercase
    form, one string shared by every occurrence of the form. ``word_stem[i]``
    is its content stem, or None for a stopword. The arrays are
    per document, not per sentence: thousands of small per-sentence tuples,
    once freed, stay on CPython's tuple free lists until a generation-2
    collection, which the parse does not trigger. scan appends a whole
    range at a time, and a sentence is an index range into each array.
    """

    __slots__ = ("source", "line_starts", "start", "end", "kind", "word_lower", "word_stem",
                 "word_token")

    def __init__(self, source: str):
        self.source = source
        # The offsets at which the source's lines start.
        self.line_starts = [0]
        self.line_starts += [m.end() for m in re.finditer("\n", source)]
        self.start = array("l")
        self.end = array("l")
        self.kind = bytearray()
        self.word_lower: list[str] = []
        self.word_stem: list[str | None] = []
        self.word_token = array("l")

    def scan(self, start: int, end: int, fold: WordFold) -> None:
        """Append the tokens of source[start:end], and for each WORD token
        its token index, its lowercase form and its content stem, as fold
        gives them.

        No Python code runs per token, but for chunks the fold has not seen.
        One findall cuts a piece of the range into chunks; fold maps each
        chunk to its entry; and map, accumulate, compress and bytes.translate
        turn the entries into the arrays. The range is matched in pieces of
        about _PIECE characters, each cut at the end of a token: a token
        never holds whitespace, so the pieces give the tokens of the whole.
        """
        source, starts, ends, kinds = self.source, self.start, self.end, self.kind
        # Stop at the last token: a chunk regex that starts with \s* would
        # try every position of a trailing whitespace run again.
        while end > start and source[end - 1].isspace():
            end -= 1
        while start < end:
            cut = end
            if end - start > _PIECE:
                m = _TOKEN_END_RE.search(source, start + _PIECE, end)
                if m:
                    cut = m.start() + 1
            first = len(kinds)
            chunks = _CHUNK_RE.findall(source, start, cut)
            entries = list(map(fold.__getitem__, chunks))
            # A chunk ends where its token does. (array.fromlist takes a
            # list faster than array.extend takes an iterator.)
            piece_ends = list(accumulate(map(len, chunks), initial=start))
            del piece_ends[0]
            ends.fromlist(piece_ends)
            starts.fromlist(list(map(sub, piece_ends, map(_LENGTH, entries))))
            codes = bytes(map(_CODE, entries))
            kinds += codes
            is_word = codes.translate(_IS_WORD)
            self.word_token.fromlist(list(compress(count(first), is_word)))
            words = list(compress(entries, is_word))
            self.word_lower += map(_FORM, words)
            self.word_stem += map(_STEM, words)
            start = cut

    def span(self, start: int, end: int) -> Span:
        """The Span of [start, end), with the 1-based line and column of its
        start."""
        i = bisect_right(self.line_starts, start) - 1
        return Span(start, end, i + 1, start - self.line_starts[i] + 1)

    def token_span(self, i: int, j: int | None = None) -> Span:
        """The Span from token i through token j - 1 (token i alone by
        default)."""
        return self.span(self.start[i], self.end[i if j is None else j - 1])

    def word_span(self, i: int, j: int | None = None) -> Span:
        """The Span from word i through word j - 1 (word i alone by
        default)."""
        last = i if j is None else j - 1
        return self.token_span(self.word_token[i], self.word_token[last] + 1)

    def token(self, i: int) -> Token:
        start, end = self.start[i], self.end[i]
        return Token(self.source[start:end], KINDS[self.kind[i]], self.span(start, end))


@dataclass(frozen=True, slots=True)
class Sentence:
    """A sentence: its word count (WORD plus NUMBER tokens) and the index
    ranges [first, end) of its tokens and words, and so of its stem slots,
    in the parse's TokenStore. Two sentences are equal when these are.

    span, tokens, words and stems are views built on each access; code that
    walks many sentences reads the store's arrays instead.
    """

    word_count: int
    store: TokenStore = field(repr=False, compare=False)
    first_token: int
    end_token: int
    first_word: int
    end_word: int

    @property
    def span(self) -> Span:
        """From the first token's start to the last token's end."""
        return self.store.token_span(self.first_token, self.end_token)

    @property
    def tokens(self) -> tuple[Token, ...]:
        return tuple([self.store.token(i) for i in range(self.first_token, self.end_token)])

    @property
    def words(self) -> tuple[Token, ...]:
        """The WORD tokens."""
        store = self.store
        return tuple([store.token(i) for i in store.word_token[self.first_word:self.end_word]])

    @property
    def stems(self) -> tuple[str, ...]:
        """The content stems, in order and with repeats (see TokenStore)."""
        return tuple([s for s in self.store.word_stem[self.first_word:self.end_word] if s])


@dataclass(frozen=True, slots=True)
class Paragraph:
    """A paragraph: its sentences, one at least."""

    sentences: tuple[Sentence, ...]

    @property
    def span(self) -> Span:
        """From the first sentence's first token to the last one's last."""
        first, last = self.sentences[0], self.sentences[-1]
        return first.store.token_span(first.first_token, last.end_token)

    @property
    def word_count(self) -> int:
        return sum(s.word_count for s in self.sentences)


@dataclass(frozen=True, slots=True)
class Section:
    heading_text: str
    level: int
    paragraphs: tuple[Paragraph, ...]


@dataclass(frozen=True, slots=True)
class Footnote:
    id: str
    marker_span: Span
    body_span: Span


@dataclass(frozen=True, slots=True)
class Document:
    source: str
    format: str
    sections: tuple[Section, ...]
    footnotes: tuple[Footnote, ...]
    total_words: int
    # The lexicon the document was parsed with; every analysis reads its word
    # classes from here, so that they agree with the stems and sentence splits.
    lexicon: Lexicon = field(repr=False)
    # The flat token arrays the sentences index into (see TokenStore).
    store: TokenStore = field(repr=False, compare=False)
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


def scan_text(text: str, lexicon: Lexicon) -> TokenStore:
    """A TokenStore of all of text, its words folded with the lexicon's
    stopwords as a parse folds them."""
    store = TokenStore(text)
    store.scan(0, len(text), WordFold(lexicon.stopwords))
    return store


def tokenize(text: str) -> list[Token]:
    """Tokenize text into word, number, punctuation, and footnote-marker
    tokens with exact spans."""
    store = scan_text(text, default_lexicon())
    return [store.token(i) for i in range(len(store.kind))]


def _ends_with_abbreviation(source: str, end: int, abbreviations: dict[int, set[str]]) -> bool:
    # The abbreviations come grouped by length: a window of n characters
    # matches only an abbreviation of length n.
    for n, bucket in abbreviations.items():
        pos = end - n
        if pos < 0:
            continue
        # Lowercase only the window: lowercasing can change a string's length
        # ("İ" becomes two code points), so offsets into a lowercased copy of
        # the whole source would drift.
        if source[pos:end].lower() in bucket and (pos == 0 or not source[pos - 1].isalnum()):
            return True
    return False


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
    store = TokenStore(source)
    starts, ends, kind, word_token = store.start, store.end, store.kind, store.word_token
    fold = WordFold(lexicon.stopwords)
    abbreviations: dict[int, set[str]] = {}  # by length
    for abbr in lexicon.abbreviations:
        abbreviations.setdefault(len(abbr), set()).add(abbr)

    # (heading, level, paragraphs); the untitled section opens up front and
    # is dropped at the end if a heading followed it and it stayed empty.
    sections: list[tuple[str, int, list[Paragraph]]] = [("", 0, [])]
    block_start = block_end = -1  # offsets of the pending block, if any
    defs: dict[str, Span] = {}
    # Offset ranges of the footnote markers, in source order.
    markers: list[tuple[int, int]] = []

    def flush_block() -> None:
        nonlocal block_start
        if block_start < 0:
            return
        # Block lines are never blank, so there is at least one token.
        first_token, first_word = len(kind), len(word_token)
        store.scan(block_start, block_end, fold)
        block_start = -1
        last_token, last_word = len(kind), len(word_token)
        # A sentence ends after a terminator token k followed by whitespace
        # and a capital or a digit, unless k is a lone "." (no terminator right
        # before it in the block) that ends an abbreviation. k == first_token
        # is tested first: at k == 0, kind[k - 1] wraps to the last token.
        cuts = []
        k = first_token - 1
        while (k := kind.find(STOP_CODE, k + 1, last_token - 1)) >= 0:
            after = starts[k + 1]
            if ends[k] < after and (source[after].isupper() or source[after].isdigit()):
                lone = k == first_token or kind[k - 1] != STOP_CODE or ends[k - 1] < starts[k]
                if not (lone and source[starts[k]] == "."
                        and _ends_with_abbreviation(source, ends[k], abbreviations)):
                    cuts.append(k + 1)
        cuts.append(last_token)
        sentences = []
        for end_token in cuts:
            end_word = bisect_left(word_token, end_token, first_word, last_word)
            word_count = end_word - first_word + kind.count(NUMBER_CODE, first_token, end_token)
            sentences.append(Sentence(word_count, store, first_token, end_token,
                                      first_word, end_word))
            first_token, first_word = end_token, end_word
        sections[-1][2].append(Paragraph(tuple(sentences)))

    offset = 0
    for raw_line in source.split("\n"):
        line_start, line_end = offset, offset + len(raw_line)
        offset = line_end + 1
        if not raw_line.strip():
            flush_block()
            continue
        # Only a line that holds "[^" or starts with "#" can be a footnote or heading.
        if format == MARKDOWN and (raw_line[0] == "#" or "[^" in raw_line):
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
                defs[fid] = store.span(body_start, body_start + len(body))
                continue
            markers += [m.span() for m in _MARKER_RE.finditer(source, line_start, line_end)]
            hm = _HEADING_RE.match(raw_line)
            if hm:
                flush_block()
                heading = _CLOSING_HASHES_RE.sub("", hm.group(2)).strip()
                sections.append((heading, len(hm.group(1)), []))
                continue
        if block_start < 0:
            block_start = line_start
        block_end = line_end
    flush_block()
    if len(sections) > 1 and not sections[0][2]:
        del sections[0]
    built_sections = tuple(
        Section(heading, level, tuple(paragraphs)) for heading, level, paragraphs in sections)

    footnotes: dict[str, Footnote] = {}  # by id, in first-marker order
    for start, end in markers:
        fid = source[start + 2:end - 1]
        if fid not in defs:
            raise DocumentStructureError(
                f"footnote marker [^{fid}] has no definition", fid, store.span(start, end))
        if fid not in footnotes:
            footnotes[fid] = Footnote(fid, store.span(start, end), defs[fid])
    for fid in defs:
        if fid not in footnotes:
            raise DocumentStructureError(
                f"footnote definition [^{fid}] has no marker in the text", fid, defs[fid])

    return Document(
        source=source,
        format=format,
        sections=built_sections,
        footnotes=tuple(footnotes.values()),
        # The store holds the tokens of the sentences and of nothing else.
        total_words=len(word_token) + kind.count(NUMBER_CODE),
        lexicon=lexicon,
        store=store,
        words_per_page=words_per_page,
    )

