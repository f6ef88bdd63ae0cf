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

One parse fills one TokenStore: flat arrays of the body tokens, all in one
index space (token i is an offset range into the source, a kind code, a
content stem and a class byte, not an object), and of the sentence and
paragraph bounds in token indices. TokenStore.scan runs no Python code per
token: one findall cuts the text into chunks, and one fold table (WordFold),
which the parses share, maps each distinct chunk to its kind, length, stem
and class byte; an entry depends only on the chunk, the lexicon and the pure
stem, so a warm table gives what a fresh one gives. A word's lowercase form
is not stored: it is the token's text lowercased (TokenStore.form), read at
the few tokens that need it. In markdown one regex (_STRUCTURE_RE) finds the
headings and definitions, matched only at offset 0 and at the line starts
that open with "#" or "["; plain text has none. The parse scans each run of
body text between two of them that holds a token once, cuts it into
paragraphs at the blank lines and into sentences on the terminator kind code
(STOP_CODE), and builds no object per sentence or paragraph:
Section.paragraphs, Paragraph.sentences, the spans and Sentence.tokens,
.words and .stems are views built on each access. The parse builds a Span
only for footnotes, and the detectors, which read the store's arrays by
index, only for what they report.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, pairwise
from operator import itemgetter, sub
from typing import Iterator, NamedTuple

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


class Span(NamedTuple):
    """Half-open offset range into the source text, with the 1-based line and
    column of its start. Offsets index the source string. A Span is not
    checked when built: TokenStore.span builds valid ones, and parse_machine
    rejects a degenerate one."""

    start_byte: int
    end_byte: int
    line: int
    column: int


@dataclass(frozen=True, slots=True)
class Token:
    text: str
    kind: str
    span: Span


# The chunk pattern's quantifiers are possessive (++, *+), which is faster and
# gives the same chunks: each quantified part is followed by a character it
# cannot match, and all after a unit is optional, so no match backtracks into one.
# Digit groups may join on . or , ("0.35", "200,000"); alphanumeric runs may
# join on hyphens or apostrophes.
_UNIT = r"(?:\d++(?:[.,]\d++)++|[^\W_]++)"
# Footnote ids, in markers and definitions alike: no whitespace, "[" or "]".
# Without "[", a run of "[^" cannot restart the scan at every bracket.
_ID = r"[^\[\]\s]++"
_MARKER = rf"\[\^{_ID}\]"
# A chunk is a token with the whitespace before it: a footnote marker, a
# word-like token, or any other non-space character as a mark. Tokens never
# hold whitespace, and at a non-space character one of the alternatives
# always matches, so the chunks of a range that ends on a token are its
# tokens.
_CHUNK_RE = re.compile(rf"\s*+(?:{_MARKER}|{_UNIT}(?:[-‐‑'’]{_UNIT})*+|\S)")
# The end of a token: a non-space character and the whitespace after it.
_TOKEN_END_RE = re.compile(r"\S\s")
_MARKER_RE = re.compile(_MARKER)
_HAS_LETTER_RE = re.compile(r"[^\W\d_]")
_NON_SPACE_RE = re.compile(r"\S")
# A structure line of markdown: an ATX heading or a footnote definition.
# Inside a line, whitespace is [^\S\n]; with \s, "#\nText" would be a heading.
_STRUCTURE_RE = re.compile(rf"^(?:(#{{1,6}})[^\S\n]+(\S.*)|\[\^({_ID})\]:[^\S\n]?(.*))", re.M)
# The line ends after which a structure line may start: before a "#" or "[".
_STRUCTURE_START_RE = re.compile(r"\n(?=[#\[])")
# A blank line: a line of whitespace only, so between two line ends.
_BLANK_LINE_RE = re.compile(r"\n[^\S\n]*\n")
# "\s#+", not "\s+#+", which backtracks over every whitespace run in a heading.
_CLOSING_HASHES_RE = re.compile(r"\s#+\s*$")

# TokenStore.scan matches at most about this many characters at a time, so
# that the chunk strings of one long run of body text are never all held at
# once: they take ~30 bytes a character while they live, ~6 stay.
_PIECE = 16_384
# A source shorter than this has its offsets in 4-byte arrays ("i"), a longer
# one in 8-byte arrays ("q"): "l" is 8 bytes on Linux but 4 on Windows.
_OFFSET_LIMIT = 1 << 31
# The fields of a WordFold entry.
_CODE, _LENGTH, _STEM, _CLASS = map(itemgetter, range(4))
# The kind codes of the single-character marks that have codes of their own.
_MARK_CODES = {",": COMMA_CODE, ".": STOP_CODE, "!": STOP_CODE, "?": STOP_CODE}


class WordFold(dict):
    """The fold table the scans share: a chunk of source text (a token, maybe
    with whitespace before it) maps to (kind code, token length, content
    stem, class byte), for the table's lexicon. The stem is None and the
    class byte is 0 but for a WORD token, and the stem is None for a
    stopword too. A chunk is folded at its first lookup: with whitespace in
    front it takes its token's entry, and a word's lowercase form is kept as
    a key of its own, so all spellings of a form share one stopword test,
    one stem call and one class byte. chars counts the characters of the
    keys."""

    __slots__ = ("lexicon", "chars")

    def __init__(self, lexicon: Lexicon):
        self.lexicon = lexicon
        self.chars = 0

    def __missing__(self, chunk: str) -> tuple:
        token = chunk.lstrip()
        if len(token) < len(chunk):
            entry = self[token]
        elif _MARKER_RE.fullmatch(chunk):
            entry = (MARKER_CODE, len(chunk), None, 0)
        elif len(chunk) == 1 and not chunk.isalnum():
            # A word-like token starts with a letter or digit ([^\W_] is
            # isalnum), so a single other character is a mark.
            entry = (_MARK_CODES.get(chunk, PUNCTUATION_CODE), 1, None, 0)
        elif not _HAS_LETTER_RE.search(chunk):
            entry = (NUMBER_CODE, len(chunk), None, 0)
        else:
            lower = chunk.lower()
            form = self.get(lower)
            if form is None:
                lexicon = self.lexicon
                # stem is called through this module's name, so that a
                # wrapper put in its place sees every call.
                form = self[lower] = (WORD_CODE, len(lower),
                                      None if lower in lexicon.stopwords else stem(lower),
                                      lexicon.word_class(lower))
                self.chars += len(lower)
            # Lowercasing can change the length ("İ" becomes two code
            # points), and the entry holds the chunk's own.
            entry = form if form[1] == len(chunk) else (WORD_CODE, len(chunk), *form[2:])
        self[chunk] = entry
        self.chars += len(chunk)
        return entry


# The scans share one fold table, for the lexicon of the last scan. A scan
# that leaves it over _FOLD_LIMIT entries or _FOLD_CHARS characters of keys
# replaces it, never clears it (a scan in another thread keeps its own). At
# ~130 B an entry (0.62 MB for the 4,851 that a scan of the seed-1 benchmark
# monograph leaves, by tracemalloc, with keys of ~10 characters) that caps it
# near 8.5 MB. The character bound keeps long keys, as when a run of
# whitespace stands before each token and each chunk is a key of its own,
# from multiplying that size.
_FOLD_LIMIT = 1 << 16
_FOLD_CHARS = 1 << 19
_fold = WordFold(default_lexicon())


def _shared_fold(lexicon: Lexicon) -> WordFold:
    """The shared fold table, replaced if full or for another lexicon."""
    global _fold
    fold = _fold
    if (len(fold) > _FOLD_LIMIT or fold.chars > _FOLD_CHARS
            or (fold.lexicon is not lexicon and fold.lexicon != lexicon)):
        fold = _fold = WordFold(lexicon)
    # A lexicon equal to the table's but another object replaces it on the
    # table, so that later scans with that lexicon pass the identity test.
    fold.lexicon = lexicon
    return fold


class TokenStore:
    """Every token of one parse, in source order, and the document's
    structure, in flat per-document arrays (no per-sentence objects, which
    once freed stay on CPython's free lists until a generation-2 collection).

    Every array is indexed by token. Token i is ``source[start[i]:end[i]]``
    of kind ``KINDS[kind[i]]``; ``stem[i]`` is its content stem, one string
    per form, and ``word_class[i]`` its class byte (Lexicon.word_class of
    its lowercase form, form(i)). A token that is not a WORD, and a stopword,
    has the stem None; one that is not a WORD has the class byte 0. A "word"
    is a WORD token: the rules that look at neighbouring words skip the
    punctuation and NUMBER tokens between them. Sentence i is tokens
    ``sentence_token[i]`` up to ``sentence_token[i + 1]``, and paragraph p is
    sentences ``paragraph_sentence[p]`` up to ``[p + 1]``; both end with a
    closing sentinel. Offsets take 4-byte ints below _OFFSET_LIMIT code
    points of source, 8-byte ints otherwise.
    """

    __slots__ = ("source", "line_starts", "start", "end", "kind", "stem", "word_class",
                 "sentence_token", "paragraph_sentence")

    def __init__(self, source: str):
        self.source = source
        typecode = "i" if len(source) < _OFFSET_LIMIT else "q"
        # The offsets at which the source's lines start.
        self.line_starts = array(typecode, [0, *(m.end() for m in re.finditer("\n", source))])
        self.start = array(typecode)
        self.end = array(typecode)
        self.kind = bytearray()
        self.stem: list[str | None] = []
        self.word_class = bytearray()
        self.sentence_token = array(typecode, [0])
        self.paragraph_sentence = array(typecode, [0])

    def scan(self, start: int, end: int, lexicon: Lexicon) -> None:
        """Append the tokens of source[start:end]: each one's offsets, kind
        code, content stem and class byte, as the shared fold table for the
        lexicon gives them.

        No Python code runs per token, but for chunks the fold has not seen.
        One findall cuts a piece of the range into chunks; the fold maps each
        chunk to its entry; and map and accumulate turn the entries into the
        arrays. The range is matched in pieces of about _PIECE characters,
        each cut at the end of a token: a token never holds whitespace, so
        the pieces give the tokens of the whole.
        """
        source, starts, ends, kinds = self.source, self.start, self.end, self.kind
        # Stop at the last token: a chunk regex that starts with \s* would
        # try every position of a trailing whitespace run again.
        while end > start and source[end - 1].isspace():
            end -= 1
        fold = _shared_fold(lexicon)
        while start < end:
            cut = end
            if end - start > _PIECE:
                m = _TOKEN_END_RE.search(source, start + _PIECE, end)
                if m:
                    cut = m.start() + 1
            chunks = _CHUNK_RE.findall(source, start, cut)
            entries = list(map(fold.__getitem__, chunks))
            if len(fold) > _FOLD_LIMIT or fold.chars > _FOLD_CHARS:
                fold = _shared_fold(lexicon)
            # A chunk ends where its token does. (array.fromlist takes a
            # list faster than array.extend takes an iterator.)
            piece_ends = list(accumulate(map(len, chunks), initial=start))
            del piece_ends[0]
            ends.fromlist(piece_ends)
            starts.fromlist(list(map(sub, piece_ends, map(_LENGTH, entries))))
            kinds.extend(map(_CODE, entries))
            self.stem += map(_STEM, entries)
            self.word_class.extend(map(_CLASS, entries))
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

    def sentence_span(self, i: int, j: int | None = None) -> Span:
        """The Span of sentences i through j - 1 (i alone by default)."""
        return self.token_span(self.sentence_token[i],
                               self.sentence_token[i + 1 if j is None else j])

    def paragraph_span(self, p: int, q: int | None = None) -> Span:
        """The Span of paragraphs p through q - 1 (p alone by default)."""
        bounds = self.paragraph_sentence
        return self.sentence_span(bounds[p], bounds[p + 1 if q is None else q])

    def sentence_word_count(self, i: int) -> int:
        """Sentence i's word count: its WORD plus its NUMBER tokens."""
        kind, first, end = self.kind, self.sentence_token[i], self.sentence_token[i + 1]
        return kind.count(WORD_CODE, first, end) + kind.count(NUMBER_CODE, first, end)

    def form(self, i: int) -> str:
        """Token i's text, lowercased: for a WORD token, the form that its
        stem and class byte were folded from."""
        return self.source[self.start[i]:self.end[i]].lower()

    def token(self, i: int) -> Token:
        start, end = self.start[i], self.end[i]
        return Token(self.source[start:end], KINDS[self.kind[i]], self.span(start, end))

    def sentence(self, i: int) -> Sentence:
        tokens = self.sentence_token
        return Sentence(self.sentence_word_count(i), self, tokens[i], tokens[i + 1])


@dataclass(frozen=True, slots=True)
class Sentence:
    """A view of a sentence of the parse's TokenStore, built on access: its
    word count (WORD plus NUMBER tokens) and the index range [first, end) of
    its tokens. Two sentences are equal when these are. span, tokens, words
    and stems are views too; code that walks many sentences reads the
    store's arrays instead.
    """

    word_count: int
    store: TokenStore = field(repr=False, compare=False)
    first_token: int
    end_token: int

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
        store, kind = self.store, self.store.kind
        return tuple([store.token(i) for i in range(self.first_token, self.end_token)
                      if kind[i] == WORD_CODE])

    @property
    def stems(self) -> tuple[str, ...]:
        """The content stems, in order and with repeats (see TokenStore)."""
        return tuple([s for s in self.store.stem[self.first_token:self.end_token] if s])


@dataclass(frozen=True, slots=True)
class Paragraph:
    """A view of a paragraph, built on access: its sentences, one at least."""

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
    """A heading and the indices of its paragraphs in the store's paragraph
    arrays; paragraphs is a view built on each access."""

    heading_text: str
    level: int
    paragraph_range: range
    store: TokenStore = field(repr=False, compare=False)

    @property
    def paragraphs(self) -> tuple[Paragraph, ...]:
        bounds, sentence = self.store.paragraph_sentence, self.store.sentence
        return tuple(Paragraph(tuple(map(sentence, range(bounds[p], bounds[p + 1]))))
                     for p in self.paragraph_range)


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
    # The flat token and structure arrays (see TokenStore).
    store: TokenStore = field(repr=False, compare=False)
    words_per_page: int = DEFAULT_WORDS_PER_PAGE

    @property
    def page_estimate(self) -> float:
        return self.total_words / self.words_per_page

    def iter_paragraphs(self) -> Iterator[Paragraph]:
        for section in self.sections:
            yield from section.paragraphs

    def iter_sentences(self) -> Iterator[Sentence]:
        return map(self.store.sentence, range(len(self.store.sentence_token) - 1))


def scan_text(text: str, lexicon: Lexicon) -> TokenStore:
    """A TokenStore of all of text, its words folded with the lexicon as a
    parse folds them."""
    store = TokenStore(text)
    store.scan(0, len(text), lexicon)
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


def _paragraphs(store: TokenStore, start: int, end: int, lexicon: Lexicon,
                abbreviations: dict[int, set[str]]) -> None:
    """Scan source[start:end], a run of body text, cut its tokens into
    paragraphs at the blank lines and each paragraph into sentences, and
    append their bounds to the store's sentence_token and paragraph_sentence.
    A run without a token, such as the line end between two structure lines,
    holds no paragraph and is not scanned."""
    source, starts, ends, kind = store.source, store.start, store.end, store.kind
    if not _NON_SPACE_RE.search(source, start, end):
        return
    sentence_token = store.sentence_token
    first_token = len(kind)
    store.scan(start, end, lexicon)
    last_token = len(kind)
    # A paragraph starts at the run's first token and at each token after a
    # blank line. Tokens hold no whitespace, so a blank line lies in a gap.
    bounds = sorted({first_token, last_token, *(
        bisect_left(starts, m.end(), first_token, last_token)
        for m in _BLANK_LINE_RE.finditer(source, start, end))})
    for first_token, last_token in pairwise(bounds):
        # A sentence ends after a terminator token k followed by whitespace and
        # a capital or a digit, unless k is a lone "." (no terminator right before
        # it in the paragraph) that ends an abbreviation. k == first_token is
        # tested first: at k == 0, kind[k - 1] wraps to the last token.
        k = first_token - 1
        while (k := kind.find(STOP_CODE, k + 1, last_token - 1)) >= 0:
            after = starts[k + 1]
            if ends[k] < after and (source[after].isupper() or source[after].isdigit()):
                lone = k == first_token or kind[k - 1] != STOP_CODE or ends[k - 1] < starts[k]
                if not (lone and source[starts[k]] == "."
                        and _ends_with_abbreviation(source, ends[k], abbreviations)):
                    sentence_token.append(k + 1)
        sentence_token.append(last_token)
        store.paragraph_sentence.append(len(sentence_token) - 1)


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
    abbreviations: dict[int, set[str]] = {}  # by length
    for abbr in lexicon.abbreviations:
        abbreviations.setdefault(len(abbr), set()).add(abbr)

    # (heading, level, first paragraph); the untitled section opens up front
    # and is dropped at the end if a heading followed it and it stayed empty.
    sections: list[tuple[str, int, int]] = [("", 0, 0)]
    defs: dict[str, Span] = {}
    # Offset ranges of the footnote markers, in source order.
    markers: list[tuple[int, int]] = []
    # Each structure line ends the run of body text before it, which starts at pos.
    pos = 0
    if format == MARKDOWN:
        # A structure line starts at offset 0 or after a line end: "^" holds
        # nowhere else. It ends before its line end, so the lines found from
        # the line starts are the ones a search of the whole text finds.
        match = _STRUCTURE_RE.match
        for start in [0, *(m.end() for m in _STRUCTURE_START_RE.finditer(source))]:
            if (line := match(source, start)) is None:
                continue
            _paragraphs(store, pos, line.start(), lexicon, abbreviations)
            hashes, heading, fid, body = line.groups()
            # Markers count in the body text and in headings, not in definitions.
            marked_end = line.end() if hashes else line.start()
            markers += [m.span() for m in _MARKER_RE.finditer(source, pos, marked_end)]
            pos = line.end()
            if hashes:
                sections.append((_CLOSING_HASHES_RE.sub("", heading).strip(), len(hashes),
                                 len(store.paragraph_sentence) - 1))
                continue
            body = body.rstrip()
            if not body:
                raise DocumentStructureError(
                    f"footnote definition [^{fid}] has an empty body", fid)
            if fid in defs:
                raise DocumentStructureError(
                    f"duplicate footnote definition [^{fid}]", fid, defs[fid])
            defs[fid] = store.span(line.start(4), line.start(4) + len(body))
        markers += [m.span() for m in _MARKER_RE.finditer(source, pos)]
    _paragraphs(store, pos, len(source), lexicon, abbreviations)
    if len(sections) > 1 and sections[1][2] == 0:
        del sections[0]
    firsts = [first for _, _, first in sections] + [len(store.paragraph_sentence) - 1]
    built_sections = tuple(Section(heading, level, range(first, end), store)
                           for (heading, level, _), (first, end) in zip(sections, pairwise(firsts)))

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

    # The store holds the tokens of the sentences and of nothing else.
    total_words = store.kind.count(WORD_CODE) + store.kind.count(NUMBER_CODE)
    return Document(source, format, built_sections, tuple(footnotes.values()), total_words,
                    lexicon, store, words_per_page)

