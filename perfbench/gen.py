"""Seeded manuscript generators for the three workloads.

Every generator returns the text it wrote together with its own bookkeeping:
sentence, paragraph, word and footnote totals, and the offsets of each
sentence planted over the long-sentence threshold. The checks compare the
program's output against this bookkeeping, so nothing here calls into
prose_clinic. Counts are kept by construction: every item a sentence is built
from carries the number of words it contributes (a word or a number is one,
"e.g." is two, punctuation is none).

All text is ASCII, so a character offset and a byte offset are the same.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# Defaults of the analysis the generators plant against; the workload config
# files below override some of them.
WORDS_PER_PAGE = 400

# Content vocabulary. None of these is a stopword, a be-form, a connector, a
# demonstrative, an intensity word, a superlative or an abbreviation, and
# none ends in "ing", so a clean sentence built from them trips no rule.
NOUNS = """
sampler estimator corpus archive ledger survey lattice kernel spectrum
reservoir catalog turbine glacier harbor meadow orchard compass beacon
canyon crystal delta ember fossil garnet hamlet island jasper lantern
mosaic nectar oasis prism quarry ribbon saddle timber valley walnut
anchor badge cipher dynamo engine filter gauge helix ingot journal
keystone lever magnet needle outpost pendulum quiver rotor sensor tablet
vessel wagon yarn zenith atlas bracket cradle drum fabric gasket hinge
motor nozzle piston relay spindle tether valve boiler cable funnel
grid hull kiln loom mill pulley ratchet sluice trellis vault
""".split()

# Plural nouns used after numbers.
COUNTED = "samples runs cases trials probes batches cycles sweeps".split()

VERBS = """
shapes guides bounds tracks limits anchors frames feeds joins lifts
marks meets moves names opens packs ranks reads sets shows splits
steers tests tunes turns weighs yields links holds maps drives
""".split()

ADJECTIVES = """
steady narrow coarse gentle rapid hollow sparse dense brisk plain
modest subtle robust clear rough smooth quiet loud early late
""".split()

PREPOSITIONS = "across along beside beyond inside near outside past within".split()

CONNECTORS = "moreover however therefore thus hence similarly furthermore".split()

# Vocabulary of the symptom-dense workload.
NOMINALIZATIONS = """
implementation evaluation estimation measurement assessment improvement
performance dependence similarity complexity variability calibration
""".split()
# "strikingly" counts only through the symptom-dense lexicon file.
INTENSITY = "importantly notably crucially significantly strikingly important".split()
SUPERLATIVES = "best largest greatest strongest unprecedented unmatched".split()


@dataclass
class Planted:
    """A sentence written over the long-sentence threshold."""

    start: int
    end: int
    line: int
    column: int
    words: int


@dataclass
class Manuscript:
    name: str
    text: str
    sentences: int
    paragraphs: int
    words: int
    footnotes: int
    long: list[Planted] = field(default_factory=list)
    # Offsets where a prefix of the text is itself a valid manuscript.
    cuts: list[int] = field(default_factory=list)

    def expected(self) -> dict:
        return {
            "sentences": self.sentences,
            "paragraphs": self.paragraphs,
            "words": self.words,
            "footnotes": self.footnotes,
            "long": [[p.start, p.end, p.line, p.column, p.words] for p in self.long],
        }


# A sentence is a list of (text, words) items. Items whose text starts with
# "," or "." attach to the item before them; every other item is preceded by
# a space (or a line break when the line is full).
Item = tuple[str, int]


def _w(*words: str) -> list[Item]:
    return [(w, 1) for w in words]


class _Writer:
    """Accumulates markdown or plain text with greedy line wrapping and
    records every offset the checks need."""

    def __init__(self, width: int = 76):
        self.parts: list[str] = []
        self.offset = 0
        self.line_no = 1
        self.col = 0  # characters already on the current line
        self.width = width
        self.sentences = 0
        self.paragraphs = 0
        self.words = 0
        self.long: list[Planted] = []
        self.cuts: list[int] = []

    def _emit(self, s: str) -> None:
        self.parts.append(s)
        self.offset += len(s)
        self.line_no += s.count("\n")
        nl = s.rfind("\n")
        self.col = len(s) - nl - 1 if nl >= 0 else self.col + len(s)

    def line(self, s: str) -> None:
        """A line of its own (heading or footnote definition)."""
        self._emit(s + "\n")

    def cut(self) -> None:
        """Mark the current offset as the end of a valid prefix."""
        self.cuts.append(self.offset)

    def blank(self) -> None:
        self._emit("\n")

    def paragraph(self, sentences: list[list[Item]], long_over: int) -> None:
        for sentence in sentences:
            n = sum(k for _, k in sentence)
            for i, (text, _) in enumerate(sentence):
                if text[0] in ",.":
                    self._emit(text)
                    continue
                if self.col > 0:
                    if self.col + 1 + len(text) > self.width:
                        self._emit("\n")
                    else:
                        self._emit(" ")
                if i == 0:
                    text = text[0].upper() + text[1:]
                    start = (self.offset, self.line_no, self.col + 1)
                self._emit(text)
            if n > long_over:
                offset, line, column = start
                self.long.append(Planted(offset, self.offset, line, column, n))
            self.sentences += 1
            self.words += n
        self._emit("\n")
        self.paragraphs += 1

    def finish(self, name: str, footnotes: int) -> Manuscript:
        return Manuscript(name, "".join(self.parts), self.sentences, self.paragraphs,
                          self.words, footnotes, self.long, self.cuts)


def _end(items: list[Item]) -> list[Item]:
    return items + [(".", 0)]


def _tail(rng: random.Random) -> list[Item]:
    return _w(rng.choice(PREPOSITIONS), "the", rng.choice(ADJECTIVES), rng.choice(NOUNS))


def _clean_opener(rng, section_topic, topic) -> list[Item]:
    # Carries the section topic (so adjacent openers share a key term) and
    # the paragraph topic (so the next sentence can link to it).
    return _end(_w("the", rng.choice(ADJECTIVES), section_topic, rng.choice(VERBS),
                   "the", topic) + _tail(rng))


def _clean_follow(rng, topic) -> list[Item]:
    """A sentence of 8 to 19 words that links to its predecessor through the
    repeated paragraph topic and trips no rule."""
    kind = rng.randrange(9)
    noun, adj, verb = rng.choice(NOUNS), rng.choice(ADJECTIVES), rng.choice(VERBS)
    if kind == 0:
        items = _w("this", topic, verb, "the", adj, noun)
    elif kind == 1:
        items = _w("the", topic, "also", verb, "each", noun)
    elif kind == 2:
        items = [(rng.choice(CONNECTORS), 1), (",", 0)] + _w("the", topic, verb, "the", noun)
    elif kind == 3:
        items = _w("the", topic, verb, str(rng.randrange(2, 900)), rng.choice(COUNTED),
                   "in", str(rng.randrange(2, 60)), "trials")
    elif kind == 4:
        # "Sec." is an abbreviation only through the workload lexicon file.
        items = _w("the", topic, verb, "the", "setup", "in", "Sec.", str(rng.randrange(1, 40)),
                   "of", "this", "report")
    elif kind == 5:
        items = _w("the", topic, verb, "a", "rate", "of", f"0.{rng.randrange(10, 99)}")
    elif kind == 6:
        items = (_w("the", topic, verb, "small", noun) + [("e.g.", 2)]
                 + _w("the", rng.choice(NOUNS), "in", "Fig.", str(rng.randrange(1, 20))))
    elif kind == 7:
        items = _w("the", topic, verb, "the", f"{adj}-{noun}", "layout")
    else:
        items = _w("in", "the", adj, noun) + [(",", 0)] + _w("the", topic, verb, "the",
                                                              rng.choice(NOUNS))
    while sum(k for _, k in items) < 8 or (rng.random() < 0.5 and
                                           sum(k for _, k in items) <= 15):
        items += _tail(rng)
    return _end(items)


def _linked(rng, topic, n: int) -> list[Item]:
    """A comma-free sentence of exactly n words (n >= 5) that repeats topic."""
    items = _w("the", topic, rng.choice(VERBS), "the", rng.choice(NOUNS))
    while len(items) + 4 <= n:
        items += _w("and", rng.choice(VERBS), "the", rng.choice(NOUNS))
    rest = n - len(items)
    if rest:
        items += _w(*("today", "right here", "in plain terms")[rest - 1].split())
    return _end(items)


def _long(rng, topic, over: int) -> list[Item]:
    """Planted for S101: over+1 to over+14 words."""
    return _linked(rng, topic, over + 1 + rng.randrange(14))


def _clean_paragraph(rng, section_topic, long_over, long_rate) -> list[list[Item]]:
    topic = rng.choice(NOUNS)
    sentences = [_clean_opener(rng, section_topic, topic)]
    for _ in range(rng.randrange(2, 6)):
        r = rng.random()
        if r < long_rate:
            sentences.append(_long(rng, topic, long_over))
        elif r < long_rate * 1.5:
            # Exactly at the threshold: must not be reported.
            sentences.append(_linked(rng, topic, long_over))
        else:
            sentences.append(_clean_follow(rng, topic))
    return sentences


def _title(rng, n=3) -> str:
    return " ".join(rng.choice(NOUNS).capitalize() for _ in range(n))


def _mark_footnotes(rng, paragraphs, count) -> set[tuple[int, int]]:
    """Pick count distinct (paragraph, sentence) slots for footnote markers."""
    slots = [(p, s) for p, para in enumerate(paragraphs) for s in range(len(para))]
    return set(rng.sample(slots, count))


def _with_marker(sentence: list[Item], note: int) -> list[Item]:
    text, n = sentence[-2]
    return sentence[:-2] + [(f"{text}[^{note}]", n), sentence[-1]]


def fair_footnotes(words: int, ratio: float, words_per_page: int = WORDS_PER_PAGE) -> int:
    """The fair footnote count of the method: about ratio per page, halves up."""
    return math.floor(words / words_per_page * ratio + 0.5)


def _markdown(name, rng, sections, footnote_count, long_over) -> Manuscript:
    """Write sections [(level, heading, paragraphs)] with footnote_count
    markers spread over the sentences; definitions close each section."""
    flat = [para for _, _, paras in sections for para in paras]
    slots = _mark_footnotes(rng, flat, footnote_count)
    out = _Writer()
    note = 0
    p = 0
    for level, heading, paras in sections:
        out.cut()
        out.line("#" * level + " " + heading)
        out.blank()
        notes = []
        for para in paras:
            marked = []
            for s, sentence in enumerate(para):
                if (p, s) in slots:
                    note += 1
                    notes.append(note)
                    sentence = _with_marker(sentence, note)
                marked.append(sentence)
            out.paragraph(marked, long_over)
            out.blank()
            p += 1
        for n in notes:
            out.line(f"[^{n}]: See the {rng.choice(NOUNS)} notes in the "
                     f"{rng.choice(NOUNS)} appendix.")
        if notes:
            out.blank()
    return out.finish(name, footnote_count)


MONOGRAPH_BYTES = 1_200_000
MONOGRAPH_SECTIONS = 48
MONOGRAPH_CONFIG = "# a long-form venue: S501 is live but quiet\nmax_pages = 640\n"
LEXICON = "[abbreviations]\nsec.\n"


def monograph(seed: int, size: int = MONOGRAPH_BYTES) -> Manuscript:
    """One markdown manuscript of about size bytes: MONOGRAPH_SECTIONS
    sections of clean, linked prose, 2.5% of sentences planted long, and
    exactly the fair number of footnotes (so S601 stays quiet)."""
    rng = random.Random(f"monograph:{seed}")
    per_section = size / MONOGRAPH_SECTIONS
    sections = []
    approx = 0
    words = 0
    for k in range(MONOGRAPH_SECTIONS):
        topic = rng.choice(NOUNS)
        paras = []
        target = per_section * (k + 1)
        while approx < target:
            para = _clean_paragraph(rng, topic, 25, 0.025)
            paras.append(para)
            for sentence in para:
                words += sum(n for _, n in sentence)
                approx += sum(len(t) + 1 for t, _ in sentence)
            approx += 2
        sections.append((1 if k % 6 == 0 else 2, f"{k + 1} {_title(rng)}", paras))
    notes = fair_footnotes(words, 1 / 3)
    return _markdown("monograph.md", rng, sections, notes, 25)


SUBMISSIONS = 240
SUBMISSION_MIN, SUBMISSION_MAX = 2_000, 8_000
SUBMISSIONS_CONFIG = """\
# a short-form venue
max_sentence_words = 22
max_paragraph_sentences = 5
footnote_ratio = 0.5
keyword_count = 12
"""
SUBMISSIONS_LONG_OVER = 22
SUBMISSIONS_LEXICON = """\
[abbreviations]
sec.

[superlatives]
leanest

[subordinating]
granted
"""


def submissions(seed: int, count: int = SUBMISSIONS) -> list[Manuscript]:
    """count short markdown manuscripts whose sizes are spread evenly over
    SUBMISSION_MIN..SUBMISSION_MAX (the order is seeded), so every seed
    analyses the same total. Mostly clean, with long sentences, hidden
    verbs, broken cores, number-led paragraphs and superlatives mixed in."""
    rng = random.Random(f"submissions:{seed}")
    step = (SUBMISSION_MAX - SUBMISSION_MIN) / count
    sizes = [int(SUBMISSION_MIN + step * (i + 0.5)) for i in range(count)]
    rng.shuffle(sizes)
    docs = []
    for i, size in enumerate(sizes):
        heads = rng.randrange(2, 5)
        sections = []
        approx = 0
        for k in range(heads):
            topic = rng.choice(NOUNS)
            paras = []
            # Stop half a paragraph early on average, so sizes centre on size.
            while approx + 250 < size * (k + 1) / heads or not paras:
                if rng.random() < 0.25:
                    para = _symptom_paragraph(rng, SUBMISSIONS_LONG_OVER, superlative="leanest")
                else:
                    para = _clean_paragraph(rng, topic, SUBMISSIONS_LONG_OVER, 0.06)
                paras.append(para)
                approx += sum(len(t) + 1 for s in para for t, _ in s) + 2
            sections.append((1 if k == 0 else 2, _title(rng), paras))
        notes = rng.randrange(0, 5)
        docs.append(_markdown(f"sub-{i:03d}.md", rng, sections, notes,
                              SUBMISSIONS_LONG_OVER))
    return docs


def _unlinked(rng) -> list[Item]:
    """Fresh nouns, no connector and no demonstrative: no link to the
    sentence before, and an intensity word or a superlative on top."""
    items = _w("the", rng.choice(NOUNS), rng.choice(VERBS), "the",
               rng.choice(SUPERLATIVES), rng.choice(NOUNS))
    items += _w(rng.choice(INTENSITY)) + _tail(rng)
    if rng.random() < 0.5:
        items += _tail(rng)
    return _end(items)


def _insertion(rng) -> list[Item]:
    """S103: a short subject, a comma insertion of 8+ words, then the verb."""
    return _end(_w("the", rng.choice(NOUNS)) + [(",", 0)]
                + _w("which", rng.choice(VERBS), "the", rng.choice(ADJECTIVES),
                     rng.choice(NOUNS)) + _tail(rng)
                + [(",", 0)] + _w(rng.choice(VERBS), "the", rng.choice(NOUNS)))


def _delayed(rng) -> list[Item]:
    """S103: two leading subordinate clauses of 12+ words before the core."""
    # "granted" opens a clause only through the submissions lexicon file.
    return _end(_w(rng.choice(("although", "granted")), "the", rng.choice(NOUNS),
                   rng.choice(VERBS), "the",
                   rng.choice(NOUNS)) + [(",", 0)]
                + _w("because", "the", rng.choice(NOUNS), rng.choice(VERBS), "the",
                     rng.choice(ADJECTIVES), rng.choice(NOUNS)) + [(",", 0)]
                + _w("the", rng.choice(NOUNS), rng.choice(VERBS), "the", rng.choice(NOUNS)))


def _hidden_verb(rng) -> list[Item]:
    """S102: a be-form carrying two nominalizations."""
    return _end(_w("the", rng.choice(NOUNS), "is", "the", rng.choice(NOMINALIZATIONS),
                   "of", "the", rng.choice(NOMINALIZATIONS)) + _tail(rng))


def _number_opener(rng) -> list[Item]:
    """S302 when the paragraph has four or more sentences."""
    return _end(_w("in", str(rng.randrange(1950, 2024)), "the", rng.choice(NOUNS),
                   rng.choice(VERBS), str(rng.randrange(2, 999)), rng.choice(COUNTED))
                + _tail(rng))


def _symptom_paragraph(rng, long_over, superlative=None) -> list[list[Item]]:
    opener = _number_opener(rng) if rng.random() < 0.6 else _unlinked(rng)
    sentences = [opener]
    for _ in range(rng.randrange(3, 8)):
        r = rng.random()
        if r < 0.25:
            sentences.append(_long(rng, rng.choice(NOUNS), long_over))
        elif r < 0.3:
            sentences.append(_linked(rng, rng.choice(NOUNS), long_over))
        elif r < 0.45:
            sentences.append(_insertion(rng))
        elif r < 0.55:
            sentences.append(_delayed(rng))
        elif r < 0.65:
            sentences.append(_hidden_verb(rng))
        else:
            sentences.append(_unlinked(rng))
    if superlative and rng.random() < 0.5:
        sentences.append(_end(_w("the", "leanest", rng.choice(NOUNS), rng.choice(VERBS),
                                 "the", rng.choice(NOUNS))))
    return sentences


DENSE_BYTES = 300_000
DENSE_CONFIG = """\
# stricter emphasis budget; S501 on for a conference page limit
superlative_per_page = 2.5
intensity_per_page = 0.8
max_pages = 20
"""
DENSE_LEXICON = "[intensity_words]\nstrikingly\n"


def symptom_dense(seed: int, size: int = DENSE_BYTES) -> Manuscript:
    """Plain text of about size bytes in which most sentences trip a rule:
    long sentences, missing links, broken cores, number-led paragraphs,
    intensity words and superlatives."""
    rng = random.Random(f"symptom-dense:{seed}")
    out = _Writer()
    while out.offset < size:
        out.cut()
        out.paragraph(_symptom_paragraph(rng, 25), 25)
        out.blank()
    return out.finish("dense.txt", 0)
